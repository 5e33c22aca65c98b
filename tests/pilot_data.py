"""Labelled pilot data sets and a base-station read for the tests."""

import numpy as np

from twinet import pilotguard as pg
from twinet.seeds import derive_seed

# a key that no draw in twinet.pilotguard derives its seed with
SEED_DATASET = 6


def make_dataset(config, n_train=pg.DEFAULT_N_TRAIN, n_test=pg.DEFAULT_N_TEST,
                 seed=0):
    """(x_train, y_train, x_test, y_test, norm_stats), class-balanced."""
    rng = np.random.default_rng(derive_seed(seed, SEED_DATASET))
    train_powers, y_train = pg.generate_labeled_frames(config, n_train, rng)
    test_powers, y_test = pg.generate_labeled_frames(config, n_test, rng)
    x_train, x_test, stats = pg.normalize_dataset(train_powers, test_powers)
    return x_train, y_train, x_test, y_test, stats


def snapshot(station):
    """The station's (model, pilots) pair, read in one attribute load, as
    ``install`` writes it."""
    return station._state
