import struct
import threading
import time
import tracemalloc
import types
import zlib

import numpy as np
import pytest

from twinet import pilotguard as pg
from twinet.link import LinkEndpoint
from twinet.pilotguard import ChecksumError
from twinet.seeds import derive_seed

from pilot_data import make_dataset, snapshot


def small_config():
    return pg.PilotConfig(16, (4, 7, 10), "10 MHz")


class TestFrameGeneration:
    def test_template_levels_without_noise(self):
        config = small_config()
        frame = pg.generate_frame(config, 0, np.random.default_rng(0),
                                  noise_sigma=0.0)
        assert frame[4] == pg.PILOT_POWER
        assert frame[0] == pg.NOISE_POWER  # guard band
        assert frame[5] == pg.DATA_POWER

    def test_jammed_pilot_power(self):
        config = small_config()
        frame = pg.generate_frame(config, 1, np.random.default_rng(0),
                                  noise_sigma=0.0)
        assert frame[4] == pg.PILOT_POWER + pg.JAMMER_POWER == 16.0
        assert frame[7] == pg.PILOT_POWER

    def test_jam_class_bounds(self):
        with pytest.raises(ValueError):
            pg.generate_frame(small_config(), 4, np.random.default_rng(0))

    def test_deterministic_given_seed(self):
        a = pg.generate_frame(small_config(), 2, np.random.default_rng(5))
        b = pg.generate_frame(small_config(), 2, np.random.default_rng(5))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("k", [128, 127])
    def test_every_class_at_its_template_levels_without_noise(self, k):
        config = pg.PilotConfig(k, (20, 50, 63, 100), "wide")
        for jam_class in range(config.n_pilots + 1):
            frame = pg.generate_frame(config, jam_class, np.random.default_rng(0),
                                      noise_sigma=0.0)
            expected = np.full(k, pg.NOISE_POWER)
            expected[k // 8:k - k // 8] = pg.DATA_POWER  # guard bands at NOISE_POWER
            expected[list(config.pilot_indices)] = pg.PILOT_POWER
            if jam_class:
                expected[config.pilot_indices[jam_class - 1]] += pg.JAMMER_POWER
            assert frame.dtype == np.float64
            assert frame.tobytes() == expected.tobytes()


class TestStandardNormals:
    @pytest.mark.parametrize("k", [128, 127])
    def test_moments_over_a_million_draws(self, k):
        z = pg.standard_normals(np.random.default_rng(11),
                                np.empty((-(-10**6 // k), k), np.float32))
        assert z.dtype == np.float32
        assert abs(z.mean(dtype=np.float64)) < 0.005
        assert abs(z.var(dtype=np.float64) - 1.0) < 0.01
        assert np.isfinite(z).all()
        # u < 1 is a multiple of 2**-24, so the radius is at most this
        assert np.abs(z).max() <= np.sqrt(-2 * np.log(2.0**-24))

    @pytest.mark.parametrize("k", [128, 127, 1])
    def test_block_equals_row_by_row_draws(self, k):
        block_rng, row_rng = np.random.default_rng(12), np.random.default_rng(12)
        block = pg.standard_normals(block_rng, np.empty((301, k), np.float32))
        rows = [pg.standard_normals(row_rng, np.empty((1, k), np.float32))
                for _ in range(301)]
        assert block.tobytes() == np.concatenate(rows).tobytes()
        assert block_rng.bit_generator.state == row_rng.bit_generator.state


def reference_labeled_frames(config, n, rng):
    """``generate_labeled_frames`` frame by frame: the oracle whose float64
    powers, each a float32 value, the batched draw must match bit for bit."""
    labels = pg._balanced_labels(n, config.n_pilots + 1, rng)
    powers = np.stack([
        pg.generate_frame(config, int(label), rng) for label in labels
    ])
    return powers, labels


class TestBatchedFrames:
    @pytest.mark.parametrize("n", [1, 701])
    @pytest.mark.parametrize("label", list(pg.SCENARIOS))
    def test_equals_per_frame_generation(self, label, n):
        config = pg.PilotConfig.for_scenario(label, seed=5)
        batched_rng, reference_rng = np.random.default_rng(6), np.random.default_rng(6)
        powers, labels = pg.generate_labeled_frames(config, n, batched_rng)
        ref_powers, ref_labels = reference_labeled_frames(config, n, reference_rng)
        assert powers.shape == (n, config.n_subcarriers)
        assert powers.dtype == np.float32
        assert np.array_equal(ref_powers.astype(np.float32), ref_powers)  # exact
        assert powers.tobytes() == ref_powers.astype(np.float32).tobytes()
        assert np.array_equal(labels, ref_labels)
        assert batched_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_frames_rejected(self, n):
        with pytest.raises(ValueError, match="at least one frame"):
            pg.generate_labeled_frames(small_config(), n, np.random.default_rng(0))


class TestDataset:
    def test_class_balance(self):
        config = small_config()
        _, y_train, _, y_test, _ = make_dataset(config, 400, 100, seed=1)
        for labels, n in ((y_train, 400), (y_test, 100)):
            counts = np.bincount(labels, minlength=4)
            assert np.all(np.abs(counts - n / 4) <= 1)

    def test_train_features_standardized(self):
        config = small_config()
        x_train, _, _, _, _ = make_dataset(config, 2000, 100, seed=2)
        assert np.all(np.abs(x_train.mean(axis=0)) < 0.05)
        assert np.all(np.abs(x_train.std(axis=0) - 1.0) < 0.05)

    def test_test_set_uses_train_stats(self):
        config = small_config()
        _, _, x_test, _, stats = make_dataset(config, 2000, 100, seed=3)
        # normalized with train stats, so test's own mean is not exactly 0
        assert not np.allclose(x_test.mean(axis=0), 0.0, atol=1e-6)

    @pytest.mark.parametrize("n", [1, pg.SUM_BLOCK_ROWS - 1, pg.SUM_BLOCK_ROWS,
                                   pg.SUM_BLOCK_ROWS + 1, 997, 5000])
    def test_in_place_equals_numpy_statistics(self, n):
        config = pg.PilotConfig.for_scenario("20 MHz", seed=4)
        rng = np.random.default_rng(8)
        train, _ = pg.generate_labeled_frames(config, n, rng)
        test, _ = pg.generate_labeled_frames(config, 101, rng)
        # float32 log-powers, float64 statistics of them, and each z-score
        # step rounded to float32, as the in-place ``-=`` and ``/=`` round
        log_train = np.log(train)
        mean = log_train.astype(np.float64).mean(axis=0)
        std = np.sqrt(np.square(log_train.astype(np.float64) - mean).sum(axis=0) / n)
        std = np.where(std == 0.0, 1.0, std)  # one row: every feature is flat
        expected_train, expected_test = (
            ((np.log(p) - mean).astype(np.float32) / std).astype(np.float32).tobytes()
            for p in (train, test))
        x_train, x_test, stats = pg.normalize_dataset(train, test)
        assert x_train is train and x_test is test
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.std.tobytes() == std.tobytes()
        assert x_train.tobytes() == expected_train
        assert x_test.tobytes() == expected_test

    def test_zero_variance_feature_passthrough(self):
        train = np.ones((10, 4))
        test = np.ones((5, 4)) * 2
        x_train, x_test, stats = pg.normalize_dataset(train, test)
        assert np.all(stats.std == 1.0)
        assert np.all(np.isfinite(x_train)) and np.all(np.isfinite(x_test))


def finite_difference_grads(weights, bias, x, y, h=1e-5):
    grad_w = np.zeros_like(weights)
    for idx in np.ndindex(*weights.shape):
        up, down = weights.copy(), weights.copy()
        up[idx] += h
        down[idx] -= h
        loss_up, _, _ = pg.loss_and_gradient(up, bias, x, y)
        loss_down, _, _ = pg.loss_and_gradient(down, bias, x, y)
        grad_w[idx] = (loss_up - loss_down) / (2 * h)
    grad_b = np.zeros_like(bias)
    for idx in np.ndindex(*bias.shape):
        up, down = bias.copy(), bias.copy()
        up[idx] += h
        down[idx] -= h
        loss_up, _, _ = pg.loss_and_gradient(weights, up, x, y)
        loss_down, _, _ = pg.loss_and_gradient(weights, down, x, y)
        grad_b[idx] = (loss_up - loss_down) / (2 * h)
    return grad_w, grad_b


class TestLossAndGradient:
    def test_uniform_loss_at_zero_weights(self):
        config = small_config()
        x_train, y_train, *_ = make_dataset(config, 40, 8, seed=4)
        weights = np.zeros((4, 16))
        bias = np.zeros(4)
        loss, _, _ = pg.loss_and_gradient(weights, bias, x_train, y_train)
        assert loss == pytest.approx(np.log(4))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n, k, classes = 8, 5, 3
            x = rng.normal(size=(n, k))
            y = rng.integers(0, classes, n)
            weights = rng.normal(scale=0.5, size=(classes, k))
            bias = rng.normal(scale=0.5, size=classes)
            _, grad_w, grad_b = pg.loss_and_gradient(weights, bias, x, y)
            fd_w, fd_b = finite_difference_grads(weights, bias, x, y)
            assert np.max(np.abs(grad_w - fd_w)) / max(np.max(np.abs(fd_w)), 1e-12) < 1e-4
            assert np.max(np.abs(grad_b - fd_b)) / max(np.max(np.abs(fd_b)), 1e-12) < 1e-4

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            pg.loss_and_gradient(np.zeros((2, 3)), np.zeros(2),
                                 np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_non_finite_rejected(self):
        x = np.array([[np.inf, 0.0]])
        with pytest.raises(ValueError):
            pg.loss_and_gradient(np.zeros((2, 2)), np.zeros(2), x,
                                 np.array([0]))


def reference_loss_and_gradient(weights, bias, x, y):
    """``loss_and_gradient`` in the plain row-major (n, C) form, without its
    checks, computed in the batch's dtype, with each sample's classes added
    one by one: the oracle that the class-major step must match bit for
    bit."""
    n, _ = x.shape
    logits = x @ weights.astype(x.dtype).T + bias.astype(x.dtype)
    exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
    total = exp[:, 0].copy()
    for column in exp.T[1:]:
        total += column
    probs = exp / total[:, None]
    loss = float(-np.mean(np.log(probs[np.arange(n), y])))
    onehot = np.zeros((n, weights.shape[0]), x.dtype)
    onehot[np.arange(n), y] = 1.0
    delta = probs - onehot
    return loss, delta.T @ x / n, delta.mean(axis=0)


def reference_training(config, x, y, learning_rate=pg.DEFAULT_LEARNING_RATE,
                       iterations=pg.DEFAULT_ITERATIONS, seed=0):
    """The heavy-ball training loop over ``reference_loss_and_gradient`` on
    a float32 copy of the batch, with float64 weights, bias and velocities:
    (weights, bias, history), or the iteration at which the loss stopped
    being finite."""
    x = x.astype(np.float32)
    n_classes = config.n_pilots + 1
    rng = np.random.default_rng(derive_seed(seed, pg.SEED_WEIGHTS))
    weights = rng.normal(0.0, 0.01, (n_classes, config.n_subcarriers))
    bias = np.zeros(n_classes)
    velocity_w, velocity_b = np.zeros_like(weights), np.zeros_like(bias)
    history = []
    for iteration in range(iterations):
        loss, grad_w, grad_b = reference_loss_and_gradient(weights, bias, x, y)
        if not np.isfinite(loss):
            return iteration
        history.append(loss)
        velocity_w = pg.MOMENTUM * velocity_w - learning_rate * grad_w
        velocity_b = pg.MOMENTUM * velocity_b - learning_rate * grad_b
        weights += velocity_w
        bias += velocity_b
    return weights, bias, history


class TestClassMajorOracle:
    # every scenario at 600 samples, and the factory's real batch at 40 MHz
    @pytest.mark.parametrize("label, n_train", [
        *((label, 600) for label in pg.SCENARIOS),
        ("40 MHz", pg.DEFAULT_N_TRAIN),
    ], ids=[*pg.SCENARIOS, "40 MHz-factory-batch"])
    def test_train_model_equals_row_major_loop(self, label, n_train):
        config = pg.PilotConfig.for_scenario(label, seed=13)
        x_train, y_train, _, _, stats = make_dataset(config, n_train, 10, seed=13)
        model, history = pg.train_model(config, x_train, y_train, stats, seed=13)
        weights, bias, ref_history = reference_training(config, x_train, y_train,
                                                        seed=13)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias.tobytes() == bias.tobytes()
        assert history == ref_history

    # (n, K, classes): shapes where a (C, n) product gives other bits than
    # the row-major form on some BLAS builds; from 8 classes up, numpy's row
    # sum of an (n, C) array adds pairwise, not one by one as the step does,
    # and past 128 it splits in halves; one class makes every delta exactly
    # zero
    ORACLE_SHAPES = [(257, 9, 5), (300, 64, 8), (463, 26, 12), (311, 17, 9),
                     (520, 33, 17), (97, 7, 129), (64, 5, 1)]

    @pytest.mark.parametrize("n, k, classes", ORACLE_SHAPES)
    def test_loss_and_gradient_equals_row_major(self, n, k, classes):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(n, k))
        y = rng.integers(0, classes, n)
        weights = rng.normal(size=(classes, k))
        bias = rng.normal(size=classes)
        loss, grad_w, grad_b = pg.loss_and_gradient(weights, bias, x, y)
        ref_loss, ref_w, ref_b = reference_loss_and_gradient(weights, bias, x, y)
        assert loss == ref_loss
        assert grad_w.tobytes() == ref_w.tobytes()
        assert grad_b.tobytes() == ref_b.tobytes()

    @pytest.mark.parametrize("n, k, classes", ORACLE_SHAPES)
    def test_float32_loss_and_gradient_equals_row_major(self, n, k, classes):
        # the training step's case: a float32 batch, float64 parameters
        rng = np.random.default_rng(14)
        x = rng.normal(size=(n, k)).astype(np.float32)
        y = rng.integers(0, classes, n)
        weights = rng.normal(size=(classes, k))
        bias = rng.normal(size=classes)
        loss, grad_w, grad_b = pg.loss_and_gradient(weights, bias, x, y)
        ref_loss, ref_w, ref_b = reference_loss_and_gradient(weights, bias, x, y)
        assert grad_w.dtype == grad_b.dtype == np.float32
        assert loss == ref_loss
        assert grad_w.tobytes() == ref_w.tobytes()
        assert grad_b.tobytes() == ref_b.tobytes()

    def test_step_results_do_not_alias_its_buffers(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(40, 6))
        y = rng.integers(0, 4, 40)
        step = pg._TrainingStep(x, y, 4)
        weights, bias = rng.normal(size=(4, 6)), rng.normal(size=4)
        first = step(weights, bias)
        kept = [grad.copy() for grad in first[1:]]
        second = step(2.0 * weights, bias - 1.0)
        buffers = [v for v in vars(step).values() if isinstance(v, np.ndarray)]
        for grad in (*first[1:], *second[1:]):
            assert not any(np.shares_memory(grad, buffer) for buffer in buffers)
        for grad, copy in zip(first[1:], kept):
            assert grad.tobytes() == copy.tobytes()
        assert second[1].tobytes() != kept[0].tobytes()

    def test_divergence_at_the_reference_iteration(self):
        config = small_config()
        x_train, y_train, _, _, stats = make_dataset(config, 200, 20, seed=3)
        with np.errstate(all="ignore"):
            expected = reference_training(config, x_train, y_train,
                                          learning_rate=1e4, iterations=50, seed=3)
            with pytest.raises(pg.TrainingDivergedError) as info:
                pg.train_model(config, x_train, y_train, stats,
                               learning_rate=1e4, iterations=50, seed=3)
        assert isinstance(expected, int) and expected >= 1
        assert info.value.iteration == expected

    def test_empty_batch_rejected(self):
        config = small_config()
        stats = pg.NormStats(np.zeros(16), np.ones(16))
        with pytest.raises(ValueError, match="non-empty"):
            pg.train_model(config, np.zeros((0, 16)), np.zeros(0, dtype=int), stats)

    def test_non_finite_batch_rejected(self):
        config = small_config()
        x_train, y_train, _, _, stats = make_dataset(config, 40, 8, seed=4)
        x_train[3, 5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            pg.train_model(config, x_train, y_train, stats)

    def test_feature_beyond_float32_range_rejected(self):
        # finite as float64, inf once cast to the float32 training batch
        config = small_config()
        x_train, y_train, _, _, stats = make_dataset(config, 40, 8, seed=4)
        x_train = x_train.astype(np.float64)
        x_train[3, 5] = 1e39
        assert np.isfinite(x_train).all()
        with pytest.raises(ValueError, match="non-finite float32 features"):
            pg.train_model(config, x_train, y_train, stats)


def _train_one_step(x, y):
    config = small_config()
    pg.train_model(config, x, y, pg.NormStats(np.zeros(16), np.ones(16)),
                   iterations=1)


def _loss_and_gradient(x, y):
    pg.loss_and_gradient(np.zeros((4, 16)), np.zeros(4), x, y)


class TestLabelCheck:
    """Both entry points take labels only as 1-D integers in [0, C), one per
    row; C is 4 here."""

    @pytest.fixture
    def batch(self):
        x, y, *_ = make_dataset(small_config(), 40, 8, seed=4)
        return x, y

    @pytest.mark.parametrize("entry", [_train_one_step, _loss_and_gradient])
    @pytest.mark.parametrize("bad_label", [-1, 4])
    def test_label_out_of_range_rejected(self, batch, entry, bad_label):
        x, y = batch
        y[7] = bad_label
        with pytest.raises(ValueError, match=r"in \[0, 4\)"):
            entry(x, y)

    @pytest.mark.parametrize("entry", [_train_one_step, _loss_and_gradient])
    @pytest.mark.parametrize("reshape", [
        lambda y: y.astype(float),
        lambda y: y.astype(bool),
        lambda y: y[:-1],
        lambda y: y[:, None],
    ], ids=["float", "bool", "one_short", "2d"])
    def test_labels_not_one_integer_per_row_rejected(self, batch, entry, reshape):
        x, y = batch
        with pytest.raises(ValueError, match="1-D integers"):
            entry(x, reshape(y))

    @pytest.mark.parametrize("entry", [_train_one_step, _loss_and_gradient])
    def test_every_class_accepted(self, batch, entry):
        x, y = batch
        assert set(y) == {0, 1, 2, 3}
        entry(x, y.astype(np.uint8))


# criterion 8's data sets (seeds 0-4) after seed 16's, whose cases keep their ids
FACTORY_BATCHES = [(label, 16) for label in pg.SCENARIOS] + [
    (label, seed) for seed in range(5) for label in pg.SCENARIOS]


class TestTraining:
    def test_loss_non_increasing(self):
        config = small_config()
        x_train, y_train, _, _, stats = make_dataset(config, 500, 100, seed=7)
        _, history = pg.train_model(config, x_train, y_train, stats, seed=7)
        diffs = np.diff(history)
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("label, seed", FACTORY_BATCHES, ids=[
        label if seed == 16 else f"{label}-{seed}" for label, seed in FACTORY_BATCHES])
    def test_loss_non_increasing_on_the_factory_batch(self, label, seed):
        # heavy-ball momentum can overshoot and oscillate; at the default
        # rate and step count it does not, on the factory's batch size, over
        # criterion 8's data sets (seeds 0-4) and one more
        config = pg.PilotConfig.for_scenario(label, seed=seed)
        x_train, y_train, _, _, stats = make_dataset(config, pg.DEFAULT_N_TRAIN,
                                                     10, seed=seed)
        _, history = pg.train_model(config, x_train, y_train, stats, seed=seed)
        assert len(history) == pg.DEFAULT_ITERATIONS
        assert np.all(np.diff(history) <= 1e-12)

    def test_deterministic_weights(self):
        config = small_config()
        x_train, y_train, _, _, stats = make_dataset(config, 300, 50, seed=8)
        m1, _ = pg.train_model(config, x_train, y_train, stats, seed=8)
        m2, _ = pg.train_model(config, x_train, y_train, stats, seed=8)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.bias, m2.bias)

    def test_default_scenario_train_accuracy(self):
        config = pg.PilotConfig.for_scenario("10 MHz", seed=0)
        x_train, y_train, _, _, stats = make_dataset(config, seed=0)
        model, _ = pg.train_model(config, x_train, y_train, stats, seed=0)
        assert pg.accuracy(model, x_train, y_train) >= 0.98

    def test_accuracy_on_float32_features_makes_no_float64_copy(self):
        config = pg.PilotConfig.for_scenario("40 MHz", seed=0)
        x, y, _, _, stats = make_dataset(config, 5000, 10, seed=0)
        model, _ = pg.train_model(config, x, y, stats, seed=0, iterations=1)
        assert x.dtype == np.float32 and x.shape == (5000, 128)
        tracemalloc.start()
        try:
            pg.accuracy(model, x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a float64 (n, K) copy alone would be 5.1 MB; the (n, C) logits are 0.1 MB
        assert peak < 1 << 20


@pytest.fixture(scope="module")
def predict_model():
    config = small_config()
    x_train, y_train, _, _, stats = make_dataset(config, 1000, 100, seed=9)
    model, _ = pg.train_model(config, x_train, y_train, stats, seed=9)
    return model


@pytest.fixture(scope="module")
def codec_model():
    config = small_config()
    x_train, y_train, _, _, stats = make_dataset(config, 200, 40, seed=10)
    model, _ = pg.train_model(config, x_train, y_train, stats, seed=10)
    return model


@pytest.fixture(scope="module")
def trained_station():
    config = small_config()
    x_train, y_train, _, _, stats = make_dataset(config, 1000, 100, seed=11)
    model, _ = pg.train_model(config, x_train, y_train, stats, seed=11)
    return pg.BaseStation(model)


class TestPredict:
    @pytest.fixture
    def model(self, predict_model):
        return predict_model

    def test_clean_frame_classified_clean(self, model):
        frame = pg.generate_frame(model.pilot_config, 0,
                                  np.random.default_rng(1), noise_sigma=0.0)
        jam_class, probs = pg.predict(model, frame)
        assert jam_class == 0

    def test_probabilities_sum_to_one(self, model):
        frame = pg.generate_frame(model.pilot_config, 2,
                                  np.random.default_rng(2))
        _, probs = pg.predict(model, frame)
        assert abs(probs.sum() - 1.0) < 1e-9

    def test_dimension_mismatch(self, model):
        with pytest.raises(ValueError):
            pg.predict(model, np.ones(8))

    def test_prediction_survives_round_trip(self, model):
        restored = pg.decode_model(pg.encode_model(model))
        rng = np.random.default_rng(3)
        for jam_class in range(model.pilot_config.n_pilots + 1):
            frame = pg.generate_frame(model.pilot_config, jam_class, rng)
            cls_a, probs_a = pg.predict(model, frame)
            cls_b, probs_b = pg.predict(restored, frame)
            assert cls_a == cls_b
            assert np.allclose(probs_a, probs_b)


class TestModelCodec:
    @pytest.fixture
    def model(self, codec_model):
        return codec_model

    def test_bitwise_round_trip(self, model):
        restored = pg.decode_model(pg.encode_model(model))
        assert np.array_equal(restored.weights, model.weights)
        assert np.array_equal(restored.bias, model.bias)
        assert restored.pilot_config == model.pilot_config
        assert np.array_equal(restored.norm_stats.mean, model.norm_stats.mean)
        assert np.array_equal(restored.norm_stats.std, model.norm_stats.std)
        assert restored.seed == model.seed

    def test_flipped_byte_fails_checksum(self, model):
        blob = bytearray(pg.encode_model(model))
        blob[30] ^= 0xFF
        with pytest.raises(ChecksumError):
            pg.decode_model(bytes(blob))

    def test_bad_magic(self, model):
        blob = b"XXXX" + pg.encode_model(model)[4:]
        with pytest.raises(pg.BadMagicError):
            pg.decode_model(blob)

    def test_unknown_version(self, model):
        import struct, zlib
        blob = bytearray(pg.encode_model(model))[:-4]
        struct.pack_into(">H", blob, 4, 99)
        blob += struct.pack(">I", zlib.crc32(bytes(blob)))
        with pytest.raises(pg.UnknownVersionError):
            pg.decode_model(bytes(blob))

    @pytest.mark.parametrize("cut", ["label", "pilot indices"])
    def test_cut_with_valid_checksum(self, model, cut):
        import struct, zlib
        label_len = len(model.pilot_config.label.encode("utf-8"))
        end = 4 + 16 + (label_len - 2 if cut == "label" else label_len + 3)
        blob = bytearray(pg.encode_model(model))[:end]
        blob += struct.pack(">I", zlib.crc32(bytes(blob)))
        with pytest.raises(pg.ModelFormatError, match="truncated"):
            pg.decode_model(bytes(blob))

    def test_non_utf8_label(self, model):
        import struct, zlib
        blob = bytearray(pg.encode_model(model))[:-4]
        blob[20] = 0xFF  # first label byte
        blob += struct.pack(">I", zlib.crc32(bytes(blob)))
        with pytest.raises(pg.ModelFormatError, match="UTF-8"):
            pg.decode_model(bytes(blob))

    def test_blob_size_for_64_4(self):
        config = pg.PilotConfig.for_scenario("10 MHz", seed=1)
        x_train, y_train, _, _, stats = make_dataset(config, 50, 10, seed=1)
        model, _ = pg.train_model(config, x_train, y_train, stats, seed=1,
                                  iterations=1)
        blob = pg.encode_model(model)
        label_len = len("10 MHz")
        header = 4 + 16 + label_len + 2 * 4
        floats = 8 * (5 * 64 + 5 + 2 * 64)
        assert len(blob) == header + floats + 4  # + crc32


class TestPilotSelection:
    def test_disjoint_sorted_in_range(self):
        config = pg.PilotConfig.for_scenario("10 MHz", seed=2)
        jammed = config.pilot_indices[0]
        new = pg.select_new_pilots(config, jammed, seed=3)
        assert not set(new.pilot_indices) & set(config.pilot_indices)
        assert list(new.pilot_indices) == sorted(set(new.pilot_indices))
        assert new.n_pilots == config.n_pilots
        assert all(0 <= i < config.n_subcarriers for i in new.pilot_indices)

    def test_deterministic(self):
        config = pg.PilotConfig.for_scenario("20 MHz", seed=4)
        jammed = config.pilot_indices[1]
        assert pg.select_new_pilots(config, jammed, seed=5) == \
            pg.select_new_pilots(config, jammed, seed=5)

    def test_not_a_pilot_rejected(self):
        config = small_config()
        with pytest.raises(ValueError):
            pg.select_new_pilots(config, 0, seed=0)

    def test_insufficient_free_subcarriers(self):
        config = pg.PilotConfig(16, (4, 5, 6, 7, 8, 9, 10), "10 MHz")
        with pytest.raises(ValueError):
            pg.select_new_pilots(config, 4, seed=0)


class TestDetectLoop:
    @pytest.fixture
    def station(self, trained_station):
        return trained_station

    def test_clean_stream_no_events(self, station):
        rng = np.random.default_rng(20)
        frames = [pg.generate_frame(station.pilots, 0, rng) for _ in range(50)]
        assert station.detect_loop(frames) == []

    def test_three_consecutive_one_event(self, station):
        rng = np.random.default_rng(21)
        frames = [pg.generate_frame(station.pilots, 1, rng,
                                    noise_sigma=0.0) for _ in range(3)]
        events = station.detect_loop(frames)
        assert len(events) == 1
        assert events[0].jam_class == 1

    def test_two_jammed_then_clean_no_event(self, station):
        rng = np.random.default_rng(22)
        frames = [
            pg.generate_frame(station.pilots, 1, rng, noise_sigma=0.0),
            pg.generate_frame(station.pilots, 1, rng, noise_sigma=0.0),
            pg.generate_frame(station.pilots, 0, rng, noise_sigma=0.0),
        ]
        assert station.detect_loop(frames) == []

    def test_sustained_jam_fires_once(self, station):
        rng = np.random.default_rng(23)
        frames = [pg.generate_frame(station.pilots, 2, rng,
                                    noise_sigma=0.0) for _ in range(10)]
        assert len(station.detect_loop(frames)) == 1


class TestSwapAtomicity:
    def test_concurrent_readers_never_see_mixed_pair(self):
        config = small_config()
        x_train, y_train, _, _, stats = make_dataset(config, 200, 40, seed=12)
        model, _ = pg.train_model(config, x_train, y_train, stats, seed=12)
        station = pg.BaseStation(model)
        stop = threading.Event()
        violations = []

        def reader():
            while not stop.is_set():
                observed_model, observed_pilots = snapshot(station)
                if observed_model.pilot_config is not observed_pilots:
                    violations.append((observed_model, observed_pilots))
                time.sleep(0)  # yield the GIL, or install() waits for it

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        jammed = config.pilot_indices[0]
        current = config
        for i in range(50):
            current = pg.select_new_pilots(current, current.pilot_indices[0],
                                           seed=i)
            x, y, _, _, s = make_dataset(current, 50, 10, seed=i)
            next_model, _ = pg.train_model(current, x, y, s, seed=i,
                                           iterations=1)
            station.install(next_model)
        stop.set()
        for t in threads:
            t.join()
        assert violations == []


class TestModelRequestCodec:
    def test_k_above_every_scenario_refused(self):
        # a build allocates (n, K) arrays, and the factory keeps them
        assert max(k for k, _ in pg.SCENARIOS.values()) == 128
        accepted = pg.encode_model_request(pg.PilotConfig(128, (20,), "x"), 1)
        assert pg.decode_model_request(accepted)[0].n_subcarriers == 128
        refused = pg.encode_model_request(pg.PilotConfig(129, (20,), "x"), 1)
        with pytest.raises(pg.ModelFormatError, match="K=129"):
            pg.decode_model_request(refused)

    def test_label_over_65535_bytes_refused(self):
        # the artifact carries the label's length as u16
        accepted = pg.encode_model_request(pg.PilotConfig(64, (20,), "x" * 0xFFFF), 1)
        assert len(pg.decode_model_request(accepted)[0].label) == 0xFFFF
        refused = pg.encode_model_request(pg.PilotConfig(64, (20,), "x" * 0x10000), 1)
        with pytest.raises(pg.ModelFormatError, match="65536 B label"):
            pg.decode_model_request(refused)


class TestModelFactoryService:
    @pytest.mark.parametrize("label, seed, crc, accuracies", [
        ("10 MHz", 21, 0x43D17796, (1.0, 0.9666666666666667)),
        ("20 MHz", 22, 0x74CD0918, (1.0, 0.95)),
        ("40 MHz", 23, 0x2BBC7A6A, (1.0, 0.9166666666666666)),
    ], ids=list(pg.SCENARIOS))
    def test_golden_models(self, label, seed, crc, accuracies):
        # recorded on the float32 data set drawn with the float32 Box-Muller
        # normals, with 20 heavy-ball steps at learning rate 0.5 in float32
        # and the seeds that derive_seed makes:
        # a change to the factory's output must fail here (the tests'
        # oracles say whether it is meant)
        link = types.SimpleNamespace(subscribe=lambda topic: None)
        factory = pg.ModelFactoryService(link, n_train=300, n_test=60)
        model, _ = factory.build_model(pg.PilotConfig.for_scenario(label, seed), seed)
        assert zlib.crc32(pg.encode_model(model)) == crc
        assert factory.last_accuracies == accuracies

    def test_a_build_does_not_depend_on_the_factory_s_earlier_builds(self):
        link = types.SimpleNamespace(subscribe=lambda topic: None)
        kept = pg.ModelFactoryService(link, n_train=300, n_test=60)
        for label in ("40 MHz", "10 MHz", "20 MHz"):  # K 128, then 64, then 128
            pilots = pg.PilotConfig.for_scenario(label, 9)
            model, _ = kept.build_model(pilots, 9)
            fresh = pg.ModelFactoryService(link, n_train=300, n_test=60)
            expected, _ = fresh.build_model(pilots, 9)
            assert pg.encode_model(model) == pg.encode_model(expected)
            assert kept.last_accuracies == fresh.last_accuracies

    def test_a_build_allocates_its_data_set_and_little_more(self):
        link = types.SimpleNamespace(subscribe=lambda topic: None)
        factory = pg.ModelFactoryService(link)
        pilots = pg.PilotConfig.for_scenario("40 MHz", 3)
        tracemalloc.start()
        try:
            factory.build_model(pilots, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the float32 training and test powers, which train_model trains on
        # as they are: 2.9 MiB at K = 128. What is left is the draw's float32
        # uniforms and temporaries, the sum's float64 block, the step's (n, C)
        # buffers and the checks' and accuracies' temporaries
        n, k = factory.n_train + factory.n_test, pilots.n_subcarriers
        assert peak < n * k * 4 + (2 << 20)

    def test_malformed_payload_does_not_stop_the_service(self, broker):
        config = small_config()
        stop = threading.Event()
        with LinkEndpoint("dt", broker.host, broker.port) as dt_link, \
             LinkEndpoint("bs", broker.host, broker.port) as bs_link:
            factory = pg.ModelFactoryService(dt_link, n_train=100, n_test=20)
            bs_link.subscribe(pg.TOPIC_DT_MODEL_ARTIFACT)
            worker = threading.Thread(target=factory.run, args=(stop,), daemon=True)
            worker.start()
            try:
                for bad in (b"{}", b"[1, 2]", b'{"K": 16, "pilot_indices": [99],'
                            b' "scenario_label": "x", "seed": 1}',
                            struct.pack(">HQ", 16, 1),  # the >HQH header cut short
                            struct.pack(">HQHH", 16, 1, 1, 16) + b"x",  # pilot index = K
                            struct.pack(">HQH", 16, 1, 0) + b"\xff"):  # label not UTF-8
                    bs_link.publish_envelope(pg.TOPIC_DT_MODEL_REQUEST, "ModelRequest", bad)
                bs_link.publish_envelope(pg.TOPIC_DT_MODEL_REQUEST, "ModelRequest",
                                         pg.encode_model_request(config, 7))
                envelope = bs_link.poll_envelope(timeout=10.0)
            finally:
                stop.set()
                worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert envelope is not None and envelope.kind == "ModelArtifactMsg"
        assert pg.decode_model(envelope.payload).pilot_config == config
        assert dt_link.decode_errors == 6

    def test_over_long_label_is_dropped_before_the_build(self, broker):
        # its artifact could not carry the label's length as u16
        config = small_config()
        with LinkEndpoint("dt", broker.host, broker.port) as dt_link, \
             LinkEndpoint("bs", broker.host, broker.port) as bs_link:
            factory = pg.ModelFactoryService(dt_link, n_train=100, n_test=20)
            built, build_model = [], factory.build_model

            def counted_build(pilots, seed):
                built.append(pilots)
                return build_model(pilots, seed)

            factory.build_model = counted_build
            bs_link.subscribe(pg.TOPIC_DT_MODEL_ARTIFACT)
            with factory.serving():
                long_label = pg.PilotConfig(16, (4, 7, 10), "x" * 70_000)
                for pilots in (long_label, config):
                    bs_link.publish_envelope(pg.TOPIC_DT_MODEL_REQUEST, "ModelRequest",
                                             pg.encode_model_request(pilots, 7))
                envelope = bs_link.poll_envelope(timeout=10.0)
        assert envelope is not None and envelope.kind == "ModelArtifactMsg"
        assert pg.decode_model(envelope.payload).pilot_config == config
        assert dt_link.decode_errors == 1
        assert built == [config]

    def test_diverged_build_does_not_stop_the_service(self, broker, monkeypatch,
                                                      caplog):
        config = small_config()
        train_model, calls = pg.train_model, []

        def diverge_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise pg.TrainingDivergedError(3)
            return train_model(*args, **kwargs)

        monkeypatch.setattr(pg, "train_model", diverge_once)
        with LinkEndpoint("dt", broker.host, broker.port) as dt_link, \
             LinkEndpoint("bs", broker.host, broker.port) as bs_link:
            factory = pg.ModelFactoryService(dt_link, n_train=100, n_test=20)
            bs_link.subscribe(pg.TOPIC_DT_MODEL_ARTIFACT)
            with factory.serving():
                for seed in (7, 8):
                    bs_link.publish_envelope(pg.TOPIC_DT_MODEL_REQUEST, "ModelRequest",
                                             pg.encode_model_request(config, seed))
                envelope = bs_link.poll_envelope(timeout=10.0)
        assert envelope is not None and envelope.kind == "ModelArtifactMsg"
        assert pg.decode_model(envelope.payload).seed == 8
        assert dt_link.decode_errors == 0  # the request itself decoded
        assert "training loss became non-finite at iteration 3" in caplog.text


def _child_seeds(seed: int, *path: int, n: int = 1) -> list[int]:
    """The per-cycle seeds of perfbench's workloads (``perfbench/workloads.py``)."""
    return [int(s) for s in np.random.SeedSequence([seed, *path]).generate_state(n)]


@pytest.mark.parametrize("seed", range(1, 9))
def test_redeploy_cycles_detect_the_jam_before_and_after_the_swap(seed):
    # perfbench's pilot-redeploy checks over a session's first round, one
    # cycle per scenario, without the broker: a model change that breaks
    # detection must fail here, not only in the benchmark
    factory = pg.ModelFactoryService(types.SimpleNamespace(subscribe=lambda topic: None))
    for cycle, label in enumerate(pg.SCENARIOS):
        s_pilots, s_boot, s_frames, s_relocate, s_build = _child_seeds(
            seed, 6, 0, cycle, n=5)
        pilots = pg.PilotConfig.for_scenario(label, s_pilots)
        station = pg.BaseStation(factory.build_model(pilots, s_boot)[0])
        rng = np.random.default_rng(s_frames)
        for _ in range(20):  # the clean frames, whose false alarms are not failures
            pg.generate_frame(pilots, 0, rng)
        jammed = [pg.generate_frame(pilots, 1, rng) for _ in range(5)]
        assert [e.jam_class for e in station.detect_loop(jammed)] == [1], label
        new_pilots = pg.select_new_pilots(pilots, pilots.pilot_indices[0],
                                          seed=s_relocate)
        station.install(factory.build_model(new_pilots, s_build)[0])
        relocated = [pg.generate_frame(new_pilots, 1, rng) for _ in range(5)]
        assert [e.jam_class for e in station.detect_loop(relocated)] == [1], label


class TestRedeployPipeline:
    def test_timeout_bounds_the_wait(self, broker, trained_station):
        config = small_config()
        with LinkEndpoint("dt", broker.host, broker.port) as dt_link, \
             LinkEndpoint("bs", broker.host, broker.port) as bs_link:
            factory = pg.ModelFactoryService(dt_link)  # never served
            bs_link.subscribe(pg.TOPIC_DT_MODEL_ARTIFACT)
            new_pilots = pg.select_new_pilots(config, config.pilot_indices[0])
            model = trained_station.model
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                pg.run_redeploy_pipeline(trained_station, bs_link, factory,
                                         new_pilots, seed=1, timeout=0.1)
            elapsed = time.monotonic() - start
        assert elapsed < 0.3
        assert trained_station.model is model
