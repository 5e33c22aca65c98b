"""The one way twinet derives a seed from a caller's seed."""

from __future__ import annotations

import numpy as np


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for (``seed``, *``keys``), hashed by numpy's
    ``SeedSequence``: each key path gives a stream of its own."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])
