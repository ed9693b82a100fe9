"""Named RNG streams and derived seeds from one root seed.

Shuffling, masking and synthetic-corpus generation each get their own named
stream, so toggling one cannot shift the draws of another. Other consumers
(initialisation, dropout, split assignment, synth runs) take a scalar seed
from ``derive_seed`` under their own integer keys."""

from __future__ import annotations

import numpy as np

_MASK = (1 << 63) - 1

STREAM_IDS = {
    "shuffle": 1,
    "masking": 2,
    "synth": 5,
}


def stream(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed & _MASK, STREAM_IDS[name]])


def derive_seed(seed: int, *keys: int) -> int:
    """Stable scalar seed from a root seed plus integer context keys."""
    entropy = [seed & _MASK] + [int(k) & _MASK for k in keys]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
