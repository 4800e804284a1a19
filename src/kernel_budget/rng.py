"""Counter-based random number streams.

All randomness in this package flows through Philox, a named counter-based
64-bit generator, keyed by a user seed plus a string label. Distinct labels
give statistically independent streams from the same seed, so instance
generation and algorithm-internal randomness never share a stream:

    gen = stream(seed, "gen-kkmc")       # instance draws
    alg = stream(seed, "recover-labels") # algorithm randomness

Same (seed, labels) always yields the same stream.
"""

from __future__ import annotations

import zlib

import numpy as np


def _label_word(label) -> int:
    return zlib.crc32(str(label).encode("utf-8"))


def stream(seed: int, *labels) -> np.random.Generator:
    """Independent Philox stream for (seed, labels)."""
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    key = tuple(_label_word(lab) for lab in labels)
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
