"""Reproducible random number streams.

All stochastic sampling in the simulator goes through numpy's PCG64
generator so that a (seed, stream tag) pair yields the same draw
sequence on every platform.  Reports record GENERATOR_NAME plus the
seed so a run can be reproduced from its output alone.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvariantViolation
from .machine import U64_MAX

GENERATOR_NAME = "numpy-pcg64"


def h64(tag: str) -> int:
    """First eight bytes (little-endian) of SHA-256 over the UTF-8 tag."""
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "little")


def entropy_words(seed: int, h: int) -> np.ndarray:
    """[seed, h] as the uint32 words SeedSequence makes of it: no XOR or mask lets two collide."""
    if not 0 <= seed <= U64_MAX:
        raise InvariantViolation("seed %d outside [0, 2^64)" % seed)
    return np.array([n >> shift & 0xFFFFFFFF for n in (seed, h)  # least significant first,
                     for shift in range(0, n.bit_length() or 1, 32)], np.uint32)  # >= 1 each


def pcg64(words, spawn_key: tuple = ()) -> np.random.Generator:  # key (i,): spawn's child i
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words, spawn_key=spawn_key)))


def make_rng(seed: int, tag: str = "") -> np.random.Generator:
    """Build the canonical generator for a seed and optional stream tag."""
    return pcg64(entropy_words(seed, h64(tag)))
