"""Reproducible random number streams.

All stochastic sampling in the simulator goes through numpy's PCG64
generator so that a (seed, stream tag) pair yields the same draw
sequence on every platform.  Reports record GENERATOR_NAME plus the
seed so a run can be reproduced from its output alone.
"""

from __future__ import annotations

import hashlib

import numpy as np

GENERATOR_NAME = "numpy-pcg64"

_MASK64 = (1 << 64) - 1


def h64(tag: str) -> int:
    """First eight bytes (little-endian) of SHA-256 over the UTF-8 tag."""
    return int.from_bytes(hashlib.sha256(tag.encode("utf-8")).digest()[:8], "little")


def _seed_sequence(seed: int, tag: str, spawn_key: tuple = ()) -> np.random.SeedSequence:
    """Pure in (seed, tag), which enter as two words: no XOR lets pairs collide."""
    return np.random.SeedSequence([seed & _MASK64, h64(tag)], spawn_key=spawn_key)


def make_rng(seed: int, tag: str = "") -> np.random.Generator:
    """Build the canonical generator for a seed and optional stream tag."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, tag)))


def make_stream(seed: int, tag: str, i: int) -> np.random.Generator:
    """Child i of the (seed, tag) sequence: exactly the i-th of its spawn(n), n > i."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, tag, (i,))))


def make_streams(seed: int, tag: str, n: int) -> list[np.random.Generator]:
    """n independent generators spawned from the (seed, tag) sequence."""
    return [make_stream(seed, tag, i) for i in range(n)]
