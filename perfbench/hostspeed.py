"""Host speed index: a fixed reference kernel timed next to the workload.

The machines this benchmark runs on are shared, and their speed for the
same code drifts by tens of percent within a minute.  The kernel below
does the same kinds of interpreter work as the simulator (frozen
dataclasses with validation, isinstance scans over a resource tuple,
scalar PCG64 draws, struct packing, string formatting) but none of its
code, so no change to ``cellsim`` changes the kernel's time.

The harness runs the kernel between operations, at most every PACE_S
seconds, and before and after everything it times whole (a set-up
probe, a traced episode).  Each host time is scaled by REFERENCE_S /
kernel time: a figure is what the operation would have taken on a host
where the kernel takes REFERENCE_S.  The kernel time for an operation
is the median of the kernel runs within WINDOW_S of it, which follows
drift over seconds but not the jitter of a single kernel run.  The raw
times and the factors are kept in the results file.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import struct
import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.005  # about the kernel's time on a shared 2.0 GHz x86-64 VM core, CPython 3.11
PACE_S = 0.1  # least time between two kernel runs during a timed run
WINDOW_S = 0.5  # kernel runs this close to an operation set its factor


@dataclass(frozen=True)
class _Line:
    number: int


@dataclass(frozen=True)
class _Region:
    base: int
    size: int

    def __post_init__(self):
        if self.size <= 0 or self.base % 4096:
            raise ValueError("bad region")


@dataclass(frozen=True, slots=True)
class _Record:
    first: int
    last: int
    value: float

    def __post_init__(self):
        if self.last < self.first:
            raise ValueError("bad record")


_RESOURCES = tuple(_Line(n) for n in range(130)) + tuple(
    _Region(i * 4096, 4096) for i in range(8))
_PACK = struct.Struct("<QQI")


def _kernel(rounds: int = 150) -> float:
    rng = np.random.Generator(np.random.PCG64(12345))
    acc = 0.0
    kept = []
    table = {}
    for i in range(rounds):
        numbers = frozenset(r.number for r in _RESOURCES if isinstance(r, _Line))
        regions = tuple(r for r in _RESOURCES if isinstance(r, _Region))
        value = 0.45 + math.exp(-2.3 + 0.6 * rng.standard_normal())
        if rng.random() < 0.1:
            value += 1.0
        kept.append(_Record(i, i + 1, value))
        table[(i & 15, "key")] = len(numbers) + len(regions)
        buf = bytearray()
        for region in regions[:4]:
            buf += _PACK.pack(region.base, region.size, 3)
        acc += sum(_PACK.unpack_from(buf, 0)) + len("cell %d (%s) %x" % (i, "name", i))
    return acc


class Pacer:
    """Log of kernel runs: paced when called, forced by sample()."""

    def __init__(self):
        self.at: list[float] = []     # perf_counter() after each kernel run
        self.kernel: list[float] = []  # its time
        self._next = 0.0

    def __call__(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def sample(self) -> None:
        """Run the kernel once, with the cyclic collector off so that the
        program's live objects do not slow it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.at.append(end)
        self.kernel.append(end - start)
        self._next = end + PACE_S

    def timed(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) between two kernel runs; return its
        result, its start and its host seconds."""
        self.sample()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.sample()
        return result, start, elapsed

    def scales(self, op_start: list, op_s: list) -> list:
        """Reference-host factor for each operation."""
        factors = []
        for start, elapsed in zip(op_start, op_s):
            lo = bisect.bisect_left(self.at, start - WINDOW_S)
            hi = bisect.bisect_right(self.at, start + elapsed + WINDOW_S)
            near = self.kernel[lo:hi] or self.kernel[max(0, lo - 1):lo + 1]
            factors.append(REFERENCE_S / statistics.median(near))
        return factors
