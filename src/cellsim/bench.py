"""Scenario runner and statistics for the interrupt-latency benchmark.

A scenario periodically raises a GPIO-style interrupt against a fresh
machine, with or without the hypervisor underneath, and summarizes the
measured latencies as mean, population standard deviation and maximum.
The six canonical scenarios sweep vmm off/on, 10/50 Hz, and an
optionally stressed neighbour cell.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._value import Value
from .cellconfig import CellConfig, Workload, WorkloadKind
from .errors import EmptyCpuSet, EmptySamples, NoSuchLine, OutOfRegion
from .hvcore import Hypervisor
from .irq import IrqDeliveries, LatencyStats, Scenario, latency_streams, raise_irqs
from .machine import MachinePlatform, MemRegion
from .rng import GENERATOR_NAME

RESPONDER_BYTES = 0x100000  # 1 MiB per benchmark cell


class BenchReport(Value):
    __slots__ = ("rows", "platform_name")

    def __init__(self, rows: tuple, platform_name: str = ""):
        self._freeze(rows, platform_name)


def full_platform_config(platform: MachinePlatform) -> CellConfig:
    """Config claiming every platform resource; the usual root config."""
    return CellConfig(
        name="root", cpus=frozenset(c.index for c in platform.cpus), mem=platform.mem_regions,
        devices=platform.mmio_devices + platform.pci_devices + platform.io_port_ranges,
        irqs=platform.irq_numbers)


def _bench_cell(platform: MachinePlatform, index: int, name: str, kind: WorkloadKind,
                irqs: frozenset = frozenset()) -> CellConfig:
    """The index-th benchmark cell: the index-th CPU and 1 MiB window of RAM,
    each counting down from the top, so that the root cell keeps the rest."""
    host = platform.mem_regions[-1]
    base = host.end - RESPONDER_BYTES * (index + 1)
    if base < host.base:
        raise OutOfRegion("platform RAM too small for the benchmark cells")
    if index >= len(platform.cpus):
        raise EmptyCpuSet("platform has too few CPUs for the benchmark cells")
    return CellConfig(name=name, cpus=frozenset({len(platform.cpus) - 1 - index}),
                      mem=(MemRegion(base, RESPONDER_BYTES, host.flags),), irqs=irqs,
                      workload=Workload(kind))


def responder_config(platform: MachinePlatform, line: int) -> CellConfig:
    return _bench_cell(platform, 0, "responder", WorkloadKind.LATENCY_RESPONDER, frozenset({line}))


def stress_config(platform: MachinePlatform) -> CellConfig:
    return _bench_cell(platform, 1, "stress", WorkloadKind.STRESS)


@lru_cache(maxsize=24)
def _row_setup(platform: MachinePlatform, vmm_on: bool, stress: bool) -> tuple:
    """A row's line and the configs it enables and creates, in order, built once
    per equal platform (an id() can name a new platform after a collection)."""
    if not platform.irq_numbers:
        raise NoSuchLine("platform has no irq lines to raise")
    line = min(platform.irq_numbers)
    if not vmm_on:
        return line, ()
    if stress:
        return line, _row_setup(platform, True, False)[1] + (stress_config(platform),)
    return line, (full_platform_config(platform), responder_config(platform, line))


def run_scenario(platform: MachinePlatform, sc: Scenario) -> tuple[LatencyStats, IrqDeliveries]:
    """Run one scenario on a fresh hypervisor instance.

    Pure in (platform, sc): the RNG streams derive from sc.seed and the
    scenario settings, so reruns are bit-identical and scenarios can be
    run in any order or in parallel.
    """
    line, configs = _row_setup(platform, sc.vmm_on, sc.stress)
    hv = Hypervisor(platform, seed=sc.seed)
    if configs:
        hv.enable(configs[0])
    for cfg in configs[1:]:
        hv.start_cell(hv.create_cell(cfg))
    times = np.arange(sc.n_samples, dtype=np.int64)
    times *= sc.period_ns  # in place; an arange up to n * period would size itself in floats
    deliveries = raise_irqs(hv, line, times, latency_streams(sc.seed, sc.tag()))
    return _moments(deliveries.latency_us, deliveries.max_us), deliveries


def summarize(samples) -> LatencyStats:
    """Mean, population standard deviation (ddof=0), and maximum."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise EmptySamples("cannot summarize zero samples")
    top = float(arr.max())  # a NaN or an infinity reaches the max or the min
    if not (math.isfinite(top) and math.isfinite(arr.min())):
        raise EmptySamples("samples must be finite")
    return _moments(arr, top)


def _moments(arr: np.ndarray, top: float) -> LatencyStats:
    """Stats of finite samples with maximum top: arr.mean()'s and arr.std()'s steps, bit for bit."""
    mean = arr.sum() / arr.size
    dev = arr - mean
    dev *= dev
    return LatencyStats(mean_us=float(mean), sigma_us=math.sqrt(dev.sum() / arr.size),
                        max_us=top, n=int(arr.size))


def canonical_scenarios(n_samples=None, seed: int = 7) -> list[Scenario]:
    """The six benchmark rows: vmm off/on x 10/50 Hz x stress where on.

    n_samples=None reproduces the full four-hour runs (freq * 4 * 3600
    samples); pass an explicit count for desk-scale runs.
    """
    rows = [(False, 10.0, False), (False, 50.0, False),
            (True, 10.0, False), (True, 50.0, False),
            (True, 10.0, True), (True, 50.0, True)]
    return [Scenario(vmm_on, freq_hz, stress,
                     int(freq_hz * 4 * 3600) if n_samples is None else int(n_samples), seed)
            for vmm_on, freq_hz, stress in rows]


def run_report(platform: MachinePlatform, scenarios) -> BenchReport:
    scenarios = tuple(scenarios)
    for sc in scenarios:  # a board some row does not fit is refused before any row draws
        _row_setup(platform, sc.vmm_on, sc.stress)
    rows = tuple((sc, run_scenario(platform, sc)[0]) for sc in scenarios)
    return BenchReport(rows=rows, platform_name=platform.name)


def _row_head(sc: Scenario) -> tuple:
    """A row's first three columns: VMM on/off, frequency in Hz, stress yes/no."""
    return "on" if sc.vmm_on else "off", sc.freq_hz, "yes" if sc.stress else "no"


def _row_cells(sc: Scenario, stats: LatencyStats) -> tuple:
    vmm, freq_hz, stress = _row_head(sc)
    return (vmm, "%gHz" % freq_hz, stress, "%.2f" % stats.mean_us,
            "%.2f" % stats.sigma_us, "%.2f" % stats.max_us)


def render_table(report: BenchReport) -> str:
    """Fixed-width table of the report rows, values in microseconds."""
    headers = ("VMM", "Freq", "Stress", "mu", "sigma", "Max")
    rows = [_row_cells(sc, stats) for sc, stats in report.rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.rjust(w) if i >= 3 else c.ljust(w)
                               for i, (c, w) in enumerate(zip(row, widths))).rstrip())
    if rows:
        lines.append("")
        lines.append("# sigma is the population standard deviation (ddof=0)")
        lines.append("# platform: %s  rng: %s"
                     % (report.platform_name or "-", GENERATOR_NAME))
    return "\n".join(lines)


def export_csv(report: BenchReport) -> bytes:
    """UTF-8 CSV with 6-decimal values and LF line endings."""
    lines = ["vmm,freq_hz,stress,mean_us,sigma_us,max_us,n,seed"]
    for sc, stats in report.rows:
        lines.append("%s,%.6f,%s,%.6f,%.6f,%.6f,%d,%d" % (
            *_row_head(sc), stats.mean_us, stats.sigma_us, stats.max_us, stats.n, sc.seed))
    return ("\n".join(lines) + "\n").encode("utf-8")
