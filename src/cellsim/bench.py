"""Scenario runner and statistics for the interrupt-latency benchmark.

A scenario periodically raises a GPIO-style interrupt against a fresh
machine, with or without the hypervisor underneath, and summarizes the
measured latencies as mean, population standard deviation and maximum.
The six canonical scenarios sweep vmm off/on, 10/50 Hz, and an
optionally stressed neighbour cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cellconfig import CellConfig, Workload, WorkloadKind
from .errors import EmptySamples, NoSuchLine, OutOfRegion
from .hvcore import Hypervisor
from .irq import IrqDeliveries, LatencyStats, Scenario, latency_streams, raise_irqs
from .machine import MachinePlatform, MemRegion, PermFlags
from .rng import GENERATOR_NAME

RESPONDER_BYTES = 0x100000  # 1 MiB per benchmark cell
_RW = PermFlags.READ | PermFlags.WRITE


@dataclass(frozen=True)
class BenchReport:
    rows: tuple
    platform_name: str = ""


def full_platform_config(platform: MachinePlatform) -> CellConfig:
    """Config claiming every platform resource; the usual root config."""
    return CellConfig(
        name="root", cpus=frozenset(c.index for c in platform.cpus), mem=platform.mem_regions,
        devices=platform.mmio_devices + platform.pci_devices + platform.io_port_ranges,
        irqs=platform.irq_numbers)


def _bench_slice(platform: MachinePlatform, index: int) -> MemRegion:
    """The index-th 1 MiB window counting down from the top of RAM."""
    host = platform.mem_regions[-1]
    base = host.end - RESPONDER_BYTES * (index + 1)
    if base < host.base:
        raise OutOfRegion("platform RAM too small for the benchmark cells")
    return MemRegion(base, RESPONDER_BYTES, host.flags)


def responder_config(platform: MachinePlatform, line: int) -> CellConfig:
    cpu = max(c.index for c in platform.cpus)
    return CellConfig(
        name="responder", cpus=frozenset({cpu}),
        mem=(_bench_slice(platform, 0),), irqs=frozenset({line}),
        workload=Workload(WorkloadKind.LATENCY_RESPONDER))


def stress_config(platform: MachinePlatform) -> CellConfig:
    cpu = max(c.index for c in platform.cpus) - 1
    return CellConfig(
        name="stress", cpus=frozenset({cpu}),
        mem=(_bench_slice(platform, 1),),
        workload=Workload(WorkloadKind.STRESS))


def run_scenario(platform: MachinePlatform,
                 sc: Scenario) -> tuple[LatencyStats, IrqDeliveries]:
    """Run one scenario on a fresh hypervisor instance.

    Pure in (platform, sc): the RNG streams derive from sc.seed and the
    scenario settings, so reruns are bit-identical and scenarios can be
    run in any order or in parallel.
    """
    if not platform.irq_numbers:
        raise NoSuchLine("platform has no irq lines to raise")
    line = min(platform.irq_numbers)
    hv = Hypervisor(platform, seed=sc.seed)
    if sc.vmm_on:
        hv.enable(full_platform_config(platform))
        responder = hv.create_cell(responder_config(platform, line))
        hv.start_cell(responder)
        if sc.stress:
            neighbour = hv.create_cell(stress_config(platform))
            hv.start_cell(neighbour)

    times = np.arange(sc.n_samples, dtype=np.int64) * sc.period_ns
    deliveries = raise_irqs(hv, line, times, latency_streams(sc.seed, sc.tag()))
    return summarize(deliveries.latency_us), deliveries


def summarize(samples) -> LatencyStats:
    """Mean, population standard deviation (ddof=0), and maximum."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise EmptySamples("cannot summarize zero samples")
    top = float(arr.max())  # a NaN or an infinity reaches the max or the min
    if not (math.isfinite(top) and math.isfinite(arr.min())):
        raise EmptySamples("samples must be finite")
    mean = arr.sum() / arr.size  # the steps of arr.mean() and then arr.std(),
    dev = arr - mean  # bit for bit, with one pass over the samples fewer
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
