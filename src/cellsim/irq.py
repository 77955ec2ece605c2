"""Interrupt routing and the calibrated latency model.

With the hypervisor disabled, interrupts reach the guest directly; with
it enabled they are reinjected as virtual IRQs, paying a hypervisor
overhead plus, under neighbouring load, an occasional shared-bus
contention penalty. Measured latencies pass through the measurement
layer: uniform phase jitter of half a timer tick either way, then
quantization to the 62.5 ns timer lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, NoSuchLine, NoSuchResource, UnownedIrq
from .hvcore import (
    ROOT_CELL,
    Access,
    AccessKind,
    AccessOutcome,
    CellState,
    Hypervisor,
    TrapKind,
)
from .machine import BusModel, DistParams, IrqLine, bus_load
from .rng import make_streams

LATTICE_US = 0.0625  # 62.5 ns timer resolution


def quantize_62_5ns(t_us):
    """Snap a latency or an array to the nearest lattice point; ties round up."""
    if (t_us < 0).any() if isinstance(t_us, np.ndarray) else t_us < 0:
        raise InvariantViolation("cannot quantize a negative time")
    return (t_us / LATTICE_US + 0.5) // 1 * LATTICE_US  # // 1 floors floats and arrays alike


def latency_streams(seed: int, tag: str = "") -> tuple:
    """The four component streams of the latency model, in order:
    overhead, contention trigger, contention size, phase jitter."""
    return tuple(make_streams(seed, tag, 4))


def draw(params: DistParams, rng, size=None):
    """One draw of shift_us + exp(N(log_mu, log_sigma)) as a float, or size
    draws as an array. Both use np.exp, so a batch equals as many single
    draws (math.exp can differ by an ulp)."""
    grown = np.exp(params.log_mu + params.log_sigma * rng.standard_normal(size))
    return params.shift_us + (float(grown) if size is None else grown)


def sample_latency(vmm_on: bool, stressed: bool, bus: BusModel, streams,
                   size=None):
    """Draw one measured latency in microseconds, or an array of size.

    latency = base + H[vmm on] + C[vmm on and stressed, with probability
    contention_prob], observed through jitter and quantization when the
    bus model has them enabled, and never below 0. Each active component
    takes one draw per sample from its own stream (the contention size even
    when the trigger does not fire), so a batch of n equals n single calls.
    """
    overhead, trigger, contention, jitter = streams
    latency = bus.base_latency_us if size is None else np.full(size, bus.base_latency_us)
    if vmm_on:
        latency = latency + draw(bus.hv_overhead, overhead, size)
        if stressed:
            fires = trigger.random(size) < bus.contention_prob
            latency = latency + draw(bus.contention, contention, size) * fires
    if bus.phase_jitter_enabled:
        latency = latency + (jitter.random(size) * LATTICE_US - LATTICE_US / 2)
    latency = max(latency, 0.0) if size is None else np.maximum(latency, 0.0)
    return quantize_62_5ns(latency) if bus.quantize_enabled else latency


@dataclass(frozen=True, eq=False)
class IrqDeliveries:
    """One line's deliveries: path "bare-metal" or "reinjected", times (ns), latencies (us)."""
    line: int
    owner: int
    path: str
    raised_at: np.ndarray
    delivered_at: np.ndarray
    latency_us: np.ndarray

    def __post_init__(self):
        span = self.delivered_at - self.raised_at
        if (span < 0).any():
            raise InvariantViolation("delivery before raise")
        # timestamps are whole ns, so allow half an ns of rounding
        if (np.abs(span - self.latency_us * 1000.0) > 0.5).any():
            raise InvariantViolation("timestamps disagree with latency")


@dataclass(frozen=True)
class Scenario:
    vmm_on: bool
    freq_hz: float
    stress: bool
    n_samples: int
    seed: int

    def __post_init__(self):
        if not (self.freq_hz > 0 and math.isfinite(self.freq_hz)):
            raise InvariantViolation("freq_hz must be positive and finite")
        if self.n_samples < 1:
            raise InvariantViolation("n_samples must be at least 1")
        if self.seed < 0:
            raise InvariantViolation("seed must be non-negative")

    def tag(self) -> str:
        """Stream tag; a function of the scenario settings, not of any
        position in a scenario list."""
        return "scenario vmm=%d freq=%r stress=%d" % (
            self.vmm_on, float(self.freq_hz), self.stress)


@dataclass(frozen=True)
class LatencyStats:
    mean_us: float
    sigma_us: float
    max_us: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvariantViolation("stats need at least one sample")
        if self.mean_us < 0 or self.sigma_us < 0:
            raise InvariantViolation("negative latency statistics")
        # tiny slack: float summation can push a constant-sample mean
        # a few ulps past the maximum
        if self.mean_us > self.max_us * (1 + 1e-12) + 1e-15:
            raise InvariantViolation("mean exceeds maximum")


def raise_irq(hv: Hypervisor, line: int, t: int, streams) -> IrqDeliveries:
    """raise_irqs with the one raise time t ns."""
    return raise_irqs(hv, line, [t], streams)


def raise_irqs(hv: Hypervisor, line: int, times, streams) -> IrqDeliveries:
    """Deliver one interrupt per raise time (ns), routed once.

    Disabled hypervisor: the line fires straight into the machine (no
    trap). Enabled: the owning running cell gets a reinjected virtual IRQ
    per raise, each adding one to its IrqReinjection exit counter; no
    event is logged, as the returned arrays hold every raise and delivery
    time. A line owned by a non-running cell is spurious: a
    violation-class event is logged at the first raise time and nothing
    is delivered.
    """
    raised = np.asarray(times, dtype=np.int64)
    if raised.ndim != 1 or raised.size == 0:
        raise InvariantViolation("raise_irqs needs a non-empty sequence of raise times")
    if line not in hv.platform.irq_numbers:
        raise NoSuchLine("platform has no irq line %d" % line)
    owner, path, stressed = ROOT_CELL, "bare-metal", False
    if hv.enabled:
        owner = hv.ledger.owner_of_unit(IrqLine(line))
        cell = hv.cells[owner]
        if cell.state is not CellState.RUNNING:
            hv._log(TrapKind.ACCESS_VIOLATION, owner,
                    "spurious irq line %d" % line, time_ns=int(raised[0]))
            raise UnownedIrq(
                "line %d owned by cell %d in state %s" % (line, owner, cell.state.value))
        path, stressed = "reinjected", bus_load(hv, cell)
    latency = sample_latency(hv.enabled, stressed, hv.platform.bus, streams,
                             size=raised.size)
    delivered = raised + np.floor(latency * 1000.0 + 0.5).astype(np.int64)
    hv.clock = max(hv.clock, int(raised.max()))
    if hv.enabled:
        hv._count(TrapKind.IRQ_REINJECTION, owner, raised.size)
    return IrqDeliveries(line, owner, path, raised, delivered, latency)


def distributor_access(hv: Hypervisor, cell_id: int, offset: int) -> AccessOutcome:
    """Access the virtualized interrupt distributor at a byte offset.

    Offsets inside the window are always emulated and counted per cell;
    an offset past the window falls through to the plain access check
    and violates like any other bad address.
    """
    window = hv.platform.gic_dist_window
    if window is None:
        raise NoSuchResource("platform has no gic-dist window")
    if offset < 0:
        raise InvariantViolation("negative distributor offset")
    return hv.handle_access(
        cell_id, Access(AccessKind.MEM_WRITE, window.base + offset, 4))
