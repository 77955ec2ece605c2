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
from .machine import BusModel, IrqLine, bus_load

LATTICE_US = 0.0625  # 62.5 ns timer resolution


def quantize_62_5ns(t_us: float) -> float:
    """Snap a latency to the nearest lattice point; ties round up."""
    if t_us < 0:
        raise InvariantViolation("cannot quantize a negative time")
    return math.floor(t_us / LATTICE_US + 0.5) * LATTICE_US


def sample_latency(vmm_on: bool, stressed: bool, bus: BusModel, rng) -> float:
    """Draw one measured latency in microseconds.

    latency = base + H[vmm on] + C[vmm on and stressed, with probability
    contention_prob], observed through jitter and quantization when the
    bus model has them enabled. Consumes rng draws in a fixed order, so
    equal seeds give bit-identical streams.
    """
    latency = bus.base_latency_us
    if vmm_on:
        latency += bus.hv_overhead.draw(rng)
        if stressed and rng.random() < bus.contention_prob:
            latency += bus.contention.draw(rng)
    if bus.phase_jitter_enabled:
        latency += rng.random() * LATTICE_US - LATTICE_US / 2
    if bus.quantize_enabled:
        latency = quantize_62_5ns(max(latency, 0.0))
    return latency


class IrqPath:
    BARE_METAL = "bare-metal"
    REINJECTED = "reinjected"


@dataclass(frozen=True, slots=True)
class IrqDelivery:
    line: int
    owner: int
    raised_at: int
    delivered_at: int
    latency_us: float
    path: str

    def __post_init__(self):
        if self.delivered_at < self.raised_at:
            raise InvariantViolation("delivery before raise")
        # timestamps are whole ns, so allow half an ns of rounding
        if abs((self.delivered_at - self.raised_at) - self.latency_us * 1000.0) > 0.5:
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


def raise_irq(hv: Hypervisor, line: int, t: int, rng) -> IrqDelivery:
    """Deliver one interrupt raised at absolute time t ns.

    Disabled hypervisor: the line fires straight into the machine
    (bare-metal path, no trap). Enabled: the owning running cell gets a
    reinjected virtual IRQ and an IrqReinjection event is logged at the
    raise time. A line owned by a non-running cell is spurious: it logs
    a violation-class event and nothing is delivered.
    """
    if line not in hv.platform.irq_numbers:
        raise NoSuchLine("platform has no irq line %d" % line)
    bus = hv.platform.bus

    if not hv.enabled:
        latency = sample_latency(False, False, bus, rng)
        delivered = t + math.floor(latency * 1000.0 + 0.5)
        hv.clock = max(hv.clock, t)
        return IrqDelivery(line, ROOT_CELL, t, delivered, latency, IrqPath.BARE_METAL)

    owner = hv.ledger.owner_of_unit(IrqLine(line))
    cell = hv.cells[owner]
    if cell.state is not CellState.RUNNING:
        hv._log(TrapKind.ACCESS_VIOLATION, owner,
                "spurious irq line %d" % line, time_ns=t)
        raise UnownedIrq(
            "line %d owned by cell %d in state %s" % (line, owner, cell.state.value))
    latency = sample_latency(True, bus_load(hv, cell), bus, rng)
    delivered = t + math.floor(latency * 1000.0 + 0.5)
    hv.clock = max(hv.clock, t)
    hv._log(TrapKind.IRQ_REINJECTION, owner, "line %d" % line, time_ns=t)
    return IrqDelivery(line, owner, t, delivered, latency, IrqPath.REINJECTED)


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
