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
from functools import partial

import numpy as np

from ._value import Value
from .errors import InvariantViolation, NoSuchLine, NoSuchResource, UnownedIrq
from .hvcore import (
    _MEM_WRITE,
    ROOT_CELL,
    Access,
    AccessOutcome,
    CellState,
    Hypervisor,
    TrapKind,
)
from .machine import BusModel, DistParams, bus_load
from .rng import make_stream

LATTICE_US = 0.0625  # 62.5 ns timer resolution


def quantize_62_5ns(t_us):
    """Snap a latency, or an array into one new array, to the lattice; ties round up."""
    batch = isinstance(t_us, np.ndarray)
    if (t_us.min(initial=0.0) if batch else t_us) < 0:
        raise InvariantViolation("cannot quantize a negative time")
    if not batch:
        return (t_us / LATTICE_US + 0.5) // 1 * LATTICE_US  # a float's // 1 is its floor
    snapped = t_us / LATTICE_US
    snapped += 0.5
    return np.multiply(np.floor(snapped, out=snapped), LATTICE_US, out=snapped)


class latency_streams:  # lower case like functools.partial: called as a function
    """The four component streams of the latency model, in order: overhead,
    contention trigger, contention size, phase jitter. Stream i is built when
    first indexed, so a row builds only the streams it draws from."""

    def __init__(self, seed: int, tag: str = ""):
        self.seed, self.tag, self.built = seed, tag, [None] * 4

    def __len__(self) -> int:
        return 4

    def __getitem__(self, i: int):
        if self.built[i] is None:  # past the end, the IndexError that ends an unpacking
            self.built[i] = make_stream(self.seed, self.tag, range(4)[i])
        return self.built[i]


def draw(params: DistParams, rng, size: int) -> np.ndarray:
    """size draws of shift_us + exp(N(log_mu, log_sigma)), built in one array.
    Draws are made in stream order, so two batches equal one batch of both sizes."""
    grown = rng.standard_normal(size)
    grown *= params.log_sigma
    grown += params.log_mu
    np.exp(grown, out=grown)
    grown += params.shift_us
    return grown


def _phase(jitter, size: int) -> np.ndarray:
    """size uniform phase offsets of half a lattice tick either way."""
    phase = jitter.random(size)
    phase *= LATTICE_US
    phase -= LATTICE_US / 2
    return phase


def sample_latency(vmm_on: bool, stressed: bool, bus: BusModel, streams,
                   size: int) -> np.ndarray:
    """Draw size measured latencies in microseconds, as one array.

    latency = base + H[vmm on] + C[vmm on and stressed, with probability
    contention_prob], observed through jitter and quantization when the
    bus model has them enabled, and never below 0. Each active component
    takes one draw per sample from its own stream, indexed only when used (the
    contention size even when the trigger does not fire); raise_irqs checks fit.
    """
    latency = np.full(size, bus.base_latency_us)
    if vmm_on:  # summed in place, a term at a time, in this order
        latency += draw(bus.hv_overhead, streams[0], size)
        if stressed:
            extra = draw(bus.contention, streams[2], size)
            extra *= streams[1].random(size) < bus.contention_prob
            latency += extra
    if bus.phase_jitter_enabled:
        latency += _phase(streams[3], size)
    np.maximum(latency, 0.0, out=latency)
    return quantize_62_5ns(latency) if bus.quantize_enabled else latency


class _Blocks:
    """One stream's values, drawn fill(n) at a time with n = 16, 32, ... up
    to 1024 (a session that rings once draws few) and taken one at a time."""

    __slots__ = ("fill", "size", "values")

    def __init__(self, fill):
        self.fill, self.size, self.values = fill, 16, []

    def take(self) -> float:
        if not self.values:
            with np.errstate(over="ignore", invalid="ignore"):  # a ring refuses an overflow
                self.values = self.fill(self.size).tolist()[::-1]  # taken from the end
            self.size = min(2 * self.size, 1024)
        return self.values.pop()


class DoorbellLatencies:
    """Doorbell latencies, one per ring, from the four "hv-doorbell" streams
    drawn in blocks. A ring repeats sample_latency's arithmetic, in its
    order, on the next value of each stream it uses: overhead and jitter
    advance on every ring, trigger and contention only on a stressed one.
    So each ring equals the batch of its run of calm or stressed rings."""

    def __init__(self, bus: BusModel, seed: int):
        overhead, trigger, contention, jitter = latency_streams(seed, "hv-doorbell")
        self.bus = bus  # partials, not closures, so that a deep copy copies the streams
        self.overhead = _Blocks(partial(draw, bus.hv_overhead, overhead))
        self.trigger = _Blocks(trigger.random)
        self.contention = _Blocks(partial(draw, bus.contention, contention))
        self.jitter = _Blocks(partial(_phase, jitter))

    def ring(self, stressed: bool) -> float:
        bus = self.bus
        latency = bus.base_latency_us + self.overhead.take()
        if stressed:
            extra = self.contention.take()
            extra *= self.trigger.take() < bus.contention_prob
            latency += extra
        if bus.phase_jitter_enabled:
            latency += self.jitter.take()
        latency = max(latency, 0.0)
        return _check_fits(quantize_62_5ns(latency) if bus.quantize_enabled else latency, 0)


def _check_fits(top_us: float, last_ns: int) -> float:
    """top_us, unless it is not finite or delivers at or past 2^63 ns after
    raise time last_ns (floor(x) < n iff x < n; NaN and inf fail the <)."""
    if not top_us * 1000.0 + 0.5 < 2 ** 63 - last_ns:
        raise InvariantViolation("latency %r us is not finite or delivers past the"
                                 " int64 ns clock" % top_us)
    return top_us


class IrqDeliveries(Value):
    """One line's deliveries: path "bare-metal" or "reinjected", times (ns), latencies (us)."""

    __slots__ = ("line", "owner", "path", "raised_at", "delivered_at", "latency_us")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity: arrays have no truth value

    def __init__(self, line, owner, path, raised_at, delivered_at, latency_us):
        span = delivered_at - raised_at
        if span.min(initial=0) < 0:
            raise InvariantViolation("delivery before raise")
        # timestamps are whole ns, so allow half an ns of rounding
        gap = latency_us * 1000.0
        np.subtract(span, gap, out=gap)
        if np.abs(gap, out=gap).max(initial=0.0) > 0.5:
            raise InvariantViolation("timestamps disagree with latency")
        self._freeze(line, owner, path, raised_at, delivered_at, latency_us)


class Scenario(Value):
    __slots__ = ("vmm_on", "freq_hz", "stress", "n_samples", "seed")

    def __init__(self, vmm_on: bool, freq_hz: float, stress: bool, n_samples: int, seed: int):
        if not (freq_hz > 0 and math.isfinite(freq_hz)):
            raise InvariantViolation("freq_hz must be positive and finite")
        if n_samples < 1:
            raise InvariantViolation("n_samples must be at least 1")
        if seed < 0:
            raise InvariantViolation("seed must be non-negative")
        self._freeze(vmm_on, freq_hz, stress, n_samples, seed)
        # the raise times are int64 ns, which wrap without an error
        if not 1e9 / freq_hz < 2 ** 63 or (n_samples - 1) * self.period_ns >= 2 ** 63:
            raise InvariantViolation("%d samples at %r Hz do not fit the int64 ns clock"
                                     % (n_samples, freq_hz))
        if self.period_ns < 1:  # else every raise lands at the same instant
            raise InvariantViolation("%r Hz gives a raise period under 1 ns" % freq_hz)

    @property
    def period_ns(self) -> int:
        return round(1e9 / self.freq_hz)

    def tag(self) -> str:
        """Stream tag; a function of the scenario settings, not of any
        position in a scenario list."""
        return "scenario vmm=%d freq=%r stress=%d" % (
            self.vmm_on, float(self.freq_hz), self.stress)


class LatencyStats(Value):
    __slots__ = ("mean_us", "sigma_us", "max_us", "n")

    def __init__(self, mean_us: float, sigma_us: float, max_us: float, n: int):
        if n < 1:
            raise InvariantViolation("stats need at least one sample")
        if mean_us < 0 or sigma_us < 0:
            raise InvariantViolation("negative latency statistics")
        # tiny slack: float summation can push a constant-sample mean
        # a few ulps past the maximum
        if mean_us > max_us * (1 + 1e-12) + 1e-15:
            raise InvariantViolation("mean exceeds maximum")
        self._freeze(mean_us, sigma_us, max_us, n)


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
    raised = np.array(times, dtype=np.int64)  # a copy: the record must outlive the caller's array
    if raised.ndim != 1 or raised.size == 0:
        raise InvariantViolation("raise_irqs needs a non-empty sequence of raise times")
    if line not in hv.platform.irq_numbers:
        raise NoSuchLine("platform has no irq line %d" % line)
    owner, path, stressed = ROOT_CELL, "bare-metal", False
    if hv.enabled:
        owner = hv.ledger.irq_owner(line)
        cell = hv.cells[owner]
        if cell.state is not CellState.RUNNING:
            hv._log(TrapKind.ACCESS_VIOLATION, owner,
                    "spurious irq line %d" % line, time_ns=int(raised[0]))
            raise UnownedIrq(
                "line %d owned by cell %d in state %s" % (line, owner, cell.state.value))
        path, stressed = "reinjected", bus_load(hv, cell)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        latency = sample_latency(hv.enabled, stressed, hv.platform.bus, streams, raised.size)
    last = int(raised.max())
    _check_fits(float(latency.max()), last)
    delivered = latency * 1000.0  # whole ns, in one float buffer freed by the cast
    delivered += 0.5
    delivered = np.floor(delivered, out=delivered).astype(np.int64)
    delivered += raised
    hv.clock = max(hv.clock, last)
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
        cell_id, Access(_MEM_WRITE, window.base + offset, 4))
