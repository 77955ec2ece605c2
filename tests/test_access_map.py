"""Per-cell access maps against the trap rule they replace.

A hypervisor answers each memory or I/O access with one bisect in the
cell's access map. Its twin answers the same access with the rule the
map was derived from, written out here: the distributor window, then
the ledger, then scans of the channels, the MMIO devices and the I/O
port ranges. Both take the same management operations.
"""

from bisect import bisect_right

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from cellsim import (
    ROOT_CELL,
    Access,
    AccessKind,
    AccessOutcome,
    CellConfig,
    CellState,
    Cpu,
    IoPortRange,
    MemRegion,
    MmioDevice,
    PermFlags,
    PlatformSpec,
    TrapKind,
    Workload,
    WorkloadKind,
    build_platform,
    enable,
    full_platform_config,
    load_session,
    save_session,
)
from cellsim.comm import create_channel
from cellsim.errors import CellSimError, InvariantViolation

PAGE = 0x1000
RAM, RAM_PAGES = 0x1000_0000, 64
RO_RAM, RO_PAGES = 0x2000_0000, 8
R, W, RW = PermFlags.READ, PermFlags.WRITE, PermFlags.READ | PermFlags.WRITE
NONE = PermFlags(0)
DIST = MmioDevice("gic-dist", 0x5004_1000, 0x1000)
DEVICES = (
    MmioDevice("gpio", 0x6000_D000, 0x1000),
    MmioDevice("uart-a", 0x7000_6000, 0x1000),
    MmioDevice("uart-b", 0x7000_7000, 0x1000),  # adjacent to uart-a
    IoPortRange(0x3F8, 0x8),
    IoPortRange(0x400, 0x8),                    # adjacent to 0x3f8
    IoPortRange(0x60, 0x10),
)
PLATFORM = build_platform(PlatformSpec(name="maps", resources=[
    Cpu(0), Cpu(1), Cpu(2), Cpu(3),
    MemRegion(RAM, RAM_PAGES * PAGE, RW | PermFlags.EXECUTE),
    MemRegion(RO_RAM, RO_PAGES * PAGE, R),
    DIST, *DEVICES]))


# --- the trap rule before access maps ----------------------------------------

def scan_owner_and_flags(ledger, lo, hi):
    """Owner and flags of [lo, hi) if it lies in one claim, or in one
    platform region where no claim is; None otherwise."""
    claims = ledger._claims
    index = bisect_right([claim[0] for claim in claims], lo)
    if index:
        _, c_hi, owner, flags = claims[index - 1]
        if lo < c_hi:
            return (owner, flags) if hi <= c_hi else None
    if index < len(claims) and claims[index][0] < hi:
        return None
    region = ledger._platform.host_region(lo, hi)  # a (base, size, flags) row
    return None if region is None else (ROOT_CELL, region[2])


def scan_mem_allowed(hv, cell_id, lo, hi, write):
    found = scan_owner_and_flags(hv.ledger, lo, hi)
    if found is not None and found[0] == cell_id:
        return bool(found[1] & (PermFlags.WRITE if write else PermFlags.READ))
    for channel in hv.channels.values():
        window = channel.region
        if channel.cell_b == cell_id and window.base <= lo and hi <= window.end:
            return True
    for dev in hv.platform.mmio_devices:
        if dev.base <= lo and hi <= dev.end:
            return hv.ledger.owner_of_unit(dev) == cell_id
    return False


def scan_handle_access(hv, cell_id, access):
    """Hypervisor.handle_access for a memory or I/O access, by scanning."""
    cell = hv.cells[cell_id]
    assert cell.state is CellState.RUNNING
    lo, hi = access.addr_or_port, access.addr_or_port + access.width
    if access.kind in (AccessKind.MEM_READ, AccessKind.MEM_WRITE):
        window = hv.platform.gic_dist_window
        if window is not None and window.base <= lo and hi <= window.end:
            hv._log(TrapKind.DISTRIBUTOR_EMULATION, cell_id, "offset 0x%x" % (lo - window.base))
            return AccessOutcome.EMULATED
        if scan_mem_allowed(hv, cell_id, lo, hi, access.kind is AccessKind.MEM_WRITE):
            return AccessOutcome.DIRECT
        return hv._violate(cell, access)
    for port_range in hv.platform.io_port_ranges:
        if port_range.base <= lo and hi <= port_range.end:
            if hv.ledger.owner_of_unit(port_range) == cell_id:
                return AccessOutcome.DIRECT
    return hv._violate(cell, access)


# --- differential walk ---------------------------------------------------------

class AccessMapMachine(RuleBasedStateMachine):
    """Random management operations and accesses on a hypervisor and its
    twin; every access must give the same outcome, events and exits."""

    def __init__(self):
        super().__init__()
        self.hv = enable(PLATFORM, full_platform_config(PLATFORM))
        self.twin = enable(PLATFORM, full_platform_config(PLATFORM))
        self.counter = 0
        # platform RAM and devices, then every claim and window ever made,
        # so that a map kept past a destroy is probed where it is stale
        self.ranges = [(r.base, r.end) for r in PLATFORM.mem_regions + PLATFORM.mmio_devices]

    def both(self, op):
        """Apply op to the hypervisor and its twin; both must return the same
        value or raise the same error."""
        results = []
        for hv in (self.hv, self.twin):
            try:
                results.append(op(hv))
            except CellSimError as exc:
                results.append(type(exc))
        assert results[0] == results[1]
        return results[0]

    def guests(self):
        return sorted(cell_id for cell_id in self.hv.cells if cell_id != ROOT_CELL)

    @rule(data=st.data())
    def create(self, data):
        start = data.draw(st.sampled_from([0, 1, 2, 30, 60, 62, 63]))
        pages = data.draw(st.integers(1, min(3, RAM_PAGES - start)))
        mem = [MemRegion(RAM + start * PAGE, pages * PAGE,
                         data.draw(st.sampled_from([RW, RW, R, W, NONE])))]
        if data.draw(st.booleans()):
            mem.append(MemRegion(RO_RAM + data.draw(st.integers(0, RO_PAGES - 1)) * PAGE,
                                 PAGE, data.draw(st.sampled_from([R, NONE]))))
        self.counter += 1
        cfg = CellConfig(
            name="g%d" % self.counter, cpus=[data.draw(st.integers(1, 3))], mem=mem,
            devices=data.draw(st.lists(st.sampled_from(DEVICES), max_size=3, unique=True)),
            workload=Workload(data.draw(st.sampled_from(
                [WorkloadKind.IDLE, WorkloadKind.STRESS, WorkloadKind.LATENCY_RESPONDER]))))
        cell_id = self.both(lambda hv: hv.create_cell(cfg))
        if isinstance(cell_id, int) and data.draw(st.booleans()):
            self.both(lambda hv: hv.start_cell(cell_id))
        self.sweep()

    @precondition(lambda self: len(self.hv.cells) > 1)
    @rule(data=st.data())
    def destroy(self, data):
        cell_id = data.draw(st.sampled_from(self.guests()))
        self.both(lambda hv: hv.destroy_cell(cell_id))
        self.sweep()

    @precondition(lambda self: len(self.hv.cells) > 1)
    @rule(data=st.data())
    def channel(self, data):
        a = data.draw(st.sampled_from(sorted(self.hv.cells)))
        b = data.draw(st.sampled_from(
            [cell_id for cell_id in sorted(self.hv.cells) if cell_id != a]))
        pages = data.draw(st.integers(1, 2))
        self.both(lambda hv: create_channel(hv, a, b, pages * PAGE, 1))
        self.sweep()

    @precondition(lambda self: len(self.hv.cells) > 1)
    @rule(data=st.data(), op=st.sampled_from(["start_cell", "stop_cell", "relaunch_cell"]))
    def lifecycle(self, data, op):
        cell_id = data.draw(st.sampled_from(self.guests()))
        self.both(lambda hv: getattr(hv, op)(cell_id))
        self.sweep()

    @rule()
    def save_and_load(self):
        self.hv = load_session(save_session(PLATFORM, self.hv))[1]
        self.twin = load_session(save_session(PLATFORM, self.twin))[1]
        self.sweep()

    def _remember(self):
        self.ranges += [(lo, hi) for lo, hi, _, _ in self.hv.ledger._claims]
        self.ranges += [(ch.region.base, ch.region.end) for ch in self.hv.channels.values()]
        self.ranges = sorted(set(self.ranges))

    def probe(self, cell_id, access):
        """One access by a running cell on both; a root cell that fails is
        revived in both, as root cannot be relaunched."""
        outcome = self.hv.handle_access(cell_id, access)
        assert outcome is scan_handle_access(self.twin, cell_id, access), (cell_id, access)
        assert self.hv.events[-1:] == self.twin.events[-1:]
        assert self.hv.exits == self.twin.exits
        if cell_id == ROOT_CELL:
            for hv in (self.hv, self.twin):
                hv.cells[ROOT_CELL].state = CellState.RUNNING

    def running(self):
        return [cell_id for cell_id, cell in sorted(self.hv.cells.items())
                if cell.state is CellState.RUNNING]

    @rule(data=st.data(), count=st.integers(1, 8))
    def access(self, data, count):
        """Accesses of any width at the edges of RAM, claims, windows,
        devices and port ranges, and inside and past the distributor."""
        self._remember()
        for _ in range(count):
            cell_id = data.draw(st.sampled_from(self.running()))
            kind = data.draw(st.sampled_from(list(AccessKind)[:4] + ["dist"]))
            width = data.draw(st.sampled_from([1, 2, 4, 8]))
            if kind == "dist":
                offset = data.draw(st.sampled_from([0, 4, 0x400, DIST.size - 4, DIST.size]))
                access = Access(data.draw(st.sampled_from(
                    [AccessKind.MEM_READ, AccessKind.MEM_WRITE])), DIST.base + offset, 4)
            elif kind in (AccessKind.IO_READ, AccessKind.IO_WRITE):
                ports = data.draw(st.sampled_from(PLATFORM.io_port_ranges))
                access = Access(kind, ports.base + data.draw(st.integers(-2, ports.length)), width)
            else:
                lo, hi = data.draw(st.sampled_from(self.ranges))
                addr = data.draw(st.sampled_from(
                    [lo - width, lo, lo + width, (lo + hi) // 2, hi - width, hi]))
                access = Access(kind, addr - addr % width, width)
            self.probe(cell_id, access)

    def sweep(self):
        """Every running cell writes the first word of every range and port
        range, a guest that fails being revived in both. Each management
        rule ends with one, so every map is built before the next change
        and probed after it."""
        self._remember()
        for cell_id in self.running():
            for access in (
                    [Access(AccessKind.MEM_WRITE, lo, 8) for lo, _ in self.ranges]
                    + [Access(AccessKind.IO_WRITE, ports.base, 1)
                       for ports in PLATFORM.io_port_ranges]):
                self.probe(cell_id, access)
                for hv in (self.hv, self.twin):
                    hv.cells[cell_id].state = CellState.RUNNING
        assert self.hv.events == self.twin.events
        assert ([cell.state for cell in self.hv.cells.values()]
                == [cell.state for cell in self.twin.cells.values()])

    def teardown(self):
        self.hv.audit()  # the cached maps equal fresh builds


AccessMapMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None)
TestAccessMapMatchesTheScan = AccessMapMachine.TestCase


# --- the cache ------------------------------------------------------------------

def guest_hv():
    hv = enable(PLATFORM, full_platform_config(PLATFORM))
    guest = hv.create_cell(CellConfig(
        name="guest", cpus=[1], devices=[DEVICES[1], DEVICES[3]],
        mem=[MemRegion(RAM, PAGE), MemRegion(RAM + PAGE, PAGE, R)]))
    hv.start_cell(guest)
    return hv, guest


def test_maps_are_built_at_the_first_trap_only():
    hv, guest = guest_hv()
    other = hv.create_cell(CellConfig(name="other", cpus=[2],
                                      mem=[MemRegion(RAM + 8 * PAGE, PAGE)]))
    hv.destroy_cell(other)
    assert hv._access_maps == {}
    assert hv.handle_access(guest, Access(AccessKind.MEM_READ, RAM + PAGE, 8)) \
        is AccessOutcome.DIRECT
    assert hv._access_maps == {guest: (
        [(RAM, RAM + PAGE, 3), (RAM + PAGE, RAM + 2 * PAGE, 1), (DIST.base, DIST.end, 4),
         (0x7000_6000, 0x7000_7000, 3)],
        [(0x3F8, 0x400, 3)])}
    hv.audit()


@pytest.mark.parametrize("corrupt", [
    lambda maps, guest: maps[guest].mem.reverse(),
    lambda maps, guest: maps[guest].mem.__setitem__(0, (RAM, RAM + 2 * PAGE, 3)),
    lambda maps, guest: maps[guest].mem.__setitem__(1, (RAM + PAGE, RAM + 2 * PAGE, 3)),
    lambda maps, guest: maps[guest].io.clear(),
    lambda maps, guest: maps.__setitem__(99, maps[guest]),
], ids=["unsorted", "overlap", "read-only-writable", "lost-ports", "dead-cell"])
def test_audit_catches_a_corrupt_map(corrupt):
    hv, guest = guest_hv()
    hv.handle_access(guest, Access(AccessKind.IO_READ, 0x3F8, 1))
    hv.audit()
    corrupt(hv._access_maps, guest)
    with pytest.raises(InvariantViolation, match="access map"):
        hv.audit()
