"""Per-cell access maps: built at a cell's first trap, and audited.

A hypervisor answers each memory or I/O access with one bisect in the
cell's access map. The rule the maps give is checked against the naive
model in `oracle.py` by `test_oracle.py`; these tests pin the cache.
"""

import pytest

from cellsim import (
    Access,
    AccessKind,
    AccessOutcome,
    CellConfig,
    Cpu,
    IoPortRange,
    MemRegion,
    MmioDevice,
    PermFlags,
    PlatformSpec,
    build_platform,
    enable,
    full_platform_config,
)
from cellsim.errors import InvariantViolation

PAGE = 0x1000
RAM, RAM_PAGES = 0x1000_0000, 64
RO_RAM, RO_PAGES = 0x2000_0000, 8
R, RW = PermFlags.READ, PermFlags.READ | PermFlags.WRITE
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
    # per space, (lo, hi, rights) entries sorted by lo, and apart, their bases
    mem = [(RAM, RAM + PAGE, 3), (RAM + PAGE, RAM + 2 * PAGE, 1), (DIST.base, DIST.end, 4),
           (0x7000_6000, 0x7000_7000, 3)]
    io = [(0x3F8, 0x400, 3)]
    assert hv._access_maps == {guest: (
        (mem, [RAM, RAM + PAGE, DIST.base, 0x7000_6000]), (io, [0x3F8]))}
    assert hv._access_maps[guest].mem is hv._access_maps[guest][0]  # Access.space 0
    hv.audit()


@pytest.mark.parametrize("corrupt", [
    lambda maps, guest: maps[guest].mem[0].reverse(),
    lambda maps, guest: maps[guest].mem[0].__setitem__(0, (RAM, RAM + 2 * PAGE, 3)),
    lambda maps, guest: maps[guest].mem[0].__setitem__(1, (RAM + PAGE, RAM + 2 * PAGE, 3)),
    lambda maps, guest: maps[guest].io[0].clear(),
    lambda maps, guest: maps[guest].mem[1].__setitem__(1, RAM + 2 * PAGE),
    lambda maps, guest: maps[guest].io[1].clear(),
    lambda maps, guest: maps.__setitem__(99, maps[guest]),
], ids=["unsorted", "overlap", "read-only-writable", "lost-ports", "moved-base", "lost-bases",
        "dead-cell"])
def test_audit_catches_a_corrupt_map(corrupt):
    hv, guest = guest_hv()
    hv.handle_access(guest, Access(AccessKind.IO_READ, 0x3F8, 1))
    hv.audit()
    corrupt(hv._access_maps, guest)
    with pytest.raises(InvariantViolation, match="access map"):
        hv.audit()
