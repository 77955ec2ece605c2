"""Inter-cell communication.

A channel pairs two cells over a shared memory window carved from the
creating cell's own memory, plus a doorbell signalling path modeled
after MSI-X: the sender writes into the shared buffer and rings a
vector, the peer polls vectors in FIFO order and receives a virtual IRQ
per ring. Each endpoint sees the channel as a virtual PCI device in an
emulated minimal host controller's config space.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    BadAlignment,
    BadSize,
    BadState,
    BadVector,
    InvariantViolation,
    NoSuchCell,
    NoSuchResource,
    NotEndpoint,
    OutOfRegion,
    SelfChannel,
)
from .hvcore import CellState, Hypervisor, TrapKind
from .irq import sample_latency
from .machine import PAGE_SIZE, MemRegion, PermFlags, bus_load

VENDOR_ID = 0x110A
DEVICE_ID = 0x0001
ABSENT = 0xFFFFFFFF

_RW = PermFlags.READ | PermFlags.WRITE


@dataclass(frozen=True)
class VirtPciDevice:
    bdf: int
    device_id: int = DEVICE_ID
    msix_vectors: int = 1
    vendor_id: int = VENDOR_ID

    def __post_init__(self):
        if not 0 <= self.bdf <= 0xFFFF:
            raise InvariantViolation("bdf out of range")
        if self.msix_vectors < 1:
            raise InvariantViolation("a device needs at least one vector")


@dataclass
class Channel:
    id: int
    cell_a: int
    cell_b: int
    region: MemRegion
    vectors: int
    bdf_a: int
    bdf_b: int
    buffer: bytearray = field(default_factory=bytearray)
    pending: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cell_a == self.cell_b:
            raise InvariantViolation("channel endpoints must differ")
        if self.region.size < PAGE_SIZE:
            raise InvariantViolation("channel region smaller than a page")
        if not self.buffer:
            self.buffer = bytearray(self.region.size)
        self.pending = {self.cell_a: deque(), self.cell_b: deque()}

    def endpoints(self) -> tuple[int, int]:
        return (self.cell_a, self.cell_b)

    def peer_of(self, cell_id: int) -> int:
        if cell_id == self.cell_a:
            return self.cell_b
        if cell_id == self.cell_b:
            return self.cell_a
        raise NotEndpoint("cell %d is not on channel %d" % (cell_id, self.id))


def _channel(hv: Hypervisor, ch_id: int) -> Channel:
    channel = hv.channels.get(ch_id)
    if channel is None:
        raise NoSuchResource("no channel with id %d" % ch_id)
    return channel


def _carve(hv: Hypervisor, cell_id: int, size: int) -> MemRegion:
    """Take a page-aligned window from the top of the cell's memory.

    The carve is an allocation within memory the cell already owns;
    ledger ownership does not change, so conservation is untouched.
    Carved space is not reclaimed within a session.
    """
    cell = hv.cells[cell_id]
    for region in reversed(cell.config.mem):
        if (region.flags & _RW) != _RW:
            continue
        key = (cell_id, region.base)
        ptr = hv._carve_ptr.get(key, region.end)
        lo = ptr - size
        if lo < region.base:
            continue
        if hv.ledger.range_owner(lo, ptr) != cell_id:
            continue
        hv._carve_ptr[key] = lo
        return MemRegion(lo, size, _RW)
    raise OutOfRegion(
        "cell %d has no free read-write span of 0x%x bytes" % (cell_id, size))


def _add_device(hv: Hypervisor, cell_id: int, vectors: int) -> int:
    bdf = hv._next_bdf.get(cell_id, 0)
    hv._next_bdf[cell_id] = bdf + (1 << 3)  # next device number, function 0
    hv.pci.setdefault(cell_id, {})[bdf] = VirtPciDevice(bdf, msix_vectors=vectors)
    return bdf


def create_channel(hv: Hypervisor, a: int, b: int, size: int, vectors: int) -> int:
    """Set up a shared window between cells a and b with doorbells.

    The window comes out of a's memory; b reaches it through an access
    grant, so the ownership ledger keeps a single owner per byte.
    """
    hv._require_enabled()
    if a == b:
        raise SelfChannel("a channel needs two distinct cells")
    for cell_id in (a, b):
        if cell_id not in hv.cells:
            raise NoSuchCell("no cell with id %d" % cell_id)
    if size <= 0 or size % PAGE_SIZE:
        raise BadSize("channel size must be positive and page-aligned")
    if not 1 <= vectors <= 0xFFFF:
        raise BadVector("vector count must lie in 1..65535")

    region = _carve(hv, a, size)
    channel = Channel(
        id=hv._next_channel_id, cell_a=a, cell_b=b, region=region,
        vectors=vectors, bdf_a=_add_device(hv, a, vectors),
        bdf_b=_add_device(hv, b, vectors))
    hv.channels[channel.id] = channel
    hv._next_channel_id += 1
    hv.grants.setdefault(b, set()).add((region.base, region.end))
    hv._log(TrapKind.MANAGEMENT, a, "channel %s-%s"
            % (hv.cells[a].config.name, hv.cells[b].config.name))
    return channel.id


def send(hv: Hypervisor, ch_id: int, from_cell: int, offset: int,
         payload: bytes, vector: int) -> None:
    """Write payload into the shared buffer and ring a doorbell.

    The write is atomic at operation level; the peer's next poll sees
    the vector, and a reinjected virtual IRQ is delivered to a running
    peer with latency drawn from the hypervisor-on model.
    """
    channel = _channel(hv, ch_id)
    peer = channel.peer_of(from_cell)
    if offset < 0 or offset + len(payload) > channel.region.size:
        raise OutOfRegion(
            "[0x%x, 0x%x) exceeds channel size 0x%x"
            % (offset, offset + len(payload), channel.region.size))
    if not 0 <= vector < channel.vectors:
        raise BadVector("vector %d outside 0..%d" % (vector, channel.vectors - 1))

    channel.buffer[offset:offset + len(payload)] = payload
    channel.pending[peer].append(vector)

    peer_cell = hv.cells.get(peer)
    if peer_cell is not None and peer_cell.state is CellState.RUNNING:
        sample_latency(True, bus_load(hv, peer_cell), hv.platform.bus,
                       hv._doorbell_rng)
        hv._log(TrapKind.IRQ_REINJECTION, peer,
                "doorbell ch=%d vector=%d" % (ch_id, vector))
    direction = "a->b" if from_cell == channel.cell_a else "b->a"
    hv.channel_trace.append(
        {"t": hv.clock, "ch": ch_id, "dir": direction,
         "vector": vector, "len": len(payload)})


def poll(hv: Hypervisor, ch_id: int, cell_id: int) -> list[int]:
    """Drain and return this endpoint's pending vectors, oldest first."""
    channel = _channel(hv, ch_id)
    channel.peer_of(cell_id)  # endpoint check
    queue = channel.pending[cell_id]
    drained = list(queue)
    queue.clear()
    return drained


def read_buffer(hv: Hypervisor, ch_id: int, cell_id: int,
                offset: int, length: int) -> bytes:
    """Endpoint view of the shared buffer."""
    channel = _channel(hv, ch_id)
    channel.peer_of(cell_id)
    if offset < 0 or offset + length > channel.region.size:
        raise OutOfRegion("read past the channel window")
    return bytes(channel.buffer[offset:offset + length])


def pci_cfg_read(hv: Hypervisor, cell_id: int, bdf: int, offset: int) -> int:
    """Emulated config-space read of the minimal PCI host controller.

    Offset 0 identifies the device as (device_id << 16) | vendor_id;
    offset 8 reports an unassigned class code; offset 0x40 reports the
    MSI-X vector count. Reads of absent devices answer all-ones.
    """
    hv._require_enabled()
    cell = hv.cells.get(cell_id)
    if cell is None:
        raise NoSuchCell("no cell with id %d" % cell_id)
    if cell.state is not CellState.RUNNING:
        raise BadState("cell %d is %s, not running" % (cell_id, cell.state.value))
    if offset % 4:
        raise BadAlignment("config space reads must be 4-byte aligned")
    hv._log(TrapKind.INSTRUCTION_EMULATION, cell_id, "pci-cfg")
    device = hv.pci.get(cell_id, {}).get(bdf)
    if device is None:
        return ABSENT
    if offset == 0:
        return (device.device_id << 16) | device.vendor_id
    if offset == 8:
        return 0xFF000000  # class: unassigned
    if offset == 0x40:
        return device.msix_vectors
    return 0


def export_trace(hv: Hypervisor) -> str:
    """Channel traffic as JSON lines: {t, ch, dir, vector, len}."""
    lines = [json.dumps(rec, separators=(",", ":")) for rec in hv.channel_trace]
    return "\n".join(lines) + ("\n" if lines else "")
