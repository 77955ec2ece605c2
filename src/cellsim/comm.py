"""Inter-cell communication.

A channel pairs two cells over a shared memory window carved from the
creating cell's own memory, plus a doorbell signalling path modeled
after MSI-X: the sender writes into the shared buffer and rings a
vector, the peer polls vectors in FIFO order and receives a virtual IRQ
per ring. Each endpoint sees the channel as a virtual PCI device in an
emulated minimal host controller's config space.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter

from ._value import Record
from .errors import (
    BadAlignment,
    BadSize,
    BadVector,
    InvariantViolation,
    NoSuchResource,
    NotEndpoint,
    OutOfRegion,
    SelfChannel,
)
from .hvcore import _EMULATE_INSTR, _FORM, _MANAGE, _REINJECT, _RUNNING, Hypervisor
from .irq import DoorbellLatencies
from .machine import PAGE_SIZE, MemRegion, PermFlags, bus_load

VENDOR_ID = 0x110A
DEVICE_ID = 0x0001
ABSENT = 0xFFFFFFFF

_RW = PermFlags.READ | PermFlags.WRITE
_CHANNEL, _DOORBELL = _FORM["channel"], _FORM["doorbell"]


class Channel(Record):
    """A channel between two cells. Unless given, buffer starts zeroed, at the
    region's size, and pending, each endpoint's queue of rung vectors, empty."""

    __slots__ = ("id", "cell_a", "cell_b", "region", "vectors", "bdf_a", "bdf_b", "buffer",
                 "pending")
    _key = property(attrgetter(*__slots__))

    def __init__(self, id, cell_a, cell_b, region, vectors, bdf_a, bdf_b, buffer=None,
                 pending=None):
        if cell_a == cell_b:
            raise InvariantViolation("channel endpoints must differ")
        if region.size < PAGE_SIZE:
            raise InvariantViolation("channel region smaller than a page")
        self.id, self.cell_a, self.cell_b, self.region = id, cell_a, cell_b, region
        self.vectors, self.bdf_a, self.bdf_b = vectors, bdf_a, bdf_b
        self.buffer = buffer or bytearray(region.size)
        self.pending = pending or {cell_a: deque(), cell_b: deque()}

    def endpoints(self) -> tuple[int, int]:
        return (self.cell_a, self.cell_b)


def _refuse(hv: Hypervisor, ch_id: int, cell_id: int) -> None:
    """Raise why cell_id may not use channel ch_id: NotEnabled on a disabled
    hypervisor, which has no channels; NoSuchResource; else NotEndpoint."""
    if ch_id not in hv.channels:
        hv._require_enabled()
        raise NoSuchResource("no channel with id %d" % ch_id)
    raise NotEndpoint("cell %d is not on channel %d" % (cell_id, ch_id))


def _carve(hv: Hypervisor, cell_id: int, size: int) -> MemRegion:
    """The highest page-aligned span of size bytes in read-write RAM the
    cell owns that overlaps no live channel window.

    The carve is an allocation within memory the cell already owns;
    ledger ownership does not change, so conservation is untouched. A
    window is free again once its channel closes.
    """
    windows = sorted((ch.region.base, ch.region.end) for ch in hv.channels.values())
    spans = sorted(((base, base + size) for base, size, flags in hv.ledger.ram_of(cell_id)
                    if (flags & _RW) == _RW), reverse=True)
    for base, top in spans:
        for w_lo, w_hi in reversed(windows):  # disjoint, so both ends descend
            if w_hi <= base or top - w_hi >= size:
                break  # the free span [base, top) or [w_hi, top) is low enough
            top = min(top, w_lo)
        if top - base >= size:
            return MemRegion(top - size, size, _RW)
    raise OutOfRegion(
        "cell %d has no free read-write span of 0x%x bytes" % (cell_id, size))


def _devices(hv: Hypervisor, cell_id: int) -> dict:
    """The virtual PCI devices a cell sees: bdf -> channel."""
    return {bdf: ch for ch in hv.channels.values()
            for cell, bdf in ((ch.cell_a, ch.bdf_a), (ch.cell_b, ch.bdf_b)) if cell == cell_id}


def _alloc_bdf(hv: Hypervisor, cell_id: int) -> int:
    """The cell's lowest device number, function 0, that no live channel uses."""
    used = _devices(hv, cell_id)
    bdf = next((bdf for bdf in range(0, 0x10000, 1 << 3) if bdf not in used), None)
    if bdf is None:
        raise InvariantViolation("bdf out of range")
    return bdf


def create_channel(hv: Hypervisor, a: int, b: int, size: int, vectors: int) -> int:
    """Set up a shared window between cells a and b with doorbells.

    The window comes out of a's memory; b may access it while the
    channel exists, so the ownership ledger keeps a single owner per byte.
    """
    hv._require_enabled()
    if a == b:
        raise SelfChannel("a channel needs two distinct cells")
    cell_a, cell_b = hv._cell(a), hv._cell(b)
    if not (isinstance(size, int) and isinstance(vectors, int)):
        raise InvariantViolation("channel size and vector count must be ints, not %r and %r"
                                 % (size, vectors))
    if size <= 0 or size % PAGE_SIZE:
        raise BadSize("channel size must be positive and page-aligned")
    if not 1 <= vectors <= 0xFFFF:
        raise BadVector("vector count must lie in 1..65535")

    region = _carve(hv, a, size)
    channel = Channel(
        id=hv._next_channel_id, cell_a=a, cell_b=b, region=region,
        vectors=vectors, bdf_a=_alloc_bdf(hv, a), bdf_b=_alloc_bdf(hv, b))
    hv.channels[channel.id] = channel
    hv._access_maps.clear()  # b may now access the window
    hv._next_channel_id += 1
    hv._log(_MANAGE, cell_a.id, _CHANNEL, cell_a.name, cell_b.name)
    return channel.id


def send(hv: Hypervisor, ch_id: int, from_cell: int, offset: int,
         payload: bytes, vector: int) -> None:
    """Write payload into the shared buffer and ring a doorbell.

    The write is atomic at operation level; the peer's next poll sees
    the vector, and a reinjected virtual IRQ is delivered to a running
    peer with latency drawn from the hypervisor-on model and recorded in
    the channel trace.
    """
    if not isinstance(ch_id, int):  # 0.0 would find channel 0, as _cell refuses 1.0
        raise InvariantViolation("channel id must be an int, not %r" % (ch_id,))
    channel = hv.channels.get(ch_id)
    if channel is None or from_cell != channel.cell_a and from_cell != channel.cell_b:
        _refuse(hv, ch_id, from_cell)
    peer = channel.cell_b if from_cell == channel.cell_a else channel.cell_a
    if not (isinstance(offset, int) and isinstance(vector, int)):
        raise InvariantViolation("offset and vector must be ints, not %r and %r" % (offset, vector))
    if offset < 0 or offset + len(payload) > channel.region.size:
        raise OutOfRegion(
            "[0x%x, 0x%x) exceeds channel size 0x%x"
            % (offset, offset + len(payload), channel.region.size))
    if not 0 <= vector < channel.vectors:
        raise BadVector("vector %d outside 0..%d" % (vector, channel.vectors - 1))

    peer_cell = hv.cells.get(peer)
    latency = None  # no virtual IRQ reaches a peer that is not running
    if peer_cell is not None and peer_cell.state is _RUNNING:
        if hv._doorbell_streams is None:  # four streams cost ~100 us
            hv._doorbell_streams = DoorbellLatencies(hv.platform.bus, hv.seed)
        # drawn first, so that a refused latency leaves the channel as it was
        latency = hv._doorbell_streams.ring(bus_load(hv, peer_cell))
        hv._log(_REINJECT, peer_cell.id, _DOORBELL, channel.id, vector)
    channel.buffer[offset:offset + len(payload)] = payload
    channel.pending[peer].append(vector)
    hv._trace.append((hv.clock, ch_id, from_cell == channel.cell_a, vector, len(payload), latency))


def poll(hv: Hypervisor, ch_id: int, cell_id: int) -> list[int]:
    """Drain and return this endpoint's pending vectors, oldest first."""
    if not isinstance(ch_id, int):  # 0.0 would find channel 0, as _cell refuses 1.0
        raise InvariantViolation("channel id must be an int, not %r" % (ch_id,))
    channel = hv.channels.get(ch_id)
    if channel is None or cell_id != channel.cell_a and cell_id != channel.cell_b:
        _refuse(hv, ch_id, cell_id)
    queue = channel.pending[cell_id]
    drained = list(queue)
    queue.clear()
    return drained


def read_buffer(hv: Hypervisor, ch_id: int, cell_id: int,
                offset: int, length: int) -> bytes:
    """Endpoint view of the shared buffer."""
    if not isinstance(ch_id, int):  # 0.0 would find channel 0, as _cell refuses 1.0
        raise InvariantViolation("channel id must be an int, not %r" % (ch_id,))
    channel = hv.channels.get(ch_id)
    if channel is None or cell_id != channel.cell_a and cell_id != channel.cell_b:
        _refuse(hv, ch_id, cell_id)
    if not (isinstance(offset, int) and isinstance(length, int)):
        raise InvariantViolation("offset and length must be ints, not %r and %r" % (offset, length))
    if offset < 0 or offset + length > channel.region.size:
        raise OutOfRegion("read past the channel window")
    return bytes(channel.buffer[offset:offset + length])


def pci_cfg_read(hv: Hypervisor, cell_id: int, bdf: int, offset: int) -> int:
    """Emulated config-space read of the minimal PCI host controller.

    Offset 0 identifies the device as (device_id << 16) | vendor_id;
    offset 8 reports an unassigned class code; offset 0x40 reports the
    MSI-X vector count. Reads of absent devices answer all-ones.
    """
    cell = hv._running(cell_id)
    if offset % 4:
        raise BadAlignment("config space reads must be 4-byte aligned")
    hv._log(_EMULATE_INSTR, cell.id, _FORM["pci-cfg"])
    channel = _devices(hv, cell_id).get(bdf)
    if channel is None:
        return ABSENT
    if offset == 0:
        return (DEVICE_ID << 16) | VENDOR_ID
    if offset == 8:
        return 0xFF000000  # class: unassigned
    if offset == 0x40:
        return channel.vectors
    return 0
