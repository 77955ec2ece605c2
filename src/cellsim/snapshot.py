"""Versioned binary session snapshots.

Persists a platform plus optional hypervisor state between CLI
invocations as the fixed little-endian records below, one struct each,
in order; a record that ends in a length is followed by that many bytes.
A coded enum is a tuple indexed by its code: a trap kind's code is its
EXIT_SLOT. The platform's layout is a resource list of the config
codec, which alone knows how a resource is encoded. Ownership is not
stored: the load path rebuilds the platform through its validator and
the ledger by claiming each cell's config in id order, root's first,
then audits the result, so a corrupt snapshot cannot produce an
inconsistent session. Nothing else that can be derived is stored
either: a platform's typed views come from its resources, and a cell's
distributor emulation count is its exit counter. A script cell's
script is stored as the text read at cell create, with its position,
and load parses that text: it never opens the script file.
"""

from __future__ import annotations

import struct
from typing import Optional

from ._dsl import decode_utf8
from .cellconfig import (
    WorkloadKind, _Reader, emit_binary, from_code, load_binary, put_runs, take_runs)
from .errors import (
    BadMagic, ConfigSemanticError, ConfigSyntaxError, InvariantViolation, UnsupportedVersion,
    ValidationFailed)
from .hvcore import (
    EXIT_SLOT, Cell, CellState, Hypervisor, OwnershipLedger, TrapEvent, check_script)
from .machine import BusModel, DistParams, GicVersion, MachinePlatform

MAGIC = 0x4A485353
VERSION = 8

_HEADER = struct.Struct("<IH")  # magic, version
_NAME = struct.Struct("<H")  # platform name length, then the UTF-8 name
_PLATFORM = struct.Struct("<B8d2B")  # gic code, bus model; then the platform's resource list
_FLAG = struct.Struct("<B")  # 1 if a hypervisor follows, else the end
_SESSION = struct.Struct("<QQI")  # clock, seed, event count
_EVENT = struct.Struct("<QIBH")  # per event: time, cell, trap code, detail length
_COUNT = struct.Struct("<I")  # of exit records, then of cells and of a cell's chunks
_EXITS = struct.Struct("<I%dQ" % len(EXIT_SLOT))  # cell id, a counter per trap kind
_NEXT = struct.Struct("<IB")  # next cell id, enabled; a disabled session ends here
_CELL = struct.Struct("<IBI")  # per cell in id order: id, state code, config length
_CHUNK = struct.Struct("<QI")  # per image chunk in address order: address, length
_SCRIPT = struct.Struct("<II")  # a script cell's position, script text length

_GICS = (None, None, GicVersion.V2, GicVersion.V3)
_TRAPS = tuple(EXIT_SLOT)
_STATES = tuple(CellState)


def save_session(platform: MachinePlatform, hv: Optional[Hypervisor]) -> bytes:
    name = platform.name.encode("utf-8")
    bus = platform.bus
    out = bytearray(_HEADER.pack(MAGIC, VERSION) + _NAME.pack(len(name)) + name)
    out += _PLATFORM.pack(
        _GICS.index(platform.gic_version), bus.base_latency_us, bus.hv_overhead.shift_us,
        bus.hv_overhead.log_mu, bus.hv_overhead.log_sigma, bus.contention.shift_us,
        bus.contention.log_mu, bus.contention.log_sigma, bus.contention_prob,
        bus.quantize_enabled, bus.phase_jitter_enabled)
    put_runs(out, platform.layout)
    out += _FLAG.pack(hv is not None)
    if hv is None:
        return bytes(out)

    out += _SESSION.pack(hv.clock, hv.seed, len(hv.events))
    for event in hv.events:
        detail = event.detail.encode("utf-8")
        out += _EVENT.pack(event.time_ns, event.cell, EXIT_SLOT[event.kind], len(detail)) + detail
    out += _COUNT.pack(len(hv.exits))
    for cell_id in sorted(hv.exits):
        out += _EXITS.pack(cell_id, *hv.exits[cell_id])
    out += _NEXT.pack(hv._next_cell_id, hv.enabled)
    if not hv.enabled:
        return bytes(out)

    out += _COUNT.pack(len(hv.cells))
    for cell_id in sorted(hv.cells):
        cell = hv.cells[cell_id]
        config = emit_binary(cell.config)
        out += _CELL.pack(cell_id, _STATES.index(cell.state), len(config)) + config
        out += _COUNT.pack(len(cell.memory_image))
        for addr in sorted(cell.memory_image):
            chunk = cell.memory_image[addr]
            out += _CHUNK.pack(addr, len(chunk)) + chunk
        if cell.config.workload.kind is WorkloadKind.SCRIPT:
            script = cell.script.encode("utf-8")
            out += _SCRIPT.pack(cell.script_pos, len(script)) + script
    return bytes(out)


def load_session(data: bytes) -> tuple[MachinePlatform, Optional[Hypervisor]]:
    reader = _Reader(data)
    magic, version = reader.take(_HEADER)
    if magic != MAGIC:
        raise BadMagic("snapshot magic 0x%08x, expected 0x%08x" % (magic, MAGIC))
    if version != VERSION:
        raise UnsupportedVersion("snapshot version %d, expected %d"
                                 % (version, VERSION))

    (length,) = reader.take(_NAME)
    name = decode_utf8(reader.take_raw(length), "snapshot string")
    (gic_code, base_us, hv_shift, hv_mu, hv_sigma, c_shift, c_mu, c_sigma, prob,
     quantize, jitter) = reader.take(_PLATFORM)
    gic = from_code(_GICS, gic_code, "gic code")
    bus = BusModel(base_us, DistParams(hv_shift, hv_mu, hv_sigma),
                   DistParams(c_shift, c_mu, c_sigma), prob, bool(quantize), bool(jitter))
    platform = MachinePlatform(name, tuple(take_runs(reader)), gic, bus)

    (have_hv,) = reader.take(_FLAG)
    if not have_hv:
        _expect_end(reader)
        return platform, None

    clock, seed, n_events = reader.take(_SESSION)
    events = []
    for _ in range(n_events):
        time_ns, cell, code, length = reader.take(_EVENT)
        events.append(TrapEvent(time_ns, cell, from_code(_TRAPS, code, "trap code"),
                                decode_utf8(reader.take_raw(length), "snapshot string")))

    hv = Hypervisor(platform, seed=seed)
    hv.clock = clock
    hv.events = events
    (n_exit_records,) = reader.take(_COUNT)
    for _ in range(n_exit_records):
        cell_id, *counters = reader.take(_EXITS)
        if cell_id in hv.exits:
            raise InvariantViolation(
                "exit counters of cell %d appear twice in snapshot" % cell_id)
        hv.exits[cell_id] = counters
    hv._next_cell_id, enabled = reader.take(_NEXT)
    if not enabled:
        _expect_end(reader)
        _check_exit_cells(hv)
        return platform, hv

    (n_cells,) = reader.take(_COUNT)
    ids_by_name: dict[str, int] = {}
    for _ in range(n_cells):
        cell_id, state_code, length = reader.take(_CELL)
        if cell_id in hv.cells:
            raise InvariantViolation("cell %d appears twice in snapshot" % cell_id)
        state = from_code(_STATES, state_code, "cell state")
        config = load_binary(reader.take_raw(length))
        twin = ids_by_name.setdefault(config.name, cell_id)
        if twin != cell_id:
            raise InvariantViolation("cells %d and %d are both named %r"
                                     % (twin, cell_id, config.name))
        # chunks as write_image keeps them and save writes them: in address
        # order, non-empty, neither overlapping nor adjacent, and inside the
        # cell's memory, which a merged chunk may cross between adjacent regions
        image, prev_end = {}, -1
        (n_chunks,) = reader.take(_COUNT)
        for _ in range(n_chunks):
            addr, length = reader.take(_CHUNK)
            image[addr] = reader.take_raw(length)
            end = addr + length
            inside = sum(max(0, min(end, r.end) - max(addr, r.base)) for r in config.mem)
            if not (prev_end < addr < end and inside == end - addr):
                raise InvariantViolation("snapshot cell %d image chunk [0x%x, 0x%x) is empty, not"
                                         " after the last one or outside the cell's memory"
                                         % (cell_id, addr, end))
            prev_end = end
        script, script_pos = "", 0
        if config.workload.kind is WorkloadKind.SCRIPT:
            script_pos, length = reader.take(_SCRIPT)
            script = decode_utf8(reader.take_raw(length), "snapshot script")
        try:
            cell = Cell(cell_id, config, state, image, script=script, script_pos=script_pos)
            check_script(cell.script_ops, platform)
        except (ConfigSyntaxError, ConfigSemanticError) as exc:
            raise InvariantViolation("snapshot cell %d script, %s" % (cell_id, exc))
        if script_pos > len(cell.script_ops):
            raise InvariantViolation("snapshot cell %d script position %d is past its %d ops"
                                     % (cell_id, script_pos, len(cell.script_ops)))
        hv.cells[cell_id] = cell
    hv.cells = dict(sorted(hv.cells.items()))  # step walks the cells in id order
    hv.check_root()  # audit's rule, before max() and the claims meet an empty table
    if max(hv.cells) >= hv._next_cell_id:
        raise InvariantViolation("snapshot's next cell id %d is not above cell %d"
                                 % (hv._next_cell_id, max(hv.cells)))
    _check_exit_cells(hv)

    hv.ledger = OwnershipLedger(platform)
    for cell_id in sorted(hv.cells):
        try:
            hv._claim(cell_id, hv.cells[cell_id].config)
        except ValidationFailed as exc:
            raise InvariantViolation("snapshot cell %d (%s) does not fit: %s" % (
                cell_id, hv.cells[cell_id].name, "; ".join(map(str, exc.violations))))
    _expect_end(reader)
    hv.audit()
    return platform, hv


def _check_exit_cells(hv: Hypervisor) -> None:
    if hv.exits and max(hv.exits) >= hv._next_cell_id:
        raise InvariantViolation(
            "snapshot's next cell id %d is not above exit counters of cell %d"
            % (hv._next_cell_id, max(hv.exits)))


def _expect_end(reader: _Reader) -> None:
    if reader.offset != len(reader.data):
        raise InvariantViolation(
            "%d trailing bytes in snapshot" % (len(reader.data) - reader.offset))
