"""Versioned binary session snapshots.

Persists a platform plus optional hypervisor state between CLI
invocations. The platform's layout is a resource list of the config
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
    WorkloadKind, _Reader, emit_binary, load_binary, put_runs, take_runs)
from .errors import (
    BadMagic, ConfigSemanticError, ConfigSyntaxError, InvariantViolation, UnsupportedVersion,
    ValidationFailed)
from .hvcore import Cell, CellState, Hypervisor, OwnershipLedger, TrapEvent, TrapKind, check_script
from .machine import BusModel, DistParams, GicVersion, MachinePlatform

MAGIC = 0x4A485353
VERSION = 8

_HEADER = struct.Struct("<IH")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_BUS = struct.Struct("<8d2B")
_EVENT = struct.Struct("<QIB")
_EXITS = struct.Struct("<I%dQ" % len(TrapKind))

_STATE_CODES = {state: code for code, state in enumerate(CellState)}
_STATES_BY_CODE = {code: state for state, code in _STATE_CODES.items()}
_TRAP_CODES = {kind: code for code, kind in enumerate(TrapKind)}
_TRAPS_BY_CODE = {code: kind for kind, code in _TRAP_CODES.items()}
_GIC_CODES = {GicVersion.V2: 2, GicVersion.V3: 3}
_GIC_BY_CODE = {code: gic for gic, code in _GIC_CODES.items()}


def _put_str(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    out += _U16.pack(len(raw))
    out += raw


def _get_str(reader: _Reader) -> str:
    (length,) = reader.take(_U16)
    return decode_utf8(reader.take_raw(length), "snapshot string")


def _put_bytes(out: bytearray, raw: bytes) -> None:
    out += _U32.pack(len(raw))
    out += raw


def _get_bytes(reader: _Reader) -> bytes:
    (length,) = reader.take(_U32)
    return reader.take_raw(length)


def save_session(platform: MachinePlatform, hv: Optional[Hypervisor]) -> bytes:
    out = bytearray()
    out += _HEADER.pack(MAGIC, VERSION)

    _put_str(out, platform.name)
    out += _U8.pack(_GIC_CODES[platform.gic_version])
    bus = platform.bus
    out += _BUS.pack(
        bus.base_latency_us, bus.hv_overhead.shift_us, bus.hv_overhead.log_mu,
        bus.hv_overhead.log_sigma, bus.contention.shift_us, bus.contention.log_mu,
        bus.contention.log_sigma, bus.contention_prob,
        1 if bus.quantize_enabled else 0, 1 if bus.phase_jitter_enabled else 0)
    put_runs(out, platform.layout)

    if hv is None:
        out += _U8.pack(0)
        return bytes(out)
    out += _U8.pack(1)
    out += _U64.pack(hv.clock)
    out += _U64.pack(hv.seed)
    out += _U32.pack(len(hv.events))
    for event in hv.events:
        out += _EVENT.pack(event.time_ns, event.cell, _TRAP_CODES[event.kind])
        _put_str(out, event.detail)
    out += _U32.pack(len(hv.exits))
    for cell_id in sorted(hv.exits):
        out += _EXITS.pack(cell_id, *hv.exits[cell_id])
    out += _U32.pack(hv._next_cell_id)

    out += _U8.pack(1 if hv.enabled else 0)
    if not hv.enabled:
        return bytes(out)

    out += _U32.pack(len(hv.cells))
    for cell_id in sorted(hv.cells):
        cell = hv.cells[cell_id]
        out += _U32.pack(cell_id)
        out += _U8.pack(_STATE_CODES[cell.state])
        _put_bytes(out, emit_binary(cell.config))
        out += _U32.pack(len(cell.memory_image))
        for addr in sorted(cell.memory_image):
            out += _U64.pack(addr)
            _put_bytes(out, cell.memory_image[addr])
        if cell.config.workload.kind is WorkloadKind.SCRIPT:
            out += _U32.pack(cell.script_pos)
            _put_bytes(out, cell.script.encode("utf-8"))
    return bytes(out)


def load_session(data: bytes) -> tuple[MachinePlatform, Optional[Hypervisor]]:
    reader = _Reader(data)
    magic, version = reader.take(_HEADER)
    if magic != MAGIC:
        raise BadMagic("snapshot magic 0x%08x, expected 0x%08x" % (magic, MAGIC))
    if version != VERSION:
        raise UnsupportedVersion("snapshot version %d, expected %d"
                                 % (version, VERSION))

    name = _get_str(reader)
    (gic_code,) = reader.take(_U8)
    gic = _GIC_BY_CODE.get(gic_code)
    if gic is None:
        raise InvariantViolation("unknown gic code %d" % gic_code)
    (base_us, hv_shift, hv_mu, hv_sigma, c_shift, c_mu, c_sigma, prob,
     quantize, jitter) = reader.take(_BUS)
    bus = BusModel(
        base_latency_us=base_us,
        hv_overhead=DistParams(hv_shift, hv_mu, hv_sigma),
        contention=DistParams(c_shift, c_mu, c_sigma),
        contention_prob=prob,
        quantize_enabled=bool(quantize), phase_jitter_enabled=bool(jitter))
    platform = MachinePlatform(name, tuple(take_runs(reader)), gic, bus)

    (have_hv,) = reader.take(_U8)
    if not have_hv:
        _expect_end(reader)
        return platform, None

    clock = reader.take(_U64)[0]
    seed = reader.take(_U64)[0]
    events = []
    (n_events,) = reader.take(_U32)
    for _ in range(n_events):
        time_ns, cell, kind_code = reader.take(_EVENT)
        kind = _TRAPS_BY_CODE.get(kind_code)
        if kind is None:
            raise InvariantViolation("unknown trap code %d" % kind_code)
        events.append(TrapEvent(time_ns, cell, kind, _get_str(reader)))

    hv = Hypervisor(platform, seed=seed)
    hv.clock = clock
    hv.events = events
    (n_exit_records,) = reader.take(_U32)
    for _ in range(n_exit_records):
        cell_id, *counters = reader.take(_EXITS)
        if cell_id in hv.exits:
            raise InvariantViolation(
                "exit counters of cell %d appear twice in snapshot" % cell_id)
        hv.exits[cell_id] = counters
    (hv._next_cell_id,) = reader.take(_U32)
    (enabled,) = reader.take(_U8)
    if not enabled:
        _expect_end(reader)
        _check_exit_cells(hv)
        return platform, hv

    (n_cells,) = reader.take(_U32)
    ids_by_name: dict[str, int] = {}
    for _ in range(n_cells):
        (cell_id,) = reader.take(_U32)
        if cell_id in hv.cells:
            raise InvariantViolation("cell %d appears twice in snapshot" % cell_id)
        (state_code,) = reader.take(_U8)
        state = _STATES_BY_CODE.get(state_code)
        if state is None:
            raise InvariantViolation("unknown cell state %d" % state_code)
        config = load_binary(_get_bytes(reader))
        twin = ids_by_name.setdefault(config.name, cell_id)
        if twin != cell_id:
            raise InvariantViolation("cells %d and %d are both named %r"
                                     % (twin, cell_id, config.name))
        # chunks as write_image keeps them and save writes them: in address
        # order, non-empty, neither overlapping nor adjacent, and inside the
        # cell's memory, which a merged chunk may cross between adjacent regions
        image, prev_end = {}, -1
        (n_chunks,) = reader.take(_U32)
        for _ in range(n_chunks):
            (addr,) = reader.take(_U64)
            image[addr] = chunk = _get_bytes(reader)
            end = addr + len(chunk)
            inside = sum(max(0, min(end, r.end) - max(addr, r.base)) for r in config.mem)
            if not (prev_end < addr < end and inside == end - addr):
                raise InvariantViolation("snapshot cell %d image chunk [0x%x, 0x%x) is empty, not"
                                         " after the last one or outside the cell's memory"
                                         % (cell_id, addr, end))
            prev_end = end
        script, script_pos = "", 0
        if config.workload.kind is WorkloadKind.SCRIPT:
            (script_pos,) = reader.take(_U32)
            script = decode_utf8(_get_bytes(reader), "snapshot script")
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
