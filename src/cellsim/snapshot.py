"""Versioned binary session snapshots.

Persists a platform plus optional hypervisor state between CLI
invocations as the fixed little-endian records below, one struct each,
in order; a record that ends in a length is followed by that many bytes.
A coded enum is a tuple indexed by its code: a trap kind's code is its
EXIT_SLOT, an event form's its index in EVENT_FORMS. The event log is
the table of the strings its events name, then one fixed record per
event, whose name fields hold their strings' indices. The platform's
layout is a resource list of the config codec, which alone knows how a
resource is encoded. Ownership is not stored: the load path rebuilds
the platform through its validator and the ledger by claiming each
cell's config in id order, root's first, then audits the result, so a
corrupt snapshot cannot produce an inconsistent session. Nothing else that can be derived is stored
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
    WorkloadKind, _Reader, emit_binary, from_code, load_binary, put_runs, short, take_runs)
from .errors import (
    BadMagic, ConfigSemanticError, ConfigSyntaxError, InvariantViolation, UnsupportedVersion,
    ValidationFailed)
from .hvcore import (
    _FORM, _NAME_FIELDS, _TRAP_KINDS, CLOCK_MAX, EVENT_FORMS, EXIT_SLOT, Cell, CellState,
    Hypervisor, OwnershipLedger, check_script)
from .machine import BusModel, DistParams, GicVersion, MachinePlatform

MAGIC = 0x4A485353
VERSION = 9

_HEADER = struct.Struct("<IH")  # magic, version
_NAME = struct.Struct("<H")  # platform name length, then the UTF-8 name
_PLATFORM = struct.Struct("<B8d2B")  # gic code, bus model; then the platform's resource list
_FLAG = struct.Struct("<B")  # 1 if a hypervisor follows, else the end
# clock, seed; the counts of the strings the events name, of the events and of the exit
# records, which follow in that order: a string is a u8 length and its UTF-8 bytes
_SESSION = struct.Struct("<QQIII")
_COUNT = struct.Struct("<I")  # of cells and of a cell's chunks
_EVENT = struct.Struct("<QIBBQQ")  # per event: time, cell, trap code, form, a, b
_CODE_AT = struct.calcsize("<QI")  # of an event record's trap code
_EXITS = struct.Struct("<I%dQ" % len(EXIT_SLOT))  # cell id, a counter per trap kind
_NEXT = struct.Struct("<IIB")  # next cell and channel ids, enabled; a disabled session ends here
_CELL = struct.Struct("<IBI")  # per cell in id order: id, state code, config length
_CHUNK = struct.Struct("<QI")  # per image chunk in address order: address, length
_SCRIPT = struct.Struct("<II")  # a script cell's position, script text length

_GICS = (None, None, GicVersion.V2, GicVersion.V3)
_STATES = tuple(CellState)
_DOORBELL = _FORM["doorbell"]


def _platform_record(gic: GicVersion, bus: BusModel) -> bytes:
    return _PLATFORM.pack(
        _GICS.index(gic), bus.base_latency_us, *bus.hv_overhead._key, *bus.contention._key,
        bus.contention_prob, bus.quantize_enabled, bus.phase_jitter_enabled)


# The default bus, which most sessions keep, is read as the one model built here: a record
# whose bus bytes, after the gic code, are its bytes.
_DEFAULT_BUS = BusModel.default()
_DEFAULT_BUS_BYTES = _platform_record(GicVersion.V2, _DEFAULT_BUS)[1:]


def save_session(platform: MachinePlatform, hv: Optional[Hypervisor]) -> bytes:
    name = platform.name.encode("utf-8")
    out = bytearray(_HEADER.pack(MAGIC, VERSION) + _NAME.pack(len(name)) + name)
    out += _platform_record(platform.gic_version, platform.bus)
    put_runs(out, platform.layout)
    out += _FLAG.pack(hv is not None)
    if hv is None:
        return bytes(out)

    names: dict = {}  # each string the events name -> its index in the table
    records, pack, name_fields = bytearray(), _EVENT.pack, _NAME_FIELDS
    for event in hv._events:
        n_names = name_fields[event[3]]
        if n_names:  # a, or a and b, names a cell: store its string's index
            time_ns, cell, code, form, a, b = event
            a = names.setdefault(a, len(names))
            if n_names == 2:
                b = names.setdefault(b, len(names))
            event = (time_ns, cell, code, form, a, b)
        records += pack(*event)
    out += _SESSION.pack(hv.clock, hv.seed, len(names), len(hv._events), len(hv.exits))
    for name in names:
        raw = name.encode("utf-8")
        out += bytes((len(raw),)) + raw
    out += records
    for cell_id in sorted(hv.exits):
        out += _EXITS.pack(cell_id, *hv.exits[cell_id])
    out += _NEXT.pack(hv._next_cell_id, hv._next_channel_id, hv.enabled)
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
    bus = (_DEFAULT_BUS if data[reader.offset - _PLATFORM.size + 1:reader.offset]
           == _DEFAULT_BUS_BYTES else
           BusModel(base_us, DistParams(hv_shift, hv_mu, hv_sigma),
                    DistParams(c_shift, c_mu, c_sigma), prob, bool(quantize), bool(jitter)))
    layout, reader.offset = take_runs(data, reader.offset)
    platform = MachinePlatform(name, tuple(layout), gic, bus)

    (have_hv,) = reader.take(_FLAG)
    if not have_hv:
        _expect_end(reader)
        return platform, None

    clock, seed, n_strings, n_events, n_exit_records = reader.take(_SESSION)
    if clock > CLOCK_MAX:  # the u64 holds more than the int64 clock step and raise_irqs keep
        raise InvariantViolation("snapshot clock %d ns is past 2^63 - 1 ns" % clock)
    data, at, strings = reader.data, reader.offset, []
    try:  # one test a string, and no call
        for _ in range(n_strings):
            start, at = at + 1, at + 1 + data[at]
            if at > len(data):
                raise short(data, at - start, start)
            strings.append(data[start:at].decode())
    except IndexError:  # at is the cut string's start
        raise short(data, 1, at) from None
    except UnicodeDecodeError:
        raise InvariantViolation("snapshot string is not valid UTF-8") from None
    # The event records, which _events unpacks, checks and fills in with their names once
    # everything else has been checked; each record's trap code byte is checked here.
    start, at = at, at + n_events * _EVENT.size
    if at > len(data):
        raise short(data, at - start, start)
    records = memoryview(data)[start:at]
    codes = data[start + _CODE_AT:at:_EVENT.size]
    if codes and max(codes) >= len(_TRAP_KINDS):
        from_code(_TRAP_KINDS, next(code for code in codes if code >= len(_TRAP_KINDS)),
                  "trap code")

    hv = Hypervisor(platform, seed=seed)
    hv.clock = clock
    size, exits = _EXITS.size, hv.exits
    try:  # one unpack a record, and no call
        for _ in range(n_exit_records):
            cell_id, *counters = _EXITS.unpack_from(data, at)
            at += size
            if cell_id in exits:
                raise InvariantViolation(
                    "exit counters of cell %d appear twice in snapshot" % cell_id)
            exits[cell_id] = counters
    except struct.error:
        raise short(data, size, at) from None
    reader.offset = at
    hv._next_cell_id, hv._next_channel_id, enabled = reader.take(_NEXT)
    if not enabled:
        _expect_end(reader)
        _check_exit_cells(hv)
        hv._events = _events(records, strings, hv._next_channel_id)
        return platform, hv

    (n_cells,) = reader.take(_COUNT)
    ids_by_name: dict[str, int] = {}
    for _ in range(n_cells):
        cell_id, state_code, length = reader.take(_CELL)
        if cell_id in hv.cells:
            raise InvariantViolation("cell %d appears twice in snapshot" % cell_id)
        state = (_STATES[state_code] if state_code < len(_STATES)
                 else from_code(_STATES, state_code, "cell state"))
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
            inside = 0  # the chunk's bytes inside the regions, summed with no call per region
            for base, span, _ in config.regions:
                inside += max(0, min(end, base + span) - max(addr, base))
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
            if cell.script_ops:
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
    hv._events = _events(records, strings, hv._next_channel_id)
    return platform, hv


def _events(records, strings: list, next_channel: int) -> list:
    """The event records, in one iter_unpack, as the plain tuples Hypervisor._events
    holds, each name field's index replaced by its string. Refuses an unknown form,
    an index past the table and a doorbell of a channel id not yet given; the loop
    makes no Python call a record."""
    events, doorbell, name_fields = [], _DOORBELL, _NAME_FIELDS
    append = events.append
    try:
        for record in _EVENT.iter_unpack(records):
            n_names = name_fields[record[3]]
            if n_names:
                time_ns, cell, code, form, a, b = record
                record = (time_ns, cell, code, form, strings[a],
                          strings[b] if n_names == 2 else b)
            elif record[3] == doorbell and record[4] >= next_channel:
                raise InvariantViolation(
                    "snapshot event %d rings channel %d, not below the next channel id %d"
                    % (len(events), record[4], next_channel))
            append(record)
    except IndexError:  # the record after the last one appended
        _, _, _, form, a, b = _EVENT.unpack_from(records, len(events) * _EVENT.size)
        from_code(EVENT_FORMS, form, "event form")
        raise InvariantViolation("snapshot event %d names string %d, past the %d in its table"
                                 % (len(events), a if a >= len(strings) else b, len(strings)))
    return events


def _check_exit_cells(hv: Hypervisor) -> None:
    if hv.exits and max(hv.exits) >= hv._next_cell_id:
        raise InvariantViolation(
            "snapshot's next cell id %d is not above exit counters of cell %d"
            % (hv._next_cell_id, max(hv.exits)))


def _expect_end(reader: _Reader) -> None:
    if reader.offset != len(reader.data):
        raise InvariantViolation(
            "%d trailing bytes in snapshot" % (len(reader.data) - reader.offset))
