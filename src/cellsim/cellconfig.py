"""Cell configurations: the declarative description of a partition.

A config names the resources a cell is built from (CPUs, memory,
devices, IRQ lines) and the workload the guest runs.  Configs are
parsed from a line-based DSL, validated against a platform plus
ownership ledger, and serialized to a versioned little-endian binary
format.
"""

from __future__ import annotations

import re
import struct
from enum import Enum
from itertools import repeat, starmap
from operator import itemgetter
from typing import TYPE_CHECKING, Optional

from ._dsl import MAX_ID, NAME_RE, decode_utf8, require_args
from ._value import Value
from .errors import (
    BadMagic, ConfigSemanticError, ConfigSyntaxError, InvariantViolation, TruncatedRecord,
    UnsupportedVersion)
from .machine import (
    CPU, MAX_NAME_BYTES, MMIO_NAME_BYTES, PAGE_SIZE, U64_MAX, Cpu, IoPortRange,
    IrqLine, MachinePlatform, MemRegion, MmioDevice, PciDevice, PermFlags, check_ids,
    check_no_overlap, gather, layout_resources, read_directives, sort_devices)

if TYPE_CHECKING:
    from .hvcore import OwnershipLedger


class WorkloadKind(Enum):
    IDLE = "idle"
    STRESS = "stress"
    LATENCY_RESPONDER = "latency-responder"
    SCRIPT = "script"


# Longest script path, in UTF-8 bytes: the binary codec stores its length in a u16.
MAX_PATH_BYTES = 0xFFFF


class Workload(Value):
    __slots__ = ("kind", "script_path")

    def __init__(self, kind: WorkloadKind = WorkloadKind.IDLE, script_path: Optional[str] = None):
        if kind is WorkloadKind.SCRIPT:
            if not script_path:
                raise InvariantViolation("script workload needs a path")
            if len(script_path.encode("utf-8")) > MAX_PATH_BYTES:
                raise InvariantViolation("script path longer than %d bytes" % MAX_PATH_BYTES)
        elif script_path is not None:
            raise InvariantViolation("only script workloads carry a path")
        self._freeze(kind, script_path)


class CellConfig(Value):
    """Immutable, canonically ordered cell description.

    Its CPUs and IRQ lines are frozensets of ints. Its regions are (base,
    size, flags) rows sorted by base, and its MMIO devices, PCI devices and
    I/O port ranges are rows of their fields (machine.resource_layout),
    sorted by name, bdf and base: the runs the binary codec writes, in its
    order, so that structural equality and canonical serialization coincide.
    mem and devices are those rows' value objects, built on each read, which
    no load, save, claim or trap makes.
    """

    # _masks: the last platform masks() was asked for and its masks; it neither compares nor prints
    __slots__ = ("name", "cpus", "regions", "mmio", "pci", "ports", "irqs", "workload", "_masks")
    _fields = ("name", "cpus", "mem", "devices", "irqs", "workload")

    def __init__(self, name, cpus=frozenset(), mem=(), devices=(), irqs=frozenset(),
                 workload=Workload()):
        rows = {MmioDevice: [], PciDevice: [], IoPortRange: []}
        for dev in devices:  # each device's type, before the checks of _settle
            if type(dev) not in rows:
                raise InvariantViolation("unsupported device type %r" % type(dev).__name__)
            rows[type(dev)].append(dev._key)
        # a mem entry of another type is refused in _settle's order, as None
        regions = tuple([(r.base, r.size, int(r.flags)) if isinstance(r, MemRegion) else None
                         for r in mem])
        self._settle(name, frozenset(cpus), regions, *map(tuple, rows.values()), frozenset(irqs),
                     workload)

    def _settle(self, name, cpus, regions, mmio, pci, ports, irqs, workload) -> None:
        """Check the config whose rows, in tuples, each passed their kind's checks,
        and set its fields, the rows sorted into the canonical order."""
        if not NAME_RE.match(name):
            raise InvariantViolation("cell name must match [A-Za-z0-9_-]+")
        if len(name.encode()) > MAX_NAME_BYTES:
            raise InvariantViolation("cell name longer than %d bytes" % MAX_NAME_BYTES)
        if not cpus:
            raise InvariantViolation("a cell needs at least one CPU")
        if not regions:
            raise InvariantViolation("a cell needs memory")
        for ids, what in (cpus, "cpu id"), (irqs, "irq number"):
            if ids and not 0 <= min(ids) <= max(ids) <= MAX_ID:
                check_ids(ids, what)  # names the first out of range
        if None in regions:
            raise InvariantViolation("mem entries must be memory regions")
        if len(regions) > 1:  # a single row is sorted
            regions = tuple(sorted(regions, key=itemgetter(0)))
        mmio, pci, ports = sort_devices(mmio, pci, ports)
        if (len(set(mmio)) != len(mmio) or len(set(pci)) != len(pci)
                or len(set(ports)) != len(ports)):
            raise InvariantViolation("a device is listed twice")
        check_no_overlap(regions, mmio, ports)
        self._freeze(name, cpus, regions, mmio, pci, ports, irqs, workload)
        CellConfig._masks.__set__(self, (None, None))  # the slot's setter: Value refuses

    mem = property(lambda self: tuple(starmap(MemRegion, self.regions)))
    devices = property(lambda self: tuple(layout_resources(  # MMIO, PCI, then port ranges
        ((MmioDevice, self.mmio), (PciDevice, self.pci), (IoPortRange, self.ports)))))

    @property
    def _args(self) -> tuple:
        return self.name, self.cpus, self.mem, self.devices, self.irqs, self.workload

    def __reduce__(self):  # built anew from the value objects the constructor takes
        return type(self), self._args

    def masks(self, platform: MachinePlatform) -> tuple:
        """The CPU, device and IRQ masks of its units on the platform (MachinePlatform.masks),
        derived once per platform: a claim's validation and its transfer share them."""
        if self._masks[0] is not platform:
            CellConfig._masks.__set__(self, (platform, platform.masks(
                self.cpus, self.mmio + self.pci + self.ports, self.irqs)))
        return self._masks[1]

    def units(self) -> tuple:
        """The unit resources the cell owns: its CPUs, devices and IRQ lines."""
        return (tuple(Cpu(index) for index in sorted(self.cpus)) + self.devices
                + tuple(IrqLine(number) for number in sorted(self.irqs)))


# --- DSL parsing ------------------------------------------------------------

_WORKLOAD_NAMES = {kind.value: kind for kind in WorkloadKind}


def parse_config(text: str) -> CellConfig:
    """Parse the cell DSL: `machine.read_directives` with the head
    `cell "<name>"` and this own directive:

        run idle|stress|latency-responder|script <path>
    """
    workload: list = []

    def read_run(tokens, lineno):
        if workload:
            raise ConfigSemanticError("duplicate run directive", lineno)
        if len(tokens) < 2:
            raise ConfigSyntaxError(lineno, tokens[0][1], "run needs a workload name")
        kind_text, col = tokens[1]
        kind = _WORKLOAD_NAMES.get(kind_text)
        if kind is None:
            raise ConfigSyntaxError(
                lineno, col, "unknown workload %r (known: %s)"
                % (kind_text, ", ".join(sorted(_WORKLOAD_NAMES))))
        require_args(tokens, lineno, 2 if kind is WorkloadKind.SCRIPT else 1)
        try:
            workload.append(Workload(kind, tokens[2][0] if kind is WorkloadKind.SCRIPT else None))
        except InvariantViolation as exc:
            raise ConfigSemanticError(str(exc), lineno)

    name, runs = read_directives(text, "cell", {"run": read_run})
    rows = gather(runs)
    if not rows.get(Cpu):
        raise ConfigSemanticError("config declares no CPUs")
    if not rows.get(MemRegion):
        raise ConfigSemanticError("config declares no memory")
    try:
        return _config(name, frozenset(rows[Cpu]), rows, frozenset(rows.get(IrqLine, ())),
                       workload[0] if workload else Workload())
    except InvariantViolation as exc:
        raise ConfigSemanticError(str(exc))


def _config(name, cpus, rows: dict, irqs, workload) -> CellConfig:
    """The config of gather()'s rows, each checked as its kind's constructor checks it."""
    cfg = CellConfig.__new__(CellConfig)
    cfg._settle(name, cpus, *map(tuple, map(rows.get, _ROW_KINDS, repeat(()))), irqs, workload)
    return cfg


_ROW_KINDS = (MemRegion, MmioDevice, PciDevice, IoPortRange)  # _settle's row arguments


# --- validation against a platform ------------------------------------------

class ViolationKind(Enum):
    NO_SUCH_RESOURCE = "NoSuchResource"
    NOT_OWNED_BY_ROOT = "NotOwnedByRoot"
    PERMISSION_EXCEEDED = "PermissionExceeded"


class Violation(Value):
    __slots__ = ("kind", "resource", "message")

    def __init__(self, kind: ViolationKind, resource: object, message: str = ""):
        self._freeze(kind, resource, message)

    def __str__(self):
        text = "%s(%s)" % (self.kind.value, _describe(self.resource))
        return "%s: %s" % (text, self.message) if self.message else text


_DESCRIBE = {Cpu: lambda r: "cpu %d" % r.index,
             MemRegion: lambda r: "mem [0x%x, 0x%x)" % (r.base, r.end),
             MmioDevice: lambda r: "mmio %s@0x%x" % (r.name, r.base),
             PciDevice: lambda r: "pci 0x%04x" % r.bdf,
             IoPortRange: lambda r: "ioport [0x%x, 0x%x)" % (r.base, r.end),
             IrqLine: lambda r: "irq %d" % r.number}


def _describe(resource) -> str:  # how a violation or an audit names a resource
    return _DESCRIBE.get(type(resource), repr)(resource)


def validate_against(cfg: CellConfig, platform: MachinePlatform,
                     ledger: Optional["OwnershipLedger"] = None) -> list[Violation]:
    """One violation per requested resource the platform lacks or does not
    grant these permissions on and, given a ledger, per one root does not
    own: an empty list means a create with this config would succeed. Units
    are asked of the config's masks (CellConfig.masks), regions of the
    platform's and the ledger's rows; a value object is built only to be
    reported."""
    masks, rows = cfg.masks(platform), cfg.mmio + cfg.pci + cfg.ports
    violations = []
    if list(map(int.bit_count, masks)) != [len(cfg.cpus), len(rows), len(cfg.irqs)]:
        cpu_count, device_bits = platform.full_masks[CPU].bit_length(), platform.device_bits
        missing = ([Cpu(index) for index in sorted(cfg.cpus) if index >= cpu_count]
                   + [dev for dev, row in zip(cfg.devices, rows) if row not in device_bits]
                   + [IrqLine(number) for number in sorted(cfg.irqs - platform.irq_numbers)])
        violations = [Violation(ViolationKind.NO_SUCH_RESOURCE, resource) for resource in missing]
    if ledger is not None:  # the units root (0) lacks, in the order the config lists them
        for kind, (mask, held) in enumerate(zip(masks, ledger.masks_of(0))):
            for unit in platform.units(kind, mask & ~held) if mask & ~held else ():
                owner = ledger.owner_of_unit(unit)  # None if the ledger's masks lost it
                violations.append(Violation(ViolationKind.NOT_OWNED_BY_ROOT, unit,
                                            "held by no cell" if owner is None
                                            else "owned by cell %d" % owner))

    for row in cfg.regions:
        base, size, flags = row
        host = platform.host_region(base, base + size)
        if host is None:
            violations.append(Violation(ViolationKind.NO_SUCH_RESOURCE, MemRegion(*row)))
        elif flags & ~host[2]:
            violations.append(Violation(ViolationKind.PERMISSION_EXCEEDED, MemRegion(*row),
                                        "platform region allows only %r" % PermFlags(host[2])))
        elif ledger is not None:
            owner = ledger.range_owner(base, base + size)
            if owner != 0:
                violations.append(Violation(
                    ViolationKind.NOT_OWNED_BY_ROOT, MemRegion(*row),
                    "not root-owned" if owner is None else "owned by cell %d" % owner))
    return violations


# --- binary codec -----------------------------------------------------------

MAGIC = 0x4A484346
VERSION = 3

_HEADER = struct.Struct("<IH32s")
_U32 = struct.Struct("<I")
_RUN = struct.Struct("<BI")
_WORKLOAD = struct.Struct("<BH")

# A resource list is a u32 run count and runs of consecutive resources of
# one kind, (kind, rows) as a platform's layout holds them. A run is a kind
# byte (the index here), a u32 count and that many bodies: a CPU's or IRQ
# line's u32, or the kind's row, an MMIO name NUL-padded to 16 bytes.
_KINDS = (
    (Cpu, _U32),
    (MemRegion, struct.Struct("<QQB")),
    (MmioDevice, struct.Struct("<%dsQQ" % (MMIO_NAME_BYTES + 1))),
    (PciDevice, struct.Struct("<H")),
    (IoPortRange, struct.Struct("<HI")),  # a port range may span all 0x10000 ports
    (IrqLine, _U32),
)
_KIND_CODES = {kind: code for code, (kind, _) in enumerate(_KINDS)}
_N_KINDS = len(_KINDS)
# A name field MmioDevice takes: its name rule and length, then NUL padding.
_MMIO_FIELD = re.compile(rb"[A-Za-z0-9_-]{1,%d}\0*" % MMIO_NAME_BYTES)

_WORKLOADS = tuple(WorkloadKind)
# by code: each workload without a path, built once, as hashing an Enum member is Python code
_PLAIN_WORKLOADS = tuple(None if kind is WorkloadKind.SCRIPT else Workload(kind)
                         for kind in _WORKLOADS)


def put_runs(out: bytearray, runs) -> None:
    """Append the resource list of (kind, rows) runs; empty runs are left out."""
    runs = [run for run in runs if run[1]]
    out += _U32.pack(len(runs))
    for kind, rows in runs:
        code = _KIND_CODES[kind]
        body = _KINDS[code][1]
        out += _RUN.pack(code, len(rows))
        if body is _U32:
            out += struct.pack("<%dI" % len(rows), *rows)
        elif kind is MmioDevice:
            out += b"".join(body.pack(name.encode(), base, size) for name, base, size in rows)
        else:
            out += b"".join(starmap(body.pack, rows))


def emit_binary(cfg: CellConfig) -> bytes:
    """Serialize a config to the canonical little-endian byte stream.

    Emission is deterministic and sorted, so emitting the result of a
    load reproduces the input byte-for-byte.
    """
    out = bytearray(_HEADER.pack(MAGIC, VERSION, cfg.name.encode("utf-8")))
    put_runs(out, ((Cpu, sorted(cfg.cpus)), (MemRegion, cfg.regions), (MmioDevice, cfg.mmio),
                   (PciDevice, cfg.pci), (IoPortRange, cfg.ports), (IrqLine, sorted(cfg.irqs))))
    path = (cfg.workload.script_path or "").encode("utf-8")
    out += _WORKLOAD.pack(_WORKLOADS.index(cfg.workload.kind), len(path)) + path
    return bytes(out)


def short(data: bytes, count: int, start: int) -> TruncatedRecord:
    """The refusal of count bytes at start, past the end of the data."""
    return TruncatedRecord("need %d bytes at offset %d, have %d"
                           % (count, start, len(data) - start))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, spec: struct.Struct) -> tuple:
        try:
            fields = spec.unpack_from(self.data, self.offset)
        except struct.error:  # fewer than spec.size bytes left
            raise short(self.data, spec.size, self.offset) from None
        self.offset += spec.size
        return fields

    def take_raw(self, count: int) -> bytes:
        start = self.offset
        if start + count > len(self.data):
            raise short(self.data, count, start)
        self.offset = start + count
        return self.data[start:start + count]


def from_code(table: tuple, code: int, what: str):
    """The entry a coded field's table holds at its code, else the refusal."""
    if code < len(table) and table[code] is not None:
        return table[code]
    raise InvariantViolation("unknown %s %d" % (what, code))


def _unpad(raw: bytes, what: str) -> str:
    name, _, padding = raw.partition(b"\0")
    if padding.strip(b"\0"):
        raise InvariantViolation("%s padding must be zero" % what)
    try:  # decode_utf8's, without its call
        return name.decode()
    except UnicodeDecodeError:
        raise InvariantViolation("%s is not valid UTF-8" % what) from None


def take_runs(data: bytes, at: int) -> tuple:
    """The (kind, rows) runs of the resource list at offset at, and the offset
    after it. Each run is read with one unpack and each row checked as its
    kind's constructor checks it, with no Python call per run or row: a row
    that fails the test is handed to the constructor, which refuses it."""
    end, need = len(data), _U32.size
    try:
        (n_runs,) = _U32.unpack_from(data, at)
        at += need
        runs, need = [], _RUN.size
        for _ in range(n_runs):
            code, count = _RUN.unpack_from(data, at)
            at += need
            if code >= _N_KINDS:
                raise InvariantViolation("unknown resource kind %d" % code)
            kind, body = _KINDS[code]
            nbytes = count * body.size
            if at + nbytes > end:
                raise short(data, nbytes, at)
            raw, at = data[at:at + nbytes], at + nbytes
            if body is _U32:
                runs.append((kind, struct.unpack("<%dI" % count, raw)))
                continue
            rows = tuple(body.iter_unpack(raw))
            if kind is MemRegion:  # perms_from_bits', then _check_region's rules
                for base, size, bits in rows:
                    if (bits > 0xF or size <= 0 or (base | size) % PAGE_SIZE
                            or base + size > U64_MAX):
                        MemRegion(base, size, bits)
            elif kind is MmioDevice:  # the name field's rules, then the region's
                named = []
                for field, base, size in rows:
                    if (_MMIO_FIELD.fullmatch(field) is None or size <= 0
                            or (base | size) % PAGE_SIZE or base + size > U64_MAX):
                        MmioDevice(_unpad(field, "device name"), base, size)
                    named.append((field.rstrip(b"\0").decode(), base, size))
                rows = tuple(named)
            elif kind is IoPortRange:
                for base, length in rows:
                    if not 0 < length <= 0x10000 - base:
                        IoPortRange(base, length)
            runs.append((kind, rows))
    except struct.error:  # at is the cut record's start
        raise short(data, need, at) from None
    return runs, at


def load_binary(data: bytes) -> CellConfig:
    """Decode a byte stream produced by emit_binary."""
    end = len(data)
    if end < _HEADER.size:
        raise short(data, _HEADER.size, 0)
    magic, version, raw_name = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise BadMagic("magic 0x%08x, expected 0x%08x" % (magic, MAGIC))
    if version != VERSION:
        raise UnsupportedVersion("version %d, expected %d" % (version, VERSION))
    name = _unpad(raw_name, "cell name")

    runs, at = take_runs(data, _HEADER.size)
    if at + _WORKLOAD.size > end:
        raise short(data, _WORKLOAD.size, at)
    code, path_len = _WORKLOAD.unpack_from(data, at)
    kind = _WORKLOADS[code] if code < len(_WORKLOADS) else from_code(
        _WORKLOADS, code, "workload code")
    at += _WORKLOAD.size
    if at + path_len > end:
        raise short(data, path_len, at)
    if at + path_len != end:
        raise InvariantViolation(
            "%d trailing bytes after the workload record" % (end - at - path_len))
    # Workload refuses a script without a path and a path on any other kind
    workload = None if path_len else _PLAIN_WORKLOADS[code]
    if workload is None:
        raw_path = data[at:]
        workload = Workload(kind, decode_utf8(raw_path, "script path") if raw_path else None)
    rows = gather(runs)
    cpus, irqs = rows.get(Cpu, ()), rows.get(IrqLine, ())
    cpu_set, irq_set = frozenset(cpus), frozenset(irqs)  # CellConfig keeps these very sets
    if len(cpu_set) != len(cpus):
        raise InvariantViolation("duplicate cpu ids in stream")
    if len(irq_set) != len(irqs):
        raise InvariantViolation("duplicate irq numbers in stream")
    return _config(name, cpu_set, rows, irq_set, workload)
