"""Cell configurations: the declarative description of a partition.

A config names the resources a cell is built from (CPUs, memory,
devices, IRQ lines), the communication channels it expects, and the
workload the guest runs.  Configs are parsed from a line-based DSL,
validated against a platform plus ownership ledger, and serialized to
a versioned little-endian binary format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

from ._dsl import (
    NAME_RE,
    iter_directives,
    parse_dec,
    parse_hex,
    parse_id_list,
    parse_plain_name,
    parse_quoted_name,
    require_args,
)
from .errors import (
    BadMagic,
    ConfigSemanticError,
    ConfigSyntaxError,
    InvariantViolation,
    TruncatedRecord,
    UnsupportedVersion,
)
from .machine import (
    PAGE_SIZE,
    Cpu,
    IoPortRange,
    IrqLine,
    MachinePlatform,
    MemRegion,
    MmioDevice,
    PciDevice,
    PermFlags,
    parse_perms,
)

if TYPE_CHECKING:
    from .hvcore import OwnershipLedger

MAX_NAME_BYTES = 31


class WorkloadKind(Enum):
    IDLE = "idle"
    STRESS = "stress"
    LATENCY_RESPONDER = "latency-responder"
    SCRIPT = "script"


@dataclass(frozen=True)
class Workload:
    kind: WorkloadKind = WorkloadKind.IDLE
    script_path: Optional[str] = None

    def __post_init__(self):
        if self.kind is WorkloadKind.SCRIPT:
            if not self.script_path:
                raise InvariantViolation("script workload needs a path")
        elif self.script_path is not None:
            raise InvariantViolation("only script workloads carry a path")


@dataclass(frozen=True)
class CommDecl:
    """Declared shared-memory channel towards a peer cell."""

    peer: str
    size: int
    vectors: int

    def __post_init__(self):
        if not NAME_RE.match(self.peer):
            raise InvariantViolation("peer name must match [A-Za-z0-9_-]+")
        if len(self.peer.encode()) > MAX_NAME_BYTES:
            raise InvariantViolation("peer name longer than %d bytes" % MAX_NAME_BYTES)
        if self.size <= 0 or self.size % PAGE_SIZE:
            raise InvariantViolation("comm size must be positive and page-aligned")
        if self.size > (1 << 64) - 1:
            raise InvariantViolation("comm size overflows 64 bits")
        if not 1 <= self.vectors <= 0xFFFF:
            raise InvariantViolation("comm vectors must lie in 1..65535")


_DEVICE_SORT_CODE = {MmioDevice: 0, PciDevice: 1, IoPortRange: 2}


def _device_sort_key(dev):
    code = _DEVICE_SORT_CODE[type(dev)]
    if isinstance(dev, MmioDevice):
        return (code, dev.name, dev.base)
    if isinstance(dev, PciDevice):
        return (code, "", dev.bdf)
    return (code, "", dev.base)


@dataclass(frozen=True)
class CellConfig:
    """Immutable, canonically ordered cell description.

    Field order is normalized on construction (cpus/irqs as frozensets,
    regions sorted by base, devices by kind) so that structural equality
    and canonical serialization coincide.
    """

    name: str
    cpus: frozenset = frozenset()
    mem: tuple = ()
    devices: tuple = ()
    irqs: frozenset = frozenset()
    comm: tuple = ()
    workload: Workload = Workload()

    def __post_init__(self):
        object.__setattr__(self, "cpus", frozenset(self.cpus))
        object.__setattr__(self, "mem", tuple(sorted(self.mem, key=lambda r: r.base)))
        object.__setattr__(self, "devices", tuple(sorted(self.devices, key=_device_sort_key)))
        object.__setattr__(self, "irqs", frozenset(self.irqs))
        object.__setattr__(
            self, "comm",
            tuple(sorted(self.comm, key=lambda c: (c.peer, c.size, c.vectors))))
        self._validate()

    def _validate(self):
        if not NAME_RE.match(self.name):
            raise InvariantViolation("cell name must match [A-Za-z0-9_-]+")
        if len(self.name.encode()) > MAX_NAME_BYTES:
            raise InvariantViolation("cell name longer than %d bytes" % MAX_NAME_BYTES)
        if not self.cpus:
            raise InvariantViolation("a cell needs at least one CPU")
        if not self.mem:
            raise InvariantViolation("a cell needs memory")
        for cpu in self.cpus:
            if not 0 <= cpu <= 0xFFFFFFFF:
                raise InvariantViolation("cpu id out of range: %d" % cpu)
        for irq in self.irqs:
            if not 0 <= irq <= 0xFFFFFFFF:
                raise InvariantViolation("irq number out of range: %d" % irq)
        for region in self.mem:
            if not isinstance(region, MemRegion):
                raise InvariantViolation("mem entries must be memory regions")
        for dev in self.devices:
            if type(dev) not in _DEVICE_SORT_CODE:
                raise InvariantViolation("unsupported device type %r" % type(dev).__name__)
        intervals = [(r.base, r.end, r) for r in self.mem]
        intervals += [(d.base, d.end, d) for d in self.devices if isinstance(d, MmioDevice)]
        intervals.sort(key=lambda t: t[0])
        for (_, prev_end, prev), (base, _, cur) in zip(intervals, intervals[1:]):
            if base < prev_end:
                raise InvariantViolation("config ranges overlap: %r and %r" % (prev, cur))


# --- DSL parsing ------------------------------------------------------------

_WORKLOAD_NAMES = {
    "idle": WorkloadKind.IDLE,
    "stress": WorkloadKind.STRESS,
    "latency-responder": WorkloadKind.LATENCY_RESPONDER,
    "script": WorkloadKind.SCRIPT,
}


def parse_config(text: str) -> CellConfig:
    """Parse the cell DSL.

    Grammar (line-oriented, `#` starts a comment):

        cell "<name>"
        cpu <list>                      # e.g. 2,3 or 0-1,3
        mem <hex-base> <hex-size> <perm-string>
        mmio <name> <hex-base> <hex-size>
        pci <bdf-hex>
        ioport <hex-base> <hex-len>
        irq <list>
        comm peer=<name> size=<hex> vectors=<n>
        run idle|stress|latency-responder|script <path>
    """
    name: Optional[str] = None
    cpus: set[int] = set()
    mem: list[MemRegion] = []
    devices: list = []
    irqs: set[int] = set()
    comm: list[CommDecl] = []
    workload: Optional[Workload] = None

    for lineno, tokens in iter_directives(text):
        keyword, kw_col = tokens[0]
        if keyword == "cell":
            require_args(tokens, lineno, 1)
            if name is not None:
                raise ConfigSemanticError("duplicate cell directive", lineno)
            cell_name = parse_quoted_name(tokens[1], lineno, "cell name")
            if len(cell_name.encode()) > MAX_NAME_BYTES:
                raise ConfigSemanticError(
                    "cell name longer than %d bytes" % MAX_NAME_BYTES, lineno)
            name = cell_name
        elif keyword == "cpu":
            require_args(tokens, lineno, 1)
            for idx in parse_id_list(tokens[1], lineno, "cpu list"):
                if idx in cpus:
                    raise ConfigSemanticError("cpu %d listed twice" % idx, lineno)
                cpus.add(idx)
        elif keyword == "mem":
            require_args(tokens, lineno, 3)
            base = parse_hex(tokens[1], lineno, "mem base")
            size = parse_hex(tokens[2], lineno, "mem size")
            perm_text, perm_col = tokens[3]
            try:
                flags = parse_perms(perm_text)
            except ValueError as exc:
                raise ConfigSyntaxError(lineno, perm_col, str(exc))
            try:
                mem.append(MemRegion(base, size, flags))
            except InvariantViolation as exc:
                raise ConfigSemanticError(str(exc), lineno)
        elif keyword == "mmio":
            require_args(tokens, lineno, 3)
            dev_name = parse_plain_name(tokens[1], lineno, "mmio name")
            base = parse_hex(tokens[2], lineno, "mmio base")
            size = parse_hex(tokens[3], lineno, "mmio size")
            try:
                devices.append(MmioDevice(dev_name, base, size))
            except InvariantViolation as exc:
                raise ConfigSemanticError(str(exc), lineno)
        elif keyword == "pci":
            require_args(tokens, lineno, 1)
            bdf = parse_hex(tokens[1], lineno, "pci bdf")
            try:
                devices.append(PciDevice(bdf))
            except InvariantViolation as exc:
                raise ConfigSemanticError(str(exc), lineno)
        elif keyword == "ioport":
            require_args(tokens, lineno, 2)
            base = parse_hex(tokens[1], lineno, "ioport base")
            length = parse_hex(tokens[2], lineno, "ioport len")
            try:
                devices.append(IoPortRange(base, length))
            except InvariantViolation as exc:
                raise ConfigSemanticError(str(exc), lineno)
        elif keyword == "irq":
            require_args(tokens, lineno, 1)
            for num in parse_id_list(tokens[1], lineno, "irq list"):
                if num in irqs:
                    raise ConfigSemanticError("irq %d listed twice" % num, lineno)
                irqs.add(num)
        elif keyword == "comm":
            comm.append(_parse_comm(tokens, lineno))
        elif keyword == "run":
            if workload is not None:
                raise ConfigSemanticError("duplicate run directive", lineno)
            workload = _parse_run(tokens, lineno)
        else:
            raise ConfigSyntaxError(lineno, kw_col, "unknown directive %r" % keyword)

    if name is None:
        raise ConfigSemanticError('missing cell "<name>" directive')
    if not cpus:
        raise ConfigSemanticError("config declares no CPUs")
    if not mem:
        raise ConfigSemanticError("config declares no memory")
    try:
        return CellConfig(
            name=name, cpus=frozenset(cpus), mem=tuple(mem), devices=tuple(devices),
            irqs=frozenset(irqs), comm=tuple(comm),
            workload=workload if workload is not None else Workload())
    except InvariantViolation as exc:
        raise ConfigSemanticError(str(exc))


def _parse_comm(tokens, lineno) -> CommDecl:
    keyword, kw_col = tokens[0]
    kv = {}
    for text, col in tokens[1:]:
        key, sep, value = text.partition("=")
        if not sep or key not in ("peer", "size", "vectors"):
            raise ConfigSyntaxError(lineno, col, "bad comm parameter %r" % text)
        kv[key] = (value, col)
    missing = {"peer", "size", "vectors"} - kv.keys()
    if missing:
        raise ConfigSyntaxError(
            lineno, kw_col, "comm misses %s" % ", ".join(sorted(missing)))
    peer = parse_plain_name(kv["peer"], lineno, "comm peer")
    size = parse_hex(kv["size"], lineno, "comm size")
    vectors = parse_dec(kv["vectors"], lineno, "comm vectors")
    try:
        return CommDecl(peer=peer, size=size, vectors=vectors)
    except InvariantViolation as exc:
        raise ConfigSemanticError(str(exc), lineno)


def _parse_run(tokens, lineno) -> Workload:
    keyword, kw_col = tokens[0]
    if len(tokens) < 2:
        raise ConfigSyntaxError(lineno, kw_col, "run needs a workload name")
    kind_text, col = tokens[1]
    kind = _WORKLOAD_NAMES.get(kind_text)
    if kind is None:
        raise ConfigSyntaxError(
            lineno, col, "unknown workload %r (known: %s)"
            % (kind_text, ", ".join(sorted(_WORKLOAD_NAMES))))
    if kind is WorkloadKind.SCRIPT:
        require_args(tokens, lineno, 2)
        return Workload(kind=kind, script_path=tokens[2][0])
    require_args(tokens, lineno, 1)
    return Workload(kind=kind)


# --- validation against a platform ------------------------------------------

class ViolationKind(Enum):
    NO_SUCH_RESOURCE = "NoSuchResource"
    NOT_OWNED_BY_ROOT = "NotOwnedByRoot"
    PERMISSION_EXCEEDED = "PermissionExceeded"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    resource: object
    message: str = ""

    def __str__(self):
        text = "%s(%s)" % (self.kind.value, _describe(self.resource))
        return "%s: %s" % (text, self.message) if self.message else text


def _describe(resource) -> str:
    if isinstance(resource, Cpu):
        return "cpu %d" % resource.index
    if isinstance(resource, MemRegion):
        return "mem [0x%x, 0x%x)" % (resource.base, resource.end)
    if isinstance(resource, MmioDevice):
        return "mmio %s@0x%x" % (resource.name, resource.base)
    if isinstance(resource, PciDevice):
        return "pci 0x%04x" % resource.bdf
    if isinstance(resource, IoPortRange):
        return "ioport [0x%x, 0x%x)" % (resource.base, resource.end)
    if isinstance(resource, IrqLine):
        return "irq %d" % resource.number
    return repr(resource)


def validate_against(cfg: CellConfig, platform: MachinePlatform,
                     ledger: "OwnershipLedger") -> list[Violation]:
    """Check that every requested resource exists and is root-owned.

    Returns one violation per offending resource; an empty list means
    a create with this config would succeed against the same ledger.
    """
    violations: list[Violation] = []

    def check_unit(resource):
        owner = ledger.owner_of_unit(resource)
        if owner is None:
            violations.append(Violation(ViolationKind.NO_SUCH_RESOURCE, resource))
        elif owner != 0:
            violations.append(Violation(
                ViolationKind.NOT_OWNED_BY_ROOT, resource,
                "owned by cell %d" % owner))

    for index in sorted(cfg.cpus):
        check_unit(Cpu(index))

    for region in cfg.mem:
        host = platform.host_region(region.base, region.end)
        if host is None:
            violations.append(Violation(ViolationKind.NO_SUCH_RESOURCE, region))
            continue
        if region.flags & ~host.flags:
            violations.append(Violation(
                ViolationKind.PERMISSION_EXCEEDED, region,
                "platform region allows only %r" % host.flags))
            continue
        owner = ledger.range_owner(region.base, region.end)
        if owner != 0:
            violations.append(Violation(
                ViolationKind.NOT_OWNED_BY_ROOT, region,
                "not root-owned" if owner is None else "owned by cell %d" % owner))

    for dev in cfg.devices:
        check_unit(dev)

    for number in sorted(cfg.irqs):
        check_unit(IrqLine(number))

    return violations


# --- binary codec -----------------------------------------------------------

MAGIC = 0x4A484346
VERSION = 1

_HEADER = struct.Struct("<IHHHHHH32s")
_CPU = struct.Struct("<I")
_MEM = struct.Struct("<QQI")
_DEV = struct.Struct("<B16sQQ")
_IRQ = struct.Struct("<I")
_COMM = struct.Struct("<32sQH")
_WORKLOAD = struct.Struct("<BH")

_DEV_MMIO, _DEV_PCI, _DEV_IOPORT = 0, 1, 2
_WORKLOAD_CODES = {
    WorkloadKind.IDLE: 0,
    WorkloadKind.STRESS: 1,
    WorkloadKind.LATENCY_RESPONDER: 2,
    WorkloadKind.SCRIPT: 3,
}
_WORKLOAD_BY_CODE = {v: k for k, v in _WORKLOAD_CODES.items()}


def _padded(name: str, width: int) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) >= width:
        raise InvariantViolation("name %r does not fit %d bytes" % (name, width))
    return raw.ljust(width, b"\0")


def emit_binary(cfg: CellConfig) -> bytes:
    """Serialize a config to the canonical little-endian byte stream.

    Emission is deterministic and sorted, so emitting the result of a
    load reproduces the input byte-for-byte.
    """
    for count, what in ((len(cfg.cpus), "cpus"), (len(cfg.mem), "mem"),
                        (len(cfg.devices), "devices"), (len(cfg.irqs), "irqs"),
                        (len(cfg.comm), "comm")):
        if count > 0xFFFF:
            raise InvariantViolation("too many %s for the binary format" % what)

    out = bytearray()
    out += _HEADER.pack(
        MAGIC, VERSION, len(cfg.cpus), len(cfg.mem), len(cfg.devices),
        len(cfg.irqs), len(cfg.comm), _padded(cfg.name, 32))
    for index in sorted(cfg.cpus):
        out += _CPU.pack(index)
    for region in cfg.mem:
        out += _MEM.pack(region.base, region.size, int(region.flags))
    for dev in cfg.devices:
        if isinstance(dev, MmioDevice):
            out += _DEV.pack(_DEV_MMIO, _padded(dev.name, 16), dev.base, dev.size)
        elif isinstance(dev, PciDevice):
            out += _DEV.pack(_DEV_PCI, b"", dev.bdf, 0)
        else:
            out += _DEV.pack(_DEV_IOPORT, b"", dev.base, dev.length)
    for number in sorted(cfg.irqs):
        out += _IRQ.pack(number)
    for decl in cfg.comm:
        out += _COMM.pack(_padded(decl.peer, 32), decl.size, decl.vectors)
    path = (cfg.workload.script_path or "").encode("utf-8")
    out += _WORKLOAD.pack(_WORKLOAD_CODES[cfg.workload.kind], len(path))
    out += path
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, spec: struct.Struct):
        if self.offset + spec.size > len(self.data):
            raise TruncatedRecord(
                "need %d bytes at offset %d, have %d"
                % (spec.size, self.offset, len(self.data) - self.offset))
        values = spec.unpack_from(self.data, self.offset)
        self.offset += spec.size
        return values

    def take_raw(self, count: int) -> bytes:
        if self.offset + count > len(self.data):
            raise TruncatedRecord(
                "need %d bytes at offset %d, have %d"
                % (count, self.offset, len(self.data) - self.offset))
        raw = self.data[self.offset:self.offset + count]
        self.offset += count
        return raw


def _unpad(raw: bytes, what: str) -> str:
    name, _, padding = raw.partition(b"\0")
    if padding.strip(b"\0"):
        raise InvariantViolation("%s padding must be zero" % what)
    try:
        return name.decode("utf-8")
    except UnicodeDecodeError:
        raise InvariantViolation("%s is not valid UTF-8" % what)


def load_binary(data: bytes) -> CellConfig:
    """Decode a byte stream produced by emit_binary."""
    reader = _Reader(data)
    (magic, version, cpu_count, mem_count, dev_count,
     irq_count, comm_count, raw_name) = reader.take(_HEADER)
    if magic != MAGIC:
        raise BadMagic("magic 0x%08x, expected 0x%08x" % (magic, MAGIC))
    if version != VERSION:
        raise UnsupportedVersion("version %d, expected %d" % (version, VERSION))
    name = _unpad(raw_name, "cell name")

    cpus = [reader.take(_CPU)[0] for _ in range(cpu_count)]
    mem = []
    for _ in range(mem_count):
        base, size, flags = reader.take(_MEM)
        if flags & ~0xF:
            raise InvariantViolation("unknown permission bits 0x%x" % flags)
        mem.append(MemRegion(base, size, PermFlags(flags)))
    devices = []
    for _ in range(dev_count):
        kind, raw_dev_name, a, b = reader.take(_DEV)
        if kind == _DEV_MMIO:
            devices.append(MmioDevice(_unpad(raw_dev_name, "device name"), a, b))
        elif kind == _DEV_PCI:
            if raw_dev_name.strip(b"\0") or b:
                raise InvariantViolation("pci record carries stray fields")
            devices.append(PciDevice(a))
        elif kind == _DEV_IOPORT:
            if raw_dev_name.strip(b"\0"):
                raise InvariantViolation("ioport record carries stray fields")
            devices.append(IoPortRange(a, b))
        else:
            raise InvariantViolation("unknown device kind %d" % kind)
    irqs = [reader.take(_IRQ)[0] for _ in range(irq_count)]
    comm = []
    for _ in range(comm_count):
        raw_peer, size, vectors = reader.take(_COMM)
        comm.append(CommDecl(_unpad(raw_peer, "peer name"), size, vectors))
    workload_code, path_len = reader.take(_WORKLOAD)
    kind = _WORKLOAD_BY_CODE.get(workload_code)
    if kind is None:
        raise InvariantViolation("unknown workload code %d" % workload_code)
    raw_path = reader.take_raw(path_len)
    if reader.offset != len(data):
        raise InvariantViolation(
            "%d trailing bytes after the workload record" % (len(data) - reader.offset))
    if kind is WorkloadKind.SCRIPT:
        workload = Workload(kind=kind, script_path=raw_path.decode("utf-8"))
    else:
        if raw_path:
            raise InvariantViolation("non-script workload carries a path")
        workload = Workload(kind=kind)

    if len(set(cpus)) != len(cpus):
        raise InvariantViolation("duplicate cpu ids in stream")
    if len(set(irqs)) != len(irqs):
        raise InvariantViolation("duplicate irq numbers in stream")
    return CellConfig(
        name=name, cpus=frozenset(cpus), mem=tuple(mem), devices=tuple(devices),
        irqs=frozenset(irqs), comm=tuple(comm), workload=workload)
