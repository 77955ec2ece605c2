"""Cell configurations: the declarative description of a partition.

A config names the resources a cell is built from (CPUs, memory,
devices, IRQ lines) and the workload the guest runs.  Configs are
parsed from a line-based DSL, validated against a platform plus
ownership ledger, and serialized to a versioned little-endian binary
format.
"""

from __future__ import annotations

import struct
from enum import Enum
from itertools import starmap
from typing import TYPE_CHECKING, Optional

from ._dsl import NAME_RE, decode_utf8, require_args
from ._value import Value
from .errors import (
    BadMagic, ConfigSemanticError, ConfigSyntaxError, InvariantViolation, TruncatedRecord,
    UnsupportedVersion)
from .machine import (
    BASE, CPU, DEVICE, DEVICE_KEY, IRQ, MAX_NAME_BYTES, MMIO_NAME_BYTES, Cpu,
    IoPortRange, IrqLine, MachinePlatform, MemRegion, MmioDevice, PciDevice, _device_sort_key,
    check_ids, check_no_overlap, perms_from_bits, read_directives, resource_layout)

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

    Field order is normalized on construction (cpus/irqs as frozensets,
    regions sorted by base, devices by kind) so that structural equality
    and canonical serialization coincide.
    """

    # _masks, the last platform masks() was asked for and its masks, neither compares nor prints
    __slots__ = ("name", "cpus", "mem", "devices", "irqs", "workload", "_masks")

    def __init__(self, name, cpus=frozenset(), mem=(), devices=(), irqs=frozenset(),
                 workload=Workload()):
        # the device sort key checks each device's type, before the checks below
        self._freeze(name, frozenset(cpus), tuple(sorted(mem, key=BASE)),
                     tuple(sorted(devices, key=_device_sort_key)), frozenset(irqs), workload)
        if not NAME_RE.match(self.name):
            raise InvariantViolation("cell name must match [A-Za-z0-9_-]+")
        if len(self.name.encode()) > MAX_NAME_BYTES:
            raise InvariantViolation("cell name longer than %d bytes" % MAX_NAME_BYTES)
        if not self.cpus:
            raise InvariantViolation("a cell needs at least one CPU")
        if not self.mem:
            raise InvariantViolation("a cell needs memory")
        check_ids(self.cpus, "cpu id")
        check_ids(self.irqs, "irq number")
        for region in self.mem:
            if not isinstance(region, MemRegion):
                raise InvariantViolation("mem entries must be memory regions")
        if len(self.devices) > 1 and len(set(map(DEVICE_KEY, self.devices))) != len(self.devices):
            raise InvariantViolation("a device is listed twice")
        check_no_overlap(self.mem + tuple([d for d in self.devices if type(d) is MmioDevice]))
        check_no_overlap([d for d in self.devices if type(d) is IoPortRange])
        CellConfig._masks.__set__(self, (None, None))  # the slot's setter: Value refuses

    def masks(self, platform: MachinePlatform) -> tuple:
        """The CPU, device and IRQ masks of its units on the platform (MachinePlatform.bits),
        derived once per platform: a claim's validation and its transfer share them."""
        if self._masks[0] is not platform:
            bits = platform.bits
            CellConfig._masks.__set__(self, (platform, (
                bits(CPU, self.cpus), bits(DEVICE, self.devices), bits(IRQ, self.irqs))))
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
    cpus, irqs, mem, devices = _gather(runs)
    if not cpus:
        raise ConfigSemanticError("config declares no CPUs")
    if not mem:
        raise ConfigSemanticError("config declares no memory")
    try:
        return CellConfig(name=name, cpus=cpus, mem=mem, devices=devices, irqs=irqs,
                          workload=workload[0] if workload else Workload())
    except InvariantViolation as exc:
        raise ConfigSemanticError(str(exc))


def _gather(runs) -> tuple:
    """The CPU ids, IRQ numbers, memory regions and devices of (kind, items) runs."""
    cpus, irqs, mem, devices = [], [], [], []
    parts = {Cpu: cpus, IrqLine: irqs, MemRegion: mem}
    for kind, items in runs:
        parts.get(kind, devices).extend(items)
    return cpus, irqs, mem, devices


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
    own: an empty list means a create with this config would succeed. The
    platform is asked by id, with no mask built; root, of the config's masks
    (CellConfig.masks), each unit built only to be reported."""
    cpu_count, device_masks = platform.full_masks[CPU].bit_length(), platform.device_masks
    missing = ([Cpu(index) for index in sorted(cfg.cpus) if index >= cpu_count]
               + [dev for dev in cfg.devices if DEVICE_KEY(dev) not in device_masks]
               + [IrqLine(number) for number in sorted(cfg.irqs - platform.irq_numbers)])
    violations = [Violation(ViolationKind.NO_SUCH_RESOURCE, resource) for resource in missing]
    if ledger is not None:  # the units root (0) lacks, in the order the config lists them
        for kind, (mask, held) in enumerate(zip(cfg.masks(platform), ledger.masks_of(0))):
            for unit in platform.units(kind, mask & ~held) if mask & ~held else ():
                violations.append(Violation(ViolationKind.NOT_OWNED_BY_ROOT, unit,
                                            "owned by cell %d" % ledger.owner_of_unit(unit)))

    for region in cfg.mem:
        host = platform.host_region(region.base, region.end)
        if host is None:
            violations.append(Violation(ViolationKind.NO_SUCH_RESOURCE, region))
        elif int(region.flags) & ~int(host.flags):  # an IntFlag & costs ~1.5 us
            violations.append(Violation(ViolationKind.PERMISSION_EXCEEDED, region,
                                        "platform region allows only %r" % host.flags))
        elif ledger is not None:
            owner = ledger.range_owner(region.base, region.end)
            if owner != 0:
                violations.append(Violation(
                    ViolationKind.NOT_OWNED_BY_ROOT, region,
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
# one kind, (kind, items) as a platform's layout holds them. A run is a kind
# byte (the index here), a u32 count and that many bodies: a CPU's or IRQ
# line's u32, or the kind's fields in constructor order, an MMIO name
# NUL-padded to 16 bytes, with a getter of the fields and a builder here.
_KINDS = (
    (Cpu, _U32, None, None),
    (MemRegion, struct.Struct("<QQB"), lambda r: (r.base, r.size, r.flags),
     lambda base, size, bits: MemRegion(base, size, perms_from_bits(bits))),
    (MmioDevice, struct.Struct("<%dsQQ" % (MMIO_NAME_BYTES + 1)),
     lambda r: (r.name.encode("utf-8"), r.base, r.size),
     lambda raw, base, size: MmioDevice(_unpad(raw, "device name"), base, size)),
    (PciDevice, struct.Struct("<H"), lambda r: (r.bdf,), PciDevice),
    # a port range may span all 0x10000 ports
    (IoPortRange, struct.Struct("<HI"), lambda r: (r.base, r.length), IoPortRange),
    (IrqLine, _U32, None, None),
)
_KIND_CODES = {kind: code for code, (kind, *_) in enumerate(_KINDS)}

_WORKLOADS = tuple(WorkloadKind)


def put_runs(out: bytearray, runs) -> None:
    """Append the resource list of (kind, items) runs; empty runs are left out."""
    runs = [run for run in runs if run[1]]
    out += _U32.pack(len(runs))
    for kind, items in runs:
        code = _KIND_CODES[kind]
        _, body, fields, _ = _KINDS[code]
        out += _RUN.pack(code, len(items))
        out += (struct.pack("<%dI" % len(items), *items) if fields is None
                else b"".join(body.pack(*fields(item)) for item in items))


def emit_binary(cfg: CellConfig) -> bytes:
    """Serialize a config to the canonical little-endian byte stream.

    Emission is deterministic and sorted, so emitting the result of a
    load reproduces the input byte-for-byte.
    """
    out = bytearray(_HEADER.pack(MAGIC, VERSION, cfg.name.encode("utf-8")))
    put_runs(out, ((Cpu, sorted(cfg.cpus)),) + resource_layout(cfg.mem + cfg.devices)
             + ((IrqLine, sorted(cfg.irqs)),))
    path = (cfg.workload.script_path or "").encode("utf-8")
    out += _WORKLOAD.pack(_WORKLOADS.index(cfg.workload.kind), len(path)) + path
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, spec: struct.Struct) -> tuple:
        try:
            fields = spec.unpack_from(self.data, self.offset)
        except struct.error:  # fewer than spec.size bytes left
            raise self.short(spec.size, self.offset) from None
        self.offset += spec.size
        return fields

    def take_raw(self, count: int) -> bytes:
        start = self.offset
        if start + count > len(self.data):
            raise self.short(count, start)
        self.offset = start + count
        return self.data[start:start + count]

    def short(self, count: int, start: int) -> TruncatedRecord:
        """The refusal of count bytes at start, past the end of the data."""
        return TruncatedRecord("need %d bytes at offset %d, have %d"
                               % (count, start, len(self.data) - start))


def from_code(table: tuple, code: int, what: str):
    """The entry a coded field's table holds at its code, else the refusal."""
    if code < len(table) and table[code] is not None:
        return table[code]
    raise InvariantViolation("unknown %s %d" % (what, code))


def _unpad(raw: bytes, what: str) -> str:
    name, _, padding = raw.partition(b"\0")
    if padding.strip(b"\0"):
        raise InvariantViolation("%s padding must be zero" % what)
    return decode_utf8(name, what)


def take_runs(reader: _Reader) -> list:
    """The (kind, items) runs of the resource list at the reader."""
    (n_runs,) = reader.take(_U32)
    runs = []
    for _ in range(n_runs):
        code, count = reader.take(_RUN)
        kind, body, _, make = from_code(_KINDS, code, "resource kind")
        raw = reader.take_raw(count * body.size)
        runs.append((kind, struct.unpack("<%dI" % count, raw) if make is None
                     else tuple(starmap(make, body.iter_unpack(raw)))))
    return runs


def load_binary(data: bytes) -> CellConfig:
    """Decode a byte stream produced by emit_binary."""
    reader = _Reader(data)
    magic, version, raw_name = reader.take(_HEADER)
    if magic != MAGIC:
        raise BadMagic("magic 0x%08x, expected 0x%08x" % (magic, MAGIC))
    if version != VERSION:
        raise UnsupportedVersion("version %d, expected %d" % (version, VERSION))
    name = _unpad(raw_name, "cell name")

    cpus, irqs, mem, devices = _gather(take_runs(reader))
    workload_code, path_len = reader.take(_WORKLOAD)
    kind = from_code(_WORKLOADS, workload_code, "workload code")
    raw_path = reader.take_raw(path_len)
    if reader.offset != len(data):
        raise InvariantViolation(
            "%d trailing bytes after the workload record" % (len(data) - reader.offset))
    # Workload refuses a script without a path and a path on any other kind
    workload = Workload(kind, decode_utf8(raw_path, "script path") if raw_path else None)
    cpu_set, irq_set = frozenset(cpus), frozenset(irqs)  # CellConfig keeps these very sets
    for what, ids, unique in (("cpu ids", cpus, cpu_set), ("irq numbers", irqs, irq_set)):
        if len(unique) != len(ids):
            raise InvariantViolation("duplicate %s in stream" % what)
    return CellConfig(name, cpu_set, mem, devices, irq_set, workload)
