"""Cell configurations: the declarative description of a partition.

A config names the resources a cell is built from (CPUs, memory,
devices, IRQ lines) and the workload the guest runs.  Configs are
parsed from a line-based DSL, validated against a platform plus
ownership ledger, and serialized to a versioned little-endian binary
format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from itertools import chain, groupby, starmap
from typing import TYPE_CHECKING, Optional

from ._dsl import (
    NAME_RE,
    decode_utf8,
    iter_directives,
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
    MAX_NAME_BYTES,
    MMIO_NAME_BYTES,
    Cpu,
    IoPortRange,
    IrqLine,
    MachinePlatform,
    MemRegion,
    MmioDevice,
    PciDevice,
    parse_resource,
    perms_from_bits,
)

if TYPE_CHECKING:
    from .hvcore import OwnershipLedger


class WorkloadKind(Enum):
    IDLE = "idle"
    STRESS = "stress"
    LATENCY_RESPONDER = "latency-responder"
    SCRIPT = "script"


# Longest script path, in UTF-8 bytes: the binary codec stores its length in a u16.
MAX_PATH_BYTES = 0xFFFF


@dataclass(frozen=True)
class Workload:
    kind: WorkloadKind = WorkloadKind.IDLE
    script_path: Optional[str] = None

    def __post_init__(self):
        if self.kind is WorkloadKind.SCRIPT:
            if not self.script_path:
                raise InvariantViolation("script workload needs a path")
            if len(self.script_path.encode("utf-8")) > MAX_PATH_BYTES:
                raise InvariantViolation("script path longer than %d bytes" % MAX_PATH_BYTES)
        elif self.script_path is not None:
            raise InvariantViolation("only script workloads carry a path")


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
    workload: Workload = Workload()

    def __post_init__(self):
        object.__setattr__(self, "cpus", frozenset(self.cpus))
        object.__setattr__(self, "mem", tuple(sorted(self.mem, key=lambda r: r.base)))
        object.__setattr__(self, "devices", tuple(sorted(self.devices, key=_device_sort_key)))
        object.__setattr__(self, "irqs", frozenset(self.irqs))
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
        if len(set(self.devices)) != len(self.devices):
            raise InvariantViolation("a device is listed twice")
        intervals = [(r.base, r.end, r) for r in self.mem]
        intervals += [(d.base, d.end, d) for d in self.devices if isinstance(d, MmioDevice)]
        intervals.sort(key=lambda t: t[0])
        for (_, prev_end, prev), (base, _, cur) in zip(intervals, intervals[1:]):
            if base < prev_end:
                raise InvariantViolation("config ranges overlap: %r and %r" % (prev, cur))

    def units(self) -> tuple:
        """The unit resources the cell owns: its CPUs, devices and IRQ lines."""
        return (tuple(Cpu(index) for index in sorted(self.cpus)) + self.devices
                + tuple(IrqLine(number) for number in sorted(self.irqs)))


# --- DSL parsing ------------------------------------------------------------

_WORKLOAD_NAMES = {kind.value: kind for kind in WorkloadKind}


def parse_config(text: str) -> CellConfig:
    """Parse the cell DSL.

    Grammar (line-oriented, `#` starts a comment), plus the resource
    directives of `machine.parse_resource`:

        cell "<name>"
        run idle|stress|latency-responder|script <path>
    """
    name: Optional[str] = None
    resources: list = []
    seen_units: set = set()
    workload: Optional[Workload] = None

    for lineno, tokens in iter_directives(text):
        keyword = tokens[0][0]
        if keyword == "cell":
            require_args(tokens, lineno, 1)
            if name is not None:
                raise ConfigSemanticError("duplicate cell directive", lineno)
            cell_name = parse_quoted_name(tokens[1], lineno, "cell name")
            if len(cell_name.encode()) > MAX_NAME_BYTES:
                raise ConfigSemanticError(
                    "cell name longer than %d bytes" % MAX_NAME_BYTES, lineno)
            name = cell_name
        elif keyword == "run":
            if workload is not None:
                raise ConfigSemanticError("duplicate run directive", lineno)
            workload = _parse_run(tokens, lineno)
        else:
            for resource in parse_resource(tokens, lineno):
                if isinstance(resource, (Cpu, IrqLine)):
                    if resource in seen_units:
                        raise ConfigSemanticError(
                            "%s listed twice" % _describe(resource), lineno)
                    seen_units.add(resource)
                resources.append(resource)

    if name is None:
        raise ConfigSemanticError('missing cell "<name>" directive')
    cpus = frozenset(r.index for r in resources if isinstance(r, Cpu))
    mem = tuple(r for r in resources if isinstance(r, MemRegion))
    if not cpus:
        raise ConfigSemanticError("config declares no CPUs")
    if not mem:
        raise ConfigSemanticError("config declares no memory")
    try:
        return CellConfig(
            name=name, cpus=cpus, mem=mem,
            devices=tuple(r for r in resources if type(r) in _DEVICE_SORT_CODE),
            irqs=frozenset(r.number for r in resources if isinstance(r, IrqLine)),
            workload=workload if workload is not None else Workload())
    except InvariantViolation as exc:
        raise ConfigSemanticError(str(exc))


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
        try:
            return Workload(kind=kind, script_path=tokens[2][0])
        except InvariantViolation as exc:
            raise ConfigSemanticError(str(exc), lineno)
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
                     ledger: Optional["OwnershipLedger"] = None) -> list[Violation]:
    """One violation per requested resource the platform lacks or does not
    grant these permissions on and, given a ledger, per one root does not
    own: an empty list means a create with this config would succeed. CPUs
    and IRQ lines are compared as ints, built only to report or to ask the ledger."""
    cpus = {cpu.index for cpu in platform.cpus}
    devices = set(platform.mmio_devices + platform.pci_devices + platform.io_port_ranges)
    missing = ([Cpu(index) for index in sorted(cfg.cpus - cpus)]
               + [dev for dev in cfg.devices if dev not in devices]
               + [IrqLine(number) for number in sorted(cfg.irqs - platform.irq_numbers)])
    violations = [Violation(ViolationKind.NO_SUCH_RESOURCE, resource) for resource in missing]
    if ledger is not None:
        present = ([Cpu(index) for index in sorted(cfg.cpus & cpus)]
                   + [dev for dev in cfg.devices if dev in devices]
                   + [IrqLine(number) for number in sorted(cfg.irqs & platform.irq_numbers)])
        for resource in present:
            owner = ledger.owner_of_unit(resource)
            if owner != 0:
                violations.append(Violation(ViolationKind.NOT_OWNED_BY_ROOT, resource,
                                            "owned by cell %d" % owner))

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
# one kind. A run is a kind byte (the index here), a u32 count and that
# many bodies holding the kind's fields in constructor order, an MMIO name
# NUL-padded to 16 bytes. Each kind also gives a resource's field tuple
# and the resource a decoded tuple makes.
_KINDS = (
    (Cpu, struct.Struct("<I"), lambda r: (r.index,), Cpu),
    (MemRegion, struct.Struct("<QQB"), lambda r: (r.base, r.size, r.flags),
     lambda base, size, bits: MemRegion(base, size, perms_from_bits(bits))),
    (MmioDevice, struct.Struct("<%dsQQ" % (MMIO_NAME_BYTES + 1)),
     lambda r: (r.name.encode("utf-8"), r.base, r.size),
     lambda raw, base, size: MmioDevice(_unpad(raw, "device name"), base, size)),
    (PciDevice, struct.Struct("<H"), lambda r: (r.bdf,), PciDevice),
    # a port range may span all 0x10000 ports
    (IoPortRange, struct.Struct("<HI"), lambda r: (r.base, r.length), IoPortRange),
    (IrqLine, struct.Struct("<I"), lambda r: (r.number,), IrqLine),
)
_KIND_CODES = {kind: code for code, (kind, *_) in enumerate(_KINDS)}
_CPU, _IRQ = _KIND_CODES[Cpu], _KIND_CODES[IrqLine]

_WORKLOAD_CODES = {kind: code for code, kind in enumerate(WorkloadKind)}
_WORKLOAD_BY_CODE = {v: k for k, v in _WORKLOAD_CODES.items()}


def _resource_runs(resources) -> list:
    """The (kind code, field tuples) runs of consecutive resources of one kind."""
    runs = []
    for kind, group in groupby(resources, type):
        code = _KIND_CODES.get(kind)
        if code is None:
            raise InvariantViolation("cannot encode resource type %r" % kind.__name__)
        runs.append((code, list(map(_KINDS[code][2], group))))
    return runs


def _put_runs(out: bytearray, runs) -> None:
    """Append the resource list of (kind code, field tuples) runs; empty runs
    are left out."""
    runs = [run for run in runs if run[1]]
    out += _U32.pack(len(runs))
    for code, rows in runs:
        out += _RUN.pack(code, len(rows))
        pack = _KINDS[code][1].pack
        for row in rows:
            out += pack(*row)


def put_resources(out: bytearray, resources) -> None:
    """Append the resource list that holds resources, in their order."""
    _put_runs(out, _resource_runs(resources))


def emit_binary(cfg: CellConfig) -> bytes:
    """Serialize a config to the canonical little-endian byte stream.

    Emission is deterministic and sorted, so emitting the result of a
    load reproduces the input byte-for-byte.
    """
    out = bytearray(_HEADER.pack(MAGIC, VERSION, cfg.name.encode("utf-8")))
    _put_runs(out, [(_CPU, [(index,) for index in sorted(cfg.cpus)])]
              + _resource_runs(cfg.mem + cfg.devices)
              + [(_IRQ, [(number,) for number in sorted(cfg.irqs)])])
    path = (cfg.workload.script_path or "").encode("utf-8")
    out += _WORKLOAD.pack(_WORKLOAD_CODES[cfg.workload.kind], len(path))
    out += path
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, spec: struct.Struct):
        return spec.unpack(self.take_raw(spec.size))

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
    return decode_utf8(name, what)


def _take_runs(reader: _Reader) -> list:
    """The (kind code, field tuples) runs of the resource list at the reader."""
    (n_runs,) = reader.take(_U32)
    runs = []
    for _ in range(n_runs):
        code, count = reader.take(_RUN)
        if code >= len(_KINDS):
            raise InvariantViolation("unknown resource kind %d" % code)
        body = _KINDS[code][1]
        runs.append((code, list(body.iter_unpack(reader.take_raw(count * body.size)))))
    return runs


def take_resources(reader: _Reader) -> list:
    """The resources of the resource list at the reader, in their order."""
    return list(chain.from_iterable(
        starmap(_KINDS[code][3], rows) for code, rows in _take_runs(reader)))


def load_binary(data: bytes) -> CellConfig:
    """Decode a byte stream produced by emit_binary."""
    reader = _Reader(data)
    magic, version, raw_name = reader.take(_HEADER)
    if magic != MAGIC:
        raise BadMagic("magic 0x%08x, expected 0x%08x" % (magic, MAGIC))
    if version != VERSION:
        raise UnsupportedVersion("version %d, expected %d" % (version, VERSION))
    name = _unpad(raw_name, "cell name")

    cpus, irqs, others = [], [], []
    for code, rows in _take_runs(reader):
        if code == _CPU:
            cpus += (index for (index,) in rows)
        elif code == _IRQ:
            irqs += (number for (number,) in rows)
        else:
            others += starmap(_KINDS[code][3], rows)
    workload_code, path_len = reader.take(_WORKLOAD)
    kind = _WORKLOAD_BY_CODE.get(workload_code)
    if kind is None:
        raise InvariantViolation("unknown workload code %d" % workload_code)
    raw_path = reader.take_raw(path_len)
    if reader.offset != len(data):
        raise InvariantViolation(
            "%d trailing bytes after the workload record" % (len(data) - reader.offset))
    # Workload refuses a script without a path and a path on any other kind
    workload = Workload(kind, decode_utf8(raw_path, "script path") if raw_path else None)

    if len(set(cpus)) != len(cpus):
        raise InvariantViolation("duplicate cpu ids in stream")
    if len(set(irqs)) != len(irqs):
        raise InvariantViolation("duplicate irq numbers in stream")
    return CellConfig(
        name=name, cpus=frozenset(cpus),
        mem=tuple(r for r in others if isinstance(r, MemRegion)),
        devices=tuple(r for r in others if not isinstance(r, MemRegion)),
        irqs=frozenset(irqs), workload=workload)
