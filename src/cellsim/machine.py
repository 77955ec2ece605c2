"""Physical platform model.

A platform is an inventory of exclusively assignable hardware units
(CPUs, memory regions, MMIO/PCI devices, I/O port ranges, IRQ lines)
plus a bus model holding the latency-calibration parameters.  Platforms
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum, IntFlag
from itertools import chain, count, groupby, repeat, starmap
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Optional

from ._dsl import (
    MAX_ID, NAME_RE, Token, decode_utf8, iter_directives, parse_id_list, parse_number,
    parse_plain_name, parse_quoted_name, require_args)
from ._value import Record, Value
from .errors import (
    ConfigSemanticError, ConfigSyntaxError, DuplicateIrq, EmptyCpuSet, InvariantViolation,
    NotEnabled, OverlapError)

if TYPE_CHECKING:
    from .hvcore import Cell, Hypervisor

PAGE_SIZE = 4096
U64_MAX = (1 << 64) - 1
INT_TYPE = frozenset({int})  # INT_TYPE.issuperset(map(type, ids)) tests ids' types in C

# Name of the MMIO window that gets distributor emulation.
GIC_DIST_NAME = "gic-dist"

# Longest cell or platform name, in UTF-8 bytes: the binary config
# codec's name field is 32 bytes and keeps one for the NUL.
MAX_NAME_BYTES = 31

# Longest MMIO device name, in bytes (names are ASCII): the binary config
# codec's name field is 16 bytes and keeps one for the terminating NUL.
MMIO_NAME_BYTES = 15


class PermFlags(IntFlag):
    """Memory access permissions; bit layout matches the binary codec."""

    READ = 1
    WRITE = 2
    EXECUTE = 4
    DMA = 8


_PERM_LETTERS = dict(zip("rwxd", PermFlags))  # READ, WRITE, EXECUTE, DMA, in that order
_PERMS = tuple(map(PermFlags, range(16)))  # by bits: a PermFlags call runs Enum's Python code


def parse_perms(text: str) -> PermFlags:
    """Parse a permission string like `rw` or `rwxd`."""
    flags = PermFlags(0)
    for ch in text:
        bit = _PERM_LETTERS.get(ch)
        if bit is None:
            raise ValueError("unknown permission letter %r" % ch)
        if bit & flags:
            raise ValueError("duplicate permission letter %r" % ch)
        flags |= bit
    return flags


def perms_from_bits(bits: int) -> PermFlags:
    """Permission flags from their binary encoding, rejecting unknown bits."""
    if not isinstance(bits, int):
        raise InvariantViolation("permission bits must be an int, not %r" % (bits,))
    if not 0 <= bits <= 0xF:  # an int test, in C: an IntFlag's & is Python code
        raise InvariantViolation("unknown permission bits 0x%x" % bits)
    return _PERMS[bits]


def perms_to_str(flags: PermFlags) -> str:
    return "".join(ch for ch, bit in _PERM_LETTERS.items() if flags & bit)


class GicVersion(Enum):
    V2 = "v2"
    V3 = "v3"


class Cpu(Value):
    __slots__ = ("index",)

    def __init__(self, index: int):
        check_ids((index,), "cpu index")
        self._freeze(index)


# A span's end is derived. A MemRegion takes its flags as PermFlags or as their bits.
class MemRegion(Value):
    __slots__ = ("base", "size", "flags", "end")
    _derived = __slots__[3:]

    def __init__(self, base: int, size: int, flags: int = PermFlags.READ | PermFlags.WRITE):
        flags = perms_from_bits(flags)
        self._freeze(base, size, flags, _check_region(base, size, "memory region"))


class MmioDevice(Value):
    __slots__ = ("name", "base", "size", "end")
    _derived = __slots__[3:]

    def __init__(self, name: str, base: int, size: int):
        if not NAME_RE.match(name):
            raise InvariantViolation("mmio device name %r must match [A-Za-z0-9_-]+" % (name,))
        if len(name) > MMIO_NAME_BYTES:  # ASCII: one byte per character
            raise InvariantViolation("mmio device name %r longer than %d bytes"
                                     % (name, MMIO_NAME_BYTES))
        self._freeze(name, base, size, _check_region(base, size, "mmio device %r" % name))


class PciDevice(Value):
    __slots__ = ("bdf",)

    def __init__(self, bdf: int):
        if not isinstance(bdf, int):
            raise InvariantViolation("pci bdf must be an int, not %r" % (bdf,))
        if not 0 <= bdf <= 0xFFFF:
            raise InvariantViolation("pci bdf out of range: 0x%x" % bdf)
        self._freeze(bdf)


class IoPortRange(Value):
    __slots__ = ("base", "length", "end")
    _derived = __slots__[2:]

    def __init__(self, base: int, length: int):
        if not (isinstance(base, int) and isinstance(length, int)):
            raise InvariantViolation("io port range base and length must be ints, not %r and %r"
                                     % (base, length))
        if length <= 0:
            raise InvariantViolation("io port range must not be empty")
        if base < 0 or base + length > 65536:
            raise InvariantViolation("io port range [0x%x, 0x%x) exceeds the 16-bit port space"
                                     % (base, base + length))
        self._freeze(base, length, base + length)


class IrqLine(Value):
    __slots__ = ("number",)

    def __init__(self, number: int):
        check_ids((number,), "irq number")
        self._freeze(number)


def _check_region(base: int, size: int, what: str) -> int:
    if not (isinstance(base, int) and isinstance(size, int)):
        raise InvariantViolation("%s: base and size must be ints, not %r and %r"
                                 % (what, base, size))
    if size <= 0:
        raise InvariantViolation("%s: size must be positive" % what)
    if base % PAGE_SIZE or size % PAGE_SIZE:
        raise InvariantViolation("%s: base and size must be multiples of %d" % (what, PAGE_SIZE))
    if base < 0 or base + size > U64_MAX:
        raise InvariantViolation("%s: range overflows 64 bits" % what)
    return base + size


def check_ids(ids, what: str) -> None:
    """Refuse an id that is no int, then one outside [0, 2^32), the first named; a type
    test and one sort bound them all in C."""
    if not INT_TYPE.issuperset(map(type, ids)):  # a bool or an IntFlag passes below
        for i in ids:
            if not isinstance(i, int):
                raise InvariantViolation("%s must be an int, not %r" % (what, i))
    ordered = sorted(ids)
    if ordered and not 0 <= ordered[0] <= ordered[-1] <= MAX_ID:
        raise InvariantViolation("%s out of range: %d"
                                 % (what, next(i for i in ids if not 0 <= i <= MAX_ID)))


# Each resource kind, in the binary codec's kind-code order: its directive keyword; the label
# a parse error names each field of its row by, and the field's struct code (a CPU's or IRQ
# line's one field is an id list, each id checked as its label says, and a port range's length
# a u32, as one may span all 0x10000 ports); and a span's (base, size) row fields and space:
# RAM and MMIO share one address space; I/O ports have their own.
RESOURCE_KINDS = {
    Cpu: ("cpu", (("cpu index", "I"),), None),
    MemRegion: ("mem", (("mem base", "Q"), ("mem size", "Q"), ("mem perms", "B")), (0, 1, "addr")),
    MmioDevice: ("mmio", (("mmio name", "%ds" % (MMIO_NAME_BYTES + 1)), ("mmio base", "Q"),
                          ("mmio size", "Q")), (1, 2, "addr")),
    PciDevice: ("pci", (("pci bdf", "H"),), None),
    IoPortRange: ("ioport", (("ioport base", "H"), ("ioport len", "I")), (0, 1, "port")),
    IrqLine: ("irq", (("irq number", "I"),), None),
}
_DIRECTIVES = {keyword: kind for kind, (keyword, _, _) in RESOURCE_KINDS.items()}
# (kind, base field, size field, space) of each span kind: RAM, MMIO, then port ranges
_SPANS = [(kind, *span) for kind, (_, _, span) in RESOURCE_KINDS.items() if span]


def parse_resource(tokens: list[Token], lineno: int) -> tuple:
    """The resources one directive line names, in either text format, as one
    (kind, rows) run of `resource_layout`, each checked by its kind's constructor.

    Platform files and cell configs share these directives; any other
    keyword is an unknown directive:

        cpu <list>                      # e.g. 0-3 or 0,1,2
        mem <hex-base> <hex-size> <perm-string>
        mmio <name> <hex-base> <hex-size>
        pci <bdf-hex>
        ioport <hex-base> <hex-len>
        irq <list>
    """
    keyword, col = tokens[0]
    kind = _DIRECTIVES.get(keyword)
    if kind is None:
        raise ConfigSyntaxError(lineno, col, "unknown directive %r" % keyword)
    fields = RESOURCE_KINDS[kind][1]
    require_args(tokens, lineno, len(fields))
    try:
        if kind in (Cpu, IrqLine):
            ids = parse_id_list(tokens[1], lineno, "%s list" % keyword)
            check_ids(ids, fields[0][0])
            return kind, ids
        values = []  # each field's, in the row's order
        for (label, code), token in zip(fields, tokens[1:]):
            if code == "B":  # a permission string, refused with no label
                try:
                    values.append(parse_perms(token[0]))
                except ValueError as exc:
                    raise ConfigSyntaxError(lineno, token[1], str(exc))
            else:
                parse = parse_plain_name if code.endswith("s") else parse_number
                values.append(parse(token, lineno, label))
        resource = kind(*values)
    except InvariantViolation as exc:
        raise ConfigSemanticError(str(exc), lineno)
    return kind, [_ROWS[kind](resource)]


def read_directives(text: str, head: str, own: dict) -> tuple[str, list]:
    """The name and the resource runs, one per line, of a text config or platform file.

    The head line, `<head> "<name>"`, comes once and names at most
    MAX_NAME_BYTES bytes. Each line of one of the format's own directives
    goes, in line order, to own[keyword](tokens, lineno); every other line
    is a resource directive of `parse_resource`. A CPU, IRQ or PCI device listed
    twice, or a span that overlaps an earlier one, is refused on its second line.
    """
    name = None
    runs: list = []
    listed: dict = {Cpu: set(), IrqLine: set(), PciDevice: set()}  # ids or rows, so far
    spans: dict = {}  # space -> [(base, end, line text, lineno)]
    for lineno, tokens in iter_directives(text):
        keyword = tokens[0][0]
        if keyword == head:
            require_args(tokens, lineno, 1)
            if name is not None:
                raise ConfigSemanticError("duplicate %s directive" % head, lineno)
            name = parse_quoted_name(tokens[1], lineno, "%s name" % head)
            if len(name.encode()) > MAX_NAME_BYTES:
                raise ConfigSemanticError(
                    "%s name longer than %d bytes" % (head, MAX_NAME_BYTES), lineno)
        elif keyword in own:
            own[keyword](tokens, lineno)
        else:
            kind, items = parse_resource(tokens, lineno)
            seen = listed.get(kind)
            for item in items if seen is not None else ():
                if item in seen:  # a PCI device's row is its (bdf,)
                    raise ConfigSemanticError("%s %s listed twice" % (keyword, (
                        "0x%x" % item if kind is PciDevice else item)), lineno)
                seen.add(item)
            span = RESOURCE_KINDS[kind][2]
            if span is not None:
                (row,) = items
                at, size, space_name = span
                base, end, space = row[at], row[at] + row[size], spans.setdefault(space_name, [])
                line = " ".join(word for word, _ in tokens)  # as written, in hex
                for other_base, other_end, other_line, other_lineno in space:
                    if base < other_end and other_base < end:
                        raise ConfigSemanticError("%s overlaps %s on line %d"
                                                  % (line, other_line, other_lineno), lineno)
                space.append((base, end, line, lineno))
            runs.append((kind, items))
    if name is None:
        raise ConfigSemanticError('missing %s "<name>" directive' % head)
    return name, runs


class DistParams(Value):
    """Shifted log-normal distribution: shift_us + exp(N(log_mu, log_sigma)),
    sampled by irq.draw."""

    __slots__ = ("shift_us", "log_mu", "log_sigma")

    def __init__(self, shift_us: float = 0.0, log_mu: float = 0.0, log_sigma: float = 0.0):
        for value in (shift_us, log_mu, log_sigma):
            if not math.isfinite(value):
                raise InvariantViolation("distribution parameters must be finite")
        if log_sigma < 0:
            raise InvariantViolation("log_sigma must not be negative")
        self._freeze(shift_us, log_mu, log_sigma)

    @classmethod
    def from_mean(cls, mean_us: float, log_sigma: float, shift_us: float = 0.0) -> "DistParams":
        """Parameters for a given arithmetic mean of the log-normal part."""
        if mean_us <= shift_us:
            raise InvariantViolation("mean must exceed the shift")
        log_mu = math.log(mean_us - shift_us) - 0.5 * log_sigma * log_sigma
        return cls(shift_us=shift_us, log_mu=log_mu, log_sigma=log_sigma)

    @property
    def mean_us(self) -> float:
        return self.shift_us + math.exp(self.log_mu + 0.5 * self.log_sigma ** 2)


class BusModel(Value):
    """Shared-system-bus latency model.

    Latency of one interrupt delivery is
    base + overhead (hypervisor present) + contention (stressed
    neighbours, fires with contention_prob), measured through a
    62.5 ns quantizer with uniform phase jitter.  The measurement
    layer (quantize + jitter) can be switched off to expose raw
    model latencies.
    """

    __slots__ = ("base_latency_us", "hv_overhead", "contention", "contention_prob",
                 "quantize_enabled", "phase_jitter_enabled")

    def __init__(self, base_latency_us, hv_overhead, contention, contention_prob,
                 quantize_enabled=True, phase_jitter_enabled=True):
        if not (math.isfinite(base_latency_us) and base_latency_us > 0):
            raise InvariantViolation("base latency must be positive and finite")
        if not (math.isfinite(contention_prob) and 0.0 <= contention_prob <= 1.0):
            raise InvariantViolation("contention probability must lie in [0, 1]")
        self._freeze(base_latency_us, hv_overhead, contention, contention_prob,
                     quantize_enabled, phase_jitter_enabled)

    @classmethod
    def default(cls) -> "BusModel":
        """Calibrated defaults reproducing the reference latency table.

        Verified by Monte Carlo (1e6 draws plus the seed-7 benchmark):
        mean(off)=0.450, mean(on)=1.270, sigma(on)=0.083,
        sigma(on, stress)=0.335, max(on, stress) in the mid-5s.
        """
        return cls(
            base_latency_us=0.45,
            hv_overhead=DistParams(shift_us=0.70, log_mu=-2.3, log_sigma=0.6),
            contention=DistParams.from_mean(1.0, log_sigma=0.38),
            contention_prob=0.10,
        )

    def without_measurement(self) -> "BusModel":
        return BusModel(*self._key[:4], quantize_enabled=False, phase_jitter_enabled=False)


class PlatformSpec(Record):
    """Unvalidated platform description, as read from a file or built in code."""

    __slots__ = ("name", "resources", "gic_version", "bus")

    def __init__(self, name, resources, gic_version=GicVersion.V2, bus=None):
        self.name, self.resources, self.gic_version, self.bus = name, resources, gic_version, bus


# The ledger's unit kinds, in the order a config lists its units. A holder has one mask of
# each kind, whose bit i is the platform's i-th unit of that kind (MachinePlatform.masks).
UNIT_KINDS = CPU, DEVICE, IRQ = 0, 1, 2

# A resource's row: the plain ints (and an MMIO device's name) the binary codec stores for
# it, which are also its value object's fields. A CPU or IRQ line is its int, a MemRegion
# (base, size, flags), a device (name, base, size), (bdf,) or (base, length). Device rows of
# different kinds differ in length, so one dict keys them all.
_ROWS = {Cpu: attrgetter("index"), IrqLine: attrgetter("number"),
         MemRegion: lambda region: (region.base, region.size, int(region.flags)),
         MmioDevice: attrgetter("_key"), PciDevice: attrgetter("_key"),
         IoPortRange: attrgetter("_key")}
_FIRST, _NAME_BASE = itemgetter(0), itemgetter(0, 1)  # row sort keys, in C
_UNIT_KIND = {Cpu: CPU, IrqLine: IRQ}  # any other unit is a device


def resource_layout(resources) -> tuple:
    """Resources as runs of consecutive resources of one kind, (kind, rows), in
    their order; a run of a type that has no row keeps its items."""
    return tuple((kind, tuple(map(_ROWS[kind], group)) if kind in _ROWS else tuple(group))
                 for kind, group in groupby(resources, type))


def layout_resources(runs):
    """The value objects of (kind, rows) runs, in their order."""
    return chain.from_iterable(map(kind, rows) if kind in (Cpu, IrqLine) else starmap(kind, rows)
                               for kind, rows in runs)


def gather(runs) -> dict:
    """Each kind's rows of (kind, rows) runs, in their order: dict(runs) when each
    kind has one run, as the codec writes them."""
    kinds = dict(runs)
    if len(kinds) < len(runs):
        kinds = {}
        for kind, rows in runs:
            kinds[kind] = kinds.get(kind, ()) + tuple(rows)
    return kinds


def sort_devices(mmio, pci, ports) -> tuple:
    """MMIO, PCI and I/O port range rows in a config's order: by name, bdf and base."""
    return (tuple(sorted(mmio, key=_NAME_BASE)), tuple(sorted(pci)),
            tuple(sorted(ports, key=_FIRST)))


def check_no_overlap(ram, mmio, ports) -> None:
    """Refuse two RAM region and MMIO device rows that share an address, then two
    port range rows that share a port: each space's spans, sorted by base (in the
    table's order where bases tie), are each checked against the one before."""
    spaces: dict = {}  # space -> [(base, end, kind, row)], in RESOURCE_KINDS' order
    for (kind, at, size, space), rows in zip(_SPANS, (ram, mmio, ports)):
        spans = spaces.setdefault(space, [])
        for row in rows:
            spans.append((row[at], row[at] + row[size], kind, row))
    for spans in spaces.values():
        spans.sort(key=_FIRST)
        for prev, cur in zip(spans, spans[1:]):
            if cur[0] < prev[1]:
                raise OverlapError("%r overlaps %r" % tuple(layout_resources(
                    ((prev[2], (prev[3],)), (cur[2], (cur[3],))))))


def _view(build):
    """A property whose value, build(platform), is made at the first read, which no
    snapshot load or save makes, and kept."""
    def get(self):
        if build not in self._views:
            self._views[build] = build(self)
        return self._views[build]
    return property(get)


class MachinePlatform(Value):
    """A checked platform. Its layout holds its resources as (kind, rows) runs,
    checked as their kinds' constructors check them (take_runs and
    resource_layout give such runs); the codec writes and reads them as they
    are. ram, mmio, pci and ports hold each kind's rows in layout order, and
    the typed views are built from them."""

    __slots__ = ("name", "layout", "gic_version", "bus", "ram", "mmio", "pci", "ports",
                 "_irq_numbers", "irq_order", "full_masks", "devices", "device_bits", "window",
                 "_views")
    _derived = __slots__[4:]

    def __init__(self, name: str, layout: tuple, gic_version: GicVersion, bus: BusModel):
        if not NAME_RE.match(name):
            raise InvariantViolation("platform name %r must match [A-Za-z0-9_-]+" % (name,))
        if len(name.encode()) > MAX_NAME_BYTES:
            raise InvariantViolation("platform name longer than %d bytes" % MAX_NAME_BYTES)
        kinds = gather(layout)
        if kinds.keys() - RESOURCE_KINDS:  # a run of a type that is no resource: name the first
            rows = next(rows for kind, rows in layout if kind not in RESOURCE_KINDS)
            raise InvariantViolation("unknown platform resource %r" % (rows[0],))
        cpus, ram, mmio, pci, ports, irqs = map(kinds.get, RESOURCE_KINDS, repeat(()))
        if not cpus:
            raise EmptyCpuSet("platform %r declares no CPUs" % name)
        if sorted(cpus) != list(range(len(cpus))):
            raise InvariantViolation(
                "cpu indices must be unique and contiguous from 0, got %s" % sorted(cpus))
        irq_numbers = frozenset(irqs)
        if len(irq_numbers) != len(irqs):
            dupes = sorted({n for n in irqs if irqs.count(n) > 1})
            raise DuplicateIrq("irq lines listed twice: %s" % dupes)
        check_no_overlap(ram, mmio, ports)
        named = dict(zip(map(_FIRST, mmio), mmio))
        if len(named) != len(mmio):
            raise InvariantViolation("mmio device names must be unique")
        if len(set(pci)) != len(pci):
            raise InvariantViolation("pci bdfs must be unique")
        order = tuple(sorted(irqs))
        for end in order[:1] + order[-1:]:  # IrqLine's range check, on the sorted ends alone
            if not 0 <= end <= MAX_ID:
                raise InvariantViolation("irq number out of range: %d" % end)
        devices = tuple(mmio) + tuple(pci) + tuple(ports)  # bit i of a device mask is devices[i]
        self._freeze(name, layout, gic_version, bus,
                     tuple(ram), tuple(mmio), tuple(pci), tuple(ports), irq_numbers, order,
                     ((1 << len(cpus)) - 1, (1 << len(devices)) - 1, (1 << len(irqs)) - 1),
                     devices, dict(zip(devices, map((1).__lshift__, count()))),
                     named.get(GIC_DIST_NAME), {})

    # Public views: plain properties, so that a tracer can wrap the getters.
    cpus = _view(lambda self: tuple(map(Cpu, range(self.full_masks[CPU].bit_length()))))
    mem_regions = _view(lambda self: tuple(starmap(MemRegion, self.ram)))
    mmio_devices = _view(lambda self: tuple(starmap(MmioDevice, self.mmio)))
    io_port_ranges = _view(lambda self: tuple(starmap(IoPortRange, self.ports)))
    pci_devices = _view(lambda self: tuple(starmap(PciDevice, self.pci)))
    gic_dist_window = _view(lambda self: next(  # Optional[MmioDevice]
        (dev for dev in self.mmio_devices if dev.name == GIC_DIST_NAME), None))
    irq_numbers = property(attrgetter("_irq_numbers"))

    @property
    def _args(self) -> tuple:  # repr shows the layout's value objects
        return (self.name, tuple((kind, rows if kind in (Cpu, IrqLine)
                                  else tuple(layout_resources(((kind, rows),))))
                                 for kind, rows in self.layout), self.gic_version, self.bus)

    def __hash__(self):  # of name, CPUs and IRQ numbers, which equal platforms share
        return hash((self.name, self.full_masks[CPU], self.irq_order))

    @property
    def resources(self) -> tuple:
        """The resources in their order, built on each read."""
        return tuple(layout_resources(self.layout))

    def masks(self, cpus, devices, irqs) -> tuple:
        """The CPU, device and IRQ masks of those of the distinct ids the platform
        has: CPU indices (bit i is CPU i), device rows (bit i is devices[i]) and IRQ
        numbers (bit i is irq_order[i]), each in a loop with no Python call, which
        beats a map chain on a config's few ids."""
        count, device_bits = self.full_masks[CPU].bit_length(), self.device_bits
        cpu_mask = device_mask = irq_mask = 0
        for index in cpus:
            if 0 <= index < count:
                cpu_mask |= 1 << index
        for row in devices:
            device_mask |= device_bits.get(row, 0)
        order, numbers = self.irq_order, self._irq_numbers
        # a bisection per number costs more than a set difference: a root config names
        # most of the platform's lines, so its mask is the full one less those it leaves out
        fewer = 2 * len(irqs) <= len(numbers)
        for number in irqs if fewer else numbers.difference(irqs):
            if number in numbers:
                irq_mask |= 1 << bisect_left(order, number)
        return cpu_mask, device_mask, irq_mask if fewer else self.full_masks[IRQ] - irq_mask

    def locate(self, unit) -> tuple:
        """A CPU's, device's or IRQ line's kind and its one-bit mask, 0 if the platform lacks it."""
        kind, row = _UNIT_KIND.get(type(unit), DEVICE), _ROWS.get(type(unit))
        ids = [(), (), ()]
        ids[kind] = () if row is None else (row(unit),)
        return kind, self.masks(*ids)[kind]

    def units(self, kind: int, mask: int) -> list:
        """The units of a kind at the set bits of a mask of it, devices in a config's order."""
        bits = [bit for bit in range(mask.bit_length()) if mask >> bit & 1]
        if kind == CPU:
            return list(map(Cpu, bits))
        if kind == IRQ:
            return list(map(IrqLine, map(self.irq_order.__getitem__, bits)))
        chosen, first_pci = ([], [], []), len(self.mmio)  # MMIO, PCI and port range rows
        for bit in bits:
            chosen[(bit >= first_pci) + (bit >= first_pci + len(self.pci))].append(
                self.devices[bit])
        return list(layout_resources(zip((MmioDevice, PciDevice, IoPortRange),
                                          sort_devices(*chosen))))

    def host_region(self, lo: int, hi: int) -> Optional[tuple]:
        """The platform RAM row (base, size, flags) that contains [lo, hi), or None."""
        for row in self.ram:
            if row[0] <= lo and hi <= row[0] + row[1]:
                return row
        return None


def build_platform(spec: PlatformSpec) -> MachinePlatform:
    """Check a platform spec and freeze it into a MachinePlatform; equal
    specs give equal platforms, whose resources keep their given order."""
    return MachinePlatform(spec.name, resource_layout(spec.resources), spec.gic_version,
                           spec.bus if spec.bus is not None else BusModel.default())


def bus_load(hv: "Hypervisor", measured: "Cell") -> bool:
    """Whether the measured cell sees a loaded bus.

    True iff at least one *other* running cell runs a stress workload.
    """
    if hv.ledger is None:
        raise NotEnabled("bus load is defined only while the hypervisor runs")
    for cell in hv.cells.values():  # by value: hvcore, which defines the states, imports this
        if cell.config.stresses and cell.state._value_ == "running" and cell is not measured:
            return True
    return False


# --- platform file format ---------------------------------------------------

# Each bus key and what its value must be: a number, or on or off for the measurement layer.
_BUS_KEYS = {**dict.fromkeys(("base", "hv-shift", "hv-logmu", "hv-logsigma", "cont-prob",
                              "cont-mean", "cont-logsigma"), "a number"),
             "quantize": "on or off", "jitter": "on or off"}
_ON_OFF = {"on": True, "off": False}


def parse_platform(text: str) -> PlatformSpec:
    """Parse the line-based platform format: `read_directives` with the head
    `platform "<name>"` and these own directives:

        gic v2|v3
        bus <key>=<value> ...           # latency model overrides
    """
    gic: list = []
    bus_kv: dict = {}  # key -> its value, converted on its line

    def read_gic(tokens, lineno):
        require_args(tokens, lineno, 1)
        if gic:
            raise ConfigSemanticError("duplicate gic directive", lineno)
        text_val, col = tokens[1]
        try:
            gic.append(GicVersion(text_val))
        except ValueError:
            raise ConfigSyntaxError(lineno, col, "gic version must be v2 or v3")

    def read_bus(tokens, lineno):
        if len(tokens) == 1:
            raise ConfigSyntaxError(lineno, tokens[0][1], "bus needs key=value arguments")
        for text_val, col in tokens[1:]:
            key, sep, value = text_val.partition("=")
            if not sep or key not in _BUS_KEYS:
                raise ConfigSyntaxError(
                    lineno, col, "bad bus parameter %r (known: %s)"
                    % (text_val, ", ".join(sorted(_BUS_KEYS))))
            if key in bus_kv:
                raise ConfigSemanticError("bus %s given twice" % key, lineno)
            must = _BUS_KEYS[key]
            try:
                bus_kv[key] = _ON_OFF[value] if must == "on or off" else float(value)
            except (KeyError, ValueError):
                raise ConfigSemanticError("bus %s must be %s, got %r" % (key, must, value), lineno)

    name, runs = read_directives(text, "platform", {"gic": read_gic, "bus": read_bus})
    return PlatformSpec(name=name, resources=list(layout_resources(runs)),
                        gic_version=gic[0] if gic else GicVersion.V2, bus=_bus_from_kv(bus_kv))


def _bus_from_kv(kv: dict) -> Optional[BusModel]:
    """The bus model of the given values, each one not given at its default; None for none."""
    if not kv:
        return None
    default = BusModel.default()
    hv_overhead, contention = default.hv_overhead, default.contention
    overhead = DistParams(shift_us=kv.get("hv-shift", hv_overhead.shift_us),
                          log_mu=kv.get("hv-logmu", hv_overhead.log_mu),
                          log_sigma=kv.get("hv-logsigma", hv_overhead.log_sigma))
    if "cont-mean" in kv or "cont-logsigma" in kv:
        contention = DistParams.from_mean(kv.get("cont-mean", contention.mean_us),
                                          log_sigma=kv.get("cont-logsigma", contention.log_sigma))
    return BusModel(base_latency_us=kv.get("base", default.base_latency_us),
                    hv_overhead=overhead, contention=contention,
                    contention_prob=kv.get("cont-prob", default.contention_prob),
                    quantize_enabled=kv.get("quantize", True),
                    phase_jitter_enabled=kv.get("jitter", True))


def jetson_tk1() -> MachinePlatform:
    """Built-in preset: quad-core Cortex-A15 board with a GICv2.

    Addresses follow the public Tegra K1 memory map; they are
    representative, not authoritative.
    """
    rwxd = PermFlags.READ | PermFlags.WRITE | PermFlags.EXECUTE | PermFlags.DMA
    return MachinePlatform("jetson-tk1", (
        (Cpu, (0, 1, 2, 3)),
        (MemRegion, ((0x8000_0000, 0x8000_0000, rwxd.value),)),
        (MmioDevice, ((GIC_DIST_NAME, 0x5004_1000, 0x1000), ("gpio", 0x6000_D000, 0x1000),
                      ("uart-a", 0x7000_6000, 0x1000))),
        (IrqLine, tuple(range(32, 161))),
    ), GicVersion.V2, BusModel.default())


PRESETS = {"jetson-tk1": jetson_tk1}


def load_platform(source: str) -> MachinePlatform:
    """Resolve a preset name or read a platform file."""
    preset = PRESETS.get(source)
    if preset is not None:
        return preset()
    with open(source, "rb") as fh:
        return build_platform(parse_platform(decode_utf8(fh.read(), "platform file")))
