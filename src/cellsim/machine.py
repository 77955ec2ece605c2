"""Physical platform model.

A platform is an inventory of exclusively assignable hardware units
(CPUs, memory regions, MMIO/PCI devices, I/O port ranges, IRQ lines)
plus a bus model holding the latency-calibration parameters.  Platforms
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from enum import Enum, IntFlag
from itertools import chain, groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Optional

from ._dsl import (
    NAME_RE,
    Token,
    decode_utf8,
    iter_directives,
    parse_id_list,
    parse_number,
    parse_plain_name,
    parse_quoted_name,
    require_args,
)
from ._value import Record, Value
from .errors import (
    ConfigSemanticError,
    ConfigSyntaxError,
    DuplicateIrq,
    EmptyCpuSet,
    InvariantViolation,
    NotEnabled,
    OverlapError,
)

if TYPE_CHECKING:
    from .hvcore import Cell, Hypervisor

PAGE_SIZE = 4096
U64_MAX = (1 << 64) - 1

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


_PERM_LETTERS = {
    "r": PermFlags.READ,
    "w": PermFlags.WRITE,
    "x": PermFlags.EXECUTE,
    "d": PermFlags.DMA,
}


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
    if bits & ~0xF:
        raise InvariantViolation("unknown permission bits 0x%x" % bits)
    return PermFlags(bits)


def perms_to_str(flags: PermFlags) -> str:
    return "".join(ch for ch, bit in _PERM_LETTERS.items() if flags & bit)


class GicVersion(Enum):
    V2 = "v2"
    V3 = "v3"


class Cpu(Value):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if not 0 <= index <= 0xFFFFFFFF:
            raise InvariantViolation("cpu index out of range: %d" % index)
        self._freeze(index)


class MemRegion(Value):
    __slots__ = ("base", "size", "flags")

    def __init__(self, base: int, size: int, flags: PermFlags = PermFlags.READ | PermFlags.WRITE):
        _check_region(base, size, "memory region")
        self._freeze(base, size, flags)

    @property
    def end(self) -> int:
        return self.base + self.size


class MmioDevice(Value):
    __slots__ = ("name", "base", "size")

    def __init__(self, name: str, base: int, size: int):
        if not NAME_RE.match(name):
            raise InvariantViolation("mmio device name %r must match [A-Za-z0-9_-]+" % (name,))
        if len(name) > MMIO_NAME_BYTES:  # ASCII: one byte per character
            raise InvariantViolation("mmio device name %r longer than %d bytes"
                                     % (name, MMIO_NAME_BYTES))
        _check_region(base, size, "mmio device %r" % name)
        self._freeze(name, base, size)

    end = MemRegion.end  # base + size


class PciDevice(Value):
    __slots__ = ("bdf",)

    def __init__(self, bdf: int):
        if not 0 <= bdf <= 0xFFFF:
            raise InvariantViolation("pci bdf out of range: 0x%x" % bdf)
        self._freeze(bdf)


class IoPortRange(Value):
    __slots__ = ("base", "length")

    def __init__(self, base: int, length: int):
        if length <= 0:
            raise InvariantViolation("io port range must not be empty")
        if base < 0 or base + length > 65536:
            raise InvariantViolation("io port range [0x%x, 0x%x) exceeds the 16-bit port space"
                                     % (base, base + length))
        self._freeze(base, length)

    @property
    def end(self) -> int:
        return self.base + self.length


class IrqLine(Value):
    __slots__ = ("number",)

    def __init__(self, number: int):
        if not 0 <= number <= 0xFFFFFFFF:
            raise InvariantViolation("irq number out of range: %d" % number)
        self._freeze(number)


def _check_region(base: int, size: int, what: str) -> None:
    if size <= 0:
        raise InvariantViolation("%s: size must be positive" % what)
    if base % PAGE_SIZE or size % PAGE_SIZE:
        raise InvariantViolation("%s: base and size must be multiples of %d" % (what, PAGE_SIZE))
    if base < 0 or base + size > U64_MAX:
        raise InvariantViolation("%s: range overflows 64 bits" % what)


_RESOURCE_ARITY = {"cpu": 1, "mem": 3, "mmio": 3, "pci": 1, "ioport": 2, "irq": 1}


def parse_resource(tokens: list[Token], lineno: int) -> list:
    """The resources one directive line names, in either text format.

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
    if keyword not in _RESOURCE_ARITY:
        raise ConfigSyntaxError(lineno, col, "unknown directive %r" % keyword)
    require_args(tokens, lineno, _RESOURCE_ARITY[keyword])
    try:
        if keyword == "cpu":
            return [Cpu(i) for i in parse_id_list(tokens[1], lineno, "cpu list")]
        if keyword == "irq":
            return [IrqLine(n) for n in parse_id_list(tokens[1], lineno, "irq list")]
        if keyword == "mem":
            base = parse_number(tokens[1], lineno, "mem base")
            size = parse_number(tokens[2], lineno, "mem size")
            perm_text, perm_col = tokens[3]
            try:
                flags = parse_perms(perm_text)
            except ValueError as exc:
                raise ConfigSyntaxError(lineno, perm_col, str(exc))
            return [MemRegion(base, size, flags)]
        if keyword == "mmio":
            return [MmioDevice(parse_plain_name(tokens[1], lineno, "mmio name"),
                               parse_number(tokens[2], lineno, "mmio base"),
                               parse_number(tokens[3], lineno, "mmio size"))]
        if keyword == "pci":
            return [PciDevice(parse_number(tokens[1], lineno, "pci bdf"))]
        return [IoPortRange(parse_number(tokens[1], lineno, "ioport base"),
                            parse_number(tokens[2], lineno, "ioport len"))]
    except InvariantViolation as exc:
        raise ConfigSemanticError(str(exc), lineno)


# A span's address space: RAM and MMIO share one; I/O ports have their own.
_SPACE = {"mem": "address", "mmio": "address", "ioport": "port"}


def read_directives(text: str, head: str, own: dict) -> tuple[str, list]:
    """The name and resources of a text config or platform file.

    The head line, `<head> "<name>"`, comes once and names at most
    MAX_NAME_BYTES bytes. Each line of one of the format's own directives
    goes, in line order, to own[keyword](tokens, lineno); every other line
    is a resource directive of `parse_resource`. A CPU or IRQ listed twice,
    or a span that overlaps an earlier one, is refused on its second line.
    """
    name = None
    resources: list = []
    seen: set = set()
    spans: dict = {"address": [], "port": []}  # space -> [(span, line text, lineno)]
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
            for resource in parse_resource(tokens, lineno):
                if keyword in ("cpu", "irq"):
                    if resource in seen:
                        raise ConfigSemanticError("%s %d listed twice" % (keyword, (
                            resource.index if keyword == "cpu" else resource.number)), lineno)
                    seen.add(resource)
                space = spans.get(_SPACE.get(keyword))
                if space is not None:
                    line = " ".join(word for word, _ in tokens)  # as written, in hex
                    for other, other_line, at in space:
                        if resource.base < other.end and other.base < resource.end:
                            raise ConfigSemanticError("%s overlaps %s on line %d"
                                                      % (line, other_line, at), lineno)
                    space.append((resource, line, lineno))
                resources.append(resource)
    if name is None:
        raise ConfigSemanticError('missing %s "<name>" directive' % head)
    return name, resources


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
    _key = property(attrgetter(*__slots__))

    def __init__(self, name, resources, gic_version=GicVersion.V2, bus=None):
        self.name, self.resources, self.gic_version, self.bus = name, resources, gic_version, bus


# The unit kinds a layout keeps as plain ints: a CPU's index, an IRQ line's number.
_INT_KINDS = {Cpu: attrgetter("index"), IrqLine: attrgetter("number")}


def resource_layout(resources) -> tuple:
    """Resources as runs of consecutive resources of one kind, (kind, items),
    in their order: a run of CPUs or IRQ lines holds plain ints."""
    return tuple((kind, tuple(map(_INT_KINDS[kind], group) if kind in _INT_KINDS else group))
                 for kind, group in groupby(resources, type))


class MachinePlatform(Value):
    """A checked platform. Its layout holds its resources as resource_layout
    gives them, which the snapshot codec writes and reads as they are."""

    __slots__ = ("name", "layout", "gic_version", "bus", "_cpus", "_mem_regions",
                 "_mmio_devices", "_io_port_ranges", "_pci_devices", "_irq_numbers", "irq_index",
                 "cpu_mask", "irq_mask", "_units", "_gic_dist_window", "_hash")

    def __init__(self, name: str, layout: tuple, gic_version: GicVersion, bus: BusModel):
        if not NAME_RE.match(name):
            raise InvariantViolation("platform name %r must match [A-Za-z0-9_-]+" % (name,))
        if len(name.encode()) > MAX_NAME_BYTES:
            raise InvariantViolation("platform name longer than %d bytes" % MAX_NAME_BYTES)
        views = {kind: [] for kind in (Cpu, MemRegion, MmioDevice, IoPortRange, PciDevice, IrqLine)}
        for kind, items in layout:
            view = views.get(kind)
            if view is None:
                raise InvariantViolation("unknown platform resource %r" % (items[0],))
            view += items
        cpus, mem, mmio, ports, pci, irqs = views.values()
        if not cpus:
            raise EmptyCpuSet("platform %r declares no CPUs" % name)
        if sorted(cpus) != list(range(len(cpus))):
            raise InvariantViolation(
                "cpu indices must be unique and contiguous from 0, got %s" % sorted(cpus))
        irq_numbers = frozenset(irqs)
        if len(irq_numbers) != len(irqs):
            dupes = sorted({n for n in irqs if irqs.count(n) > 1})
            raise DuplicateIrq("irq lines listed twice: %s" % dupes)
        check_no_overlap(mem + mmio)
        check_no_overlap(ports)
        if len({dev.name for dev in mmio}) != len(mmio):
            raise InvariantViolation("mmio device names must be unique")
        if len({dev.bdf for dev in pci}) != len(pci):
            raise InvariantViolation("pci bdfs must be unique")
        # Views and hash, derived once into further slots that equality and repr skip.
        self._freeze(name, layout, gic_version, bus)
        for attr, value in dict(
            _hash=hash(self._key),
            _cpus=tuple(map(Cpu, cpus)), _mem_regions=tuple(mem), _mmio_devices=tuple(mmio),
            _io_port_ranges=tuple(ports), _pci_devices=tuple(pci), _irq_numbers=irq_numbers,
            irq_index={number: bit for bit, number in enumerate(sorted(irq_numbers))},
            cpu_mask=(1 << len(cpus)) - 1, irq_mask=(1 << len(irqs)) - 1,
            _units=frozenset(mmio + pci + ports),
            _gic_dist_window=next((dev for dev in mmio if dev.name == GIC_DIST_NAME), None),
        ).items():
            object.__setattr__(self, attr, value)

    # Public views: plain properties over derived attributes, so a tracer can
    # wrap the getters. units, the devices, is hashed once, for every ledger.
    cpus = property(attrgetter("_cpus"))
    mem_regions = property(attrgetter("_mem_regions"))
    mmio_devices = property(attrgetter("_mmio_devices"))
    irq_numbers = property(attrgetter("_irq_numbers"))
    io_port_ranges = property(attrgetter("_io_port_ranges"))
    pci_devices = property(attrgetter("_pci_devices"))
    gic_dist_window = property(attrgetter("_gic_dist_window"))  # Optional[MmioDevice]
    units = property(attrgetter("_units"))

    def __hash__(self):
        return self._hash

    @property
    def resources(self) -> tuple:
        """The resources in their order, CPUs and IRQ lines built on each read."""
        return tuple(chain.from_iterable(
            map(kind, items) if kind in _INT_KINDS else items for kind, items in self.layout))

    def cpu_bits(self, indices) -> int:
        """The mask of those of the distinct CPU indices the platform has: bit i is CPU i."""
        return sum(1 << index for index in indices if 0 <= index < len(self._cpus))

    def irq_bits(self, numbers) -> int:
        """The mask of those of the distinct IRQ numbers the platform has: bit i, i-th lowest."""
        return sum(1 << self.irq_index[number] for number in numbers if number in self.irq_index)

    def host_region(self, lo: int, hi: int) -> Optional[MemRegion]:
        """The platform RAM region that contains [lo, hi), or None."""
        for region in self._mem_regions:
            if region.base <= lo and hi <= region.end:
                return region
        return None


def build_platform(spec: PlatformSpec) -> MachinePlatform:
    """Check a platform spec and freeze it into a MachinePlatform; equal
    specs give equal platforms, whose resources keep their given order."""
    return MachinePlatform(spec.name, resource_layout(spec.resources), spec.gic_version,
                           spec.bus if spec.bus is not None else BusModel.default())


def check_no_overlap(ranges) -> None:
    """Refuse two of ranges (each with a base and an end) that share an address."""
    ordered = sorted(ranges, key=lambda r: r.base)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.base < prev.end:
            raise OverlapError("%r overlaps %r" % (prev, cur))


_LOADS_BUS = None  # (RUNNING, STRESS) from hvcore, which imports this module


def bus_load(hv: "Hypervisor", measured: "Cell") -> bool:
    """Whether the measured cell sees a loaded bus.

    True iff at least one *other* running cell runs a stress workload.
    """
    global _LOADS_BUS
    if hv.ledger is None:
        raise NotEnabled("bus load is defined only while the hypervisor runs")
    if _LOADS_BUS is None:
        from .hvcore import _RUNNING, _STRESS
        _LOADS_BUS = _RUNNING, _STRESS
    running, stress = _LOADS_BUS
    for cell in hv.cells.values():
        if cell.state is running and cell.config.workload.kind is stress and cell is not measured:
            return True
    return False


# --- platform file format ---------------------------------------------------

_BUS_KEYS = {
    "base", "hv-shift", "hv-logmu", "hv-logsigma",
    "cont-prob", "cont-mean", "cont-logsigma", "quantize", "jitter",
}


def parse_platform(text: str) -> PlatformSpec:
    """Parse the line-based platform format: `read_directives` with the head
    `platform "<name>"` and these own directives:

        gic v2|v3
        bus <key>=<value> ...           # latency model overrides
    """
    gic: list = []
    bus_kv: dict[str, str] = {}

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
            bus_kv[key] = value

    name, resources = read_directives(text, "platform", {"gic": read_gic, "bus": read_bus})
    return PlatformSpec(name=name, resources=resources,
                        gic_version=gic[0] if gic else GicVersion.V2, bus=_bus_from_kv(bus_kv))


def _bus_from_kv(kv: dict[str, str]) -> Optional[BusModel]:
    if not kv:
        return None
    default = BusModel.default()

    def num(key, fallback):
        if key not in kv:
            return fallback
        try:
            return float(kv[key])
        except ValueError:
            raise ConfigSemanticError("bus %s must be a number, got %r" % (key, kv[key]))

    def flag(key, fallback):
        if key not in kv:
            return fallback
        if kv[key] not in ("on", "off"):
            raise ConfigSemanticError("bus %s must be on or off" % key)
        return kv[key] == "on"

    overhead = DistParams(
        shift_us=num("hv-shift", default.hv_overhead.shift_us),
        log_mu=num("hv-logmu", default.hv_overhead.log_mu),
        log_sigma=num("hv-logsigma", default.hv_overhead.log_sigma),
    )
    if "cont-mean" in kv or "cont-logsigma" in kv:
        contention = DistParams.from_mean(
            num("cont-mean", default.contention.mean_us),
            log_sigma=num("cont-logsigma", default.contention.log_sigma))
    else:
        contention = default.contention
    return BusModel(
        base_latency_us=num("base", default.base_latency_us),
        hv_overhead=overhead,
        contention=contention,
        contention_prob=num("cont-prob", default.contention_prob),
        quantize_enabled=flag("quantize", True),
        phase_jitter_enabled=flag("jitter", True),
    )


def jetson_tk1() -> MachinePlatform:
    """Built-in preset: quad-core Cortex-A15 board with a GICv2.

    Addresses follow the public Tegra K1 memory map; they are
    representative, not authoritative.
    """
    rwxd = PermFlags.READ | PermFlags.WRITE | PermFlags.EXECUTE | PermFlags.DMA
    return MachinePlatform("jetson-tk1", (
        (Cpu, (0, 1, 2, 3)),
        (MemRegion, (MemRegion(0x8000_0000, 0x8000_0000, rwxd),)),
        (MmioDevice, (MmioDevice(GIC_DIST_NAME, 0x5004_1000, 0x1000),
                      MmioDevice("gpio", 0x6000_D000, 0x1000),
                      MmioDevice("uart-a", 0x7000_6000, 0x1000))),
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
