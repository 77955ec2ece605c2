"""Physical platform model.

A platform is an inventory of exclusively assignable hardware units
(CPUs, memory regions, MMIO/PCI devices, I/O port ranges, IRQ lines)
plus a bus model holding the latency-calibration parameters.  Platforms
are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum, IntFlag
from typing import TYPE_CHECKING, Optional

from ._dsl import (
    NAME_RE,
    Token,
    decode_utf8,
    iter_directives,
    parse_hex,
    parse_id_list,
    parse_plain_name,
    parse_quoted_name,
    require_args,
)
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


@dataclass(frozen=True)
class Cpu:
    index: int

    def __post_init__(self):
        if not 0 <= self.index <= 0xFFFFFFFF:
            raise InvariantViolation("cpu index out of range: %d" % self.index)


@dataclass(frozen=True)
class MemRegion:
    base: int
    size: int
    flags: PermFlags = PermFlags.READ | PermFlags.WRITE

    def __post_init__(self):
        _check_region(self.base, self.size, "memory region")

    @property
    def end(self) -> int:
        return self.base + self.size


@dataclass(frozen=True)
class MmioDevice:
    name: str
    base: int
    size: int

    def __post_init__(self):
        if not NAME_RE.match(self.name):
            raise InvariantViolation("mmio device name %r must match [A-Za-z0-9_-]+"
                                     % (self.name,))
        if len(self.name) > MMIO_NAME_BYTES:  # ASCII: one byte per character
            raise InvariantViolation("mmio device name %r longer than %d bytes"
                                     % (self.name, MMIO_NAME_BYTES))
        _check_region(self.base, self.size, "mmio device %r" % self.name)

    @property
    def end(self) -> int:
        return self.base + self.size


@dataclass(frozen=True)
class PciDevice:
    bdf: int

    def __post_init__(self):
        if not 0 <= self.bdf <= 0xFFFF:
            raise InvariantViolation("pci bdf out of range: 0x%x" % self.bdf)


@dataclass(frozen=True)
class IoPortRange:
    base: int
    length: int

    def __post_init__(self):
        if self.length <= 0:
            raise InvariantViolation("io port range must not be empty")
        if self.base < 0 or self.base + self.length > 65536:
            raise InvariantViolation(
                "io port range [0x%x, 0x%x) exceeds the 16-bit port space"
                % (self.base, self.base + self.length))

    @property
    def end(self) -> int:
        return self.base + self.length


@dataclass(frozen=True)
class IrqLine:
    number: int

    def __post_init__(self):
        if not 0 <= self.number <= 0xFFFFFFFF:
            raise InvariantViolation("irq number out of range: %d" % self.number)


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
            base = parse_hex(tokens[1], lineno, "mem base")
            size = parse_hex(tokens[2], lineno, "mem size")
            perm_text, perm_col = tokens[3]
            try:
                flags = parse_perms(perm_text)
            except ValueError as exc:
                raise ConfigSyntaxError(lineno, perm_col, str(exc))
            return [MemRegion(base, size, flags)]
        if keyword == "mmio":
            return [MmioDevice(parse_plain_name(tokens[1], lineno, "mmio name"),
                               parse_hex(tokens[2], lineno, "mmio base"),
                               parse_hex(tokens[3], lineno, "mmio size"))]
        if keyword == "pci":
            return [PciDevice(parse_hex(tokens[1], lineno, "pci bdf"))]
        return [IoPortRange(parse_hex(tokens[1], lineno, "ioport base"),
                            parse_hex(tokens[2], lineno, "ioport len"))]
    except InvariantViolation as exc:
        raise ConfigSemanticError(str(exc), lineno)


@dataclass(frozen=True)
class DistParams:
    """Shifted log-normal distribution: shift_us + exp(N(log_mu, log_sigma)),
    sampled by irq.draw."""

    shift_us: float = 0.0
    log_mu: float = 0.0
    log_sigma: float = 0.0

    def __post_init__(self):
        for value in (self.shift_us, self.log_mu, self.log_sigma):
            if not math.isfinite(value):
                raise InvariantViolation("distribution parameters must be finite")
        if self.log_sigma < 0:
            raise InvariantViolation("log_sigma must not be negative")

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


@dataclass(frozen=True)
class BusModel:
    """Shared-system-bus latency model.

    Latency of one interrupt delivery is
    base + overhead (hypervisor present) + contention (stressed
    neighbours, fires with contention_prob), measured through a
    62.5 ns quantizer with uniform phase jitter.  The measurement
    layer (quantize + jitter) can be switched off to expose raw
    model latencies.
    """

    base_latency_us: float
    hv_overhead: DistParams
    contention: DistParams
    contention_prob: float
    quantize_enabled: bool = True
    phase_jitter_enabled: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.base_latency_us) and self.base_latency_us > 0):
            raise InvariantViolation("base latency must be positive and finite")
        if not (math.isfinite(self.contention_prob) and 0.0 <= self.contention_prob <= 1.0):
            raise InvariantViolation("contention probability must lie in [0, 1]")

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
        return replace(self, quantize_enabled=False, phase_jitter_enabled=False)


@dataclass
class PlatformSpec:
    """Unvalidated platform description, as read from a file or built in code."""

    name: str
    resources: list
    gic_version: GicVersion = GicVersion.V2
    bus: Optional[BusModel] = None


_VIEW_ATTRS = {Cpu: "_cpus", MemRegion: "_mem_regions", MmioDevice: "_mmio_devices",
               IoPortRange: "_io_port_ranges", PciDevice: "_pci_devices", IrqLine: "_irq_lines"}


@dataclass(frozen=True)
class MachinePlatform:
    name: str
    resources: tuple
    gic_version: GicVersion
    bus: BusModel

    def __post_init__(self):
        # A platform never changes, so its typed views are derived once,
        # here, in one pass.  They are plain attributes, not fields:
        # equality, hashing and repr see only the fields above.
        views = {kind: [] for kind in _VIEW_ATTRS}
        for resource in self.resources:
            view = views.get(type(resource))
            if view is None:
                raise InvariantViolation("unknown platform resource %r" % (resource,))
            view.append(resource)
        for kind, attr in _VIEW_ATTRS.items():
            object.__setattr__(self, attr, tuple(views[kind]))
        object.__setattr__(self, "_irq_numbers", frozenset(r.number for r in self._irq_lines))
        object.__setattr__(self, "_gic_dist_window", next(
            (dev for dev in self._mmio_devices if dev.name == GIC_DIST_NAME), None))

    @property
    def cpus(self) -> tuple:
        return self._cpus

    @property
    def mem_regions(self) -> tuple:
        return self._mem_regions

    @property
    def mmio_devices(self) -> tuple:
        return self._mmio_devices

    @property
    def irq_numbers(self) -> frozenset:
        return self._irq_numbers

    @property
    def io_port_ranges(self) -> tuple:
        return self._io_port_ranges

    @property
    def pci_devices(self) -> tuple:
        return self._pci_devices

    @property
    def gic_dist_window(self) -> Optional[MmioDevice]:
        return self._gic_dist_window

    def host_region(self, lo: int, hi: int) -> Optional[MemRegion]:
        """The platform RAM region that contains [lo, hi), or None."""
        for region in self._mem_regions:
            if region.base <= lo and hi <= region.end:
                return region
        return None


def build_platform(spec: PlatformSpec) -> MachinePlatform:
    """Validate a platform spec and freeze it into a MachinePlatform.

    Deterministic: identical specs produce structurally identical
    platforms (resources keep their given order).
    """
    if not NAME_RE.match(spec.name):
        raise InvariantViolation("platform name %r must match [A-Za-z0-9_-]+" % (spec.name,))
    if len(spec.name.encode()) > MAX_NAME_BYTES:
        raise InvariantViolation("platform name longer than %d bytes" % MAX_NAME_BYTES)
    platform = MachinePlatform(
        name=spec.name,
        resources=tuple(spec.resources),
        gic_version=spec.gic_version,
        bus=spec.bus if spec.bus is not None else BusModel.default(),
    )

    cpu_indices = sorted(cpu.index for cpu in platform._cpus)
    if not cpu_indices:
        raise EmptyCpuSet("platform %r declares no CPUs" % spec.name)
    if cpu_indices != list(range(len(cpu_indices))):
        raise InvariantViolation(
            "cpu indices must be unique and contiguous from 0, got %s" % cpu_indices)

    if len(platform._irq_numbers) != len(platform._irq_lines):
        irqs = [line.number for line in platform._irq_lines]
        dupes = sorted({n for n in irqs if irqs.count(n) > 1})
        raise DuplicateIrq("irq lines listed twice: %s" % dupes)

    _check_no_overlap(platform._mem_regions + platform._mmio_devices)
    _check_no_overlap(platform._io_port_ranges)

    if len({dev.name for dev in platform._mmio_devices}) != len(platform._mmio_devices):
        raise InvariantViolation("mmio device names must be unique")
    if len({dev.bdf for dev in platform._pci_devices}) != len(platform._pci_devices):
        raise InvariantViolation("pci bdfs must be unique")
    return platform


def _check_no_overlap(ranges: tuple) -> None:
    ordered = sorted(ranges, key=lambda r: r.base)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.base < prev.end:
            raise OverlapError("%r overlaps %r" % (prev, cur))


def bus_load(hv: "Hypervisor", measured: "Cell") -> bool:
    """Whether the measured cell sees a loaded bus.

    True iff at least one *other* running cell runs a stress workload.
    """
    if not hv.enabled:
        raise NotEnabled("bus load is defined only while the hypervisor runs")
    return any(cell.loads_bus and cell.id != measured.id
               for cell in hv.cells.values())


# --- platform file format ---------------------------------------------------

_BUS_KEYS = {
    "base", "hv-shift", "hv-logmu", "hv-logsigma",
    "cont-prob", "cont-mean", "cont-logsigma", "quantize", "jitter",
}


def parse_platform(text: str) -> PlatformSpec:
    """Parse the line-based platform format.

    Directives (same lexical rules as the cell DSL, `#` comments), plus
    the resource directives of `parse_resource`:

        platform "<name>"
        gic v2|v3
        bus <key>=<value> ...           # latency model overrides
    """
    name = None
    resources: list = []
    gic = None
    bus_kv: dict[str, str] = {}
    seen_cpus: set = set()

    for lineno, tokens in iter_directives(text):
        keyword, kw_col = tokens[0]
        if keyword == "platform":
            require_args(tokens, lineno, 1)
            if name is not None:
                raise ConfigSemanticError("duplicate platform directive", lineno)
            name = parse_quoted_name(tokens[1], lineno, "platform name")
        elif keyword == "gic":
            require_args(tokens, lineno, 1)
            if gic is not None:
                raise ConfigSemanticError("duplicate gic directive", lineno)
            text_val, col = tokens[1]
            try:
                gic = GicVersion(text_val)
            except ValueError:
                raise ConfigSyntaxError(lineno, col, "gic version must be v2 or v3")
        elif keyword == "bus":
            if len(tokens) == 1:
                raise ConfigSyntaxError(lineno, kw_col, "bus needs key=value arguments")
            for text_val, col in tokens[1:]:
                key, sep, value = text_val.partition("=")
                if not sep or key not in _BUS_KEYS:
                    raise ConfigSyntaxError(
                        lineno, col, "bad bus parameter %r (known: %s)"
                        % (text_val, ", ".join(sorted(_BUS_KEYS))))
                if key in bus_kv:
                    raise ConfigSemanticError("bus %s given twice" % key, lineno)
                bus_kv[key] = value
        else:
            for resource in parse_resource(tokens, lineno):
                if isinstance(resource, Cpu):
                    if resource in seen_cpus:
                        raise ConfigSemanticError(
                            "cpu %d listed twice" % resource.index, lineno)
                    seen_cpus.add(resource)
                resources.append(resource)

    if name is None:
        raise ConfigSemanticError('missing platform "<name>" directive')
    return PlatformSpec(
        name=name, resources=resources, gic_version=gic or GicVersion.V2, bus=_bus_from_kv(bus_kv))


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
    resources: list = [Cpu(i) for i in range(4)]
    resources.append(MemRegion(0x8000_0000, 0x8000_0000,
                               PermFlags.READ | PermFlags.WRITE | PermFlags.EXECUTE | PermFlags.DMA))
    resources.append(MmioDevice(GIC_DIST_NAME, 0x5004_1000, 0x1000))
    resources.append(MmioDevice("gpio", 0x6000_D000, 0x1000))
    resources.append(MmioDevice("uart-a", 0x7000_6000, 0x1000))
    resources.extend(IrqLine(n) for n in range(32, 161))
    return build_platform(PlatformSpec(
        name="jetson-tk1",
        resources=resources,
        gic_version=GicVersion.V2,
        bus=BusModel.default(),
    ))


PRESETS = {"jetson-tk1": jetson_tk1}


def load_platform(source: str) -> MachinePlatform:
    """Resolve a preset name or read a platform file."""
    preset = PRESETS.get(source)
    if preset is not None:
        return preset()
    with open(source, "rb") as fh:
        return build_platform(parse_platform(decode_utf8(fh.read(), "platform file")))
