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
from typing import TYPE_CHECKING, Iterable, Optional, Union

from ._dsl import (
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

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end


@dataclass(frozen=True)
class MmioDevice:
    name: str
    base: int
    size: int

    def __post_init__(self):
        _check_region(self.base, self.size, "mmio device %r" % self.name)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end


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

    def contains(self, port: int, width: int = 1) -> bool:
        return self.base <= port and port + width <= self.end


@dataclass(frozen=True)
class IrqLine:
    number: int

    def __post_init__(self):
        if not 0 <= self.number <= 0xFFFFFFFF:
            raise InvariantViolation("irq number out of range: %d" % self.number)


Resource = Union[Cpu, MemRegion, MmioDevice, PciDevice, IoPortRange, IrqLine]


def _check_region(base: int, size: int, what: str) -> None:
    if size <= 0:
        raise InvariantViolation("%s: size must be positive" % what)
    if base % PAGE_SIZE or size % PAGE_SIZE:
        raise InvariantViolation("%s: base and size must be multiples of %d" % (what, PAGE_SIZE))
    if base < 0 or base + size > U64_MAX:
        raise InvariantViolation("%s: range overflows 64 bits" % what)


@dataclass(frozen=True)
class DistParams:
    """Shifted log-normal distribution: shift_us + exp(N(log_mu, log_sigma))."""

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

    def draw(self, rng) -> float:
        return self.shift_us + math.exp(self.log_mu + self.log_sigma * rng.standard_normal())


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
    has_pci: Optional[bool] = None  # None: derived from the resource list


@dataclass(frozen=True)
class MachinePlatform:
    name: str
    resources: tuple
    has_pci: bool
    gic_version: GicVersion
    bus: BusModel

    def __post_init__(self):
        # A platform never changes, so its typed views are derived once,
        # here.  They are plain attributes, not fields: equality, hashing
        # and repr see only the fields above.
        for attr, kind in (("_cpus", Cpu), ("_mem_regions", MemRegion),
                           ("_mmio_devices", MmioDevice), ("_io_port_ranges", IoPortRange),
                           ("_pci_devices", PciDevice)):
            object.__setattr__(self, attr, tuple(
                r for r in self.resources if isinstance(r, kind)))
        object.__setattr__(self, "_irq_numbers", frozenset(
            r.number for r in self.resources if isinstance(r, IrqLine)))
        object.__setattr__(self, "_gic_dist_window", self.find_mmio(GIC_DIST_NAME))

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

    def find_mmio(self, name: str) -> Optional[MmioDevice]:
        for dev in self._mmio_devices:
            if dev.name == name:
                return dev
        return None

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
    resources = tuple(spec.resources)

    cpu_indices = [r.index for r in resources if isinstance(r, Cpu)]
    if not cpu_indices:
        raise EmptyCpuSet("platform %r declares no CPUs" % spec.name)
    if sorted(cpu_indices) != list(range(len(cpu_indices))):
        raise InvariantViolation(
            "cpu indices must be unique and contiguous from 0, got %s" % sorted(cpu_indices))

    irqs = [r.number for r in resources if isinstance(r, IrqLine)]
    if len(irqs) != len(set(irqs)):
        dupes = sorted({n for n in irqs if irqs.count(n) > 1})
        raise DuplicateIrq("irq lines listed twice: %s" % dupes)

    _check_no_overlap(r for r in resources if isinstance(r, (MemRegion, MmioDevice)))

    mmio_names = [r.name for r in resources if isinstance(r, MmioDevice)]
    if len(mmio_names) != len(set(mmio_names)):
        raise InvariantViolation("mmio device names must be unique")

    has_pci = spec.has_pci
    if has_pci is None:
        has_pci = any(isinstance(r, PciDevice) for r in resources)
    bdfs = [r.bdf for r in resources if isinstance(r, PciDevice)]
    if len(bdfs) != len(set(bdfs)):
        raise InvariantViolation("pci bdfs must be unique")

    return MachinePlatform(
        name=spec.name,
        resources=resources,
        has_pci=has_pci,
        gic_version=spec.gic_version,
        bus=spec.bus if spec.bus is not None else BusModel.default(),
    )


def _check_no_overlap(regions: Iterable) -> None:
    intervals = sorted(
        ((r.base, r.base + r.size, r) for r in regions), key=lambda t: t[0])
    for (_, prev_end, prev), (base, _, cur) in zip(intervals, intervals[1:]):
        if base < prev_end:
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

    Directives (same lexical rules as the cell DSL, `#` comments):

        platform "<name>"
        gic v2|v3
        cpu <list>                      # e.g. 0-3 or 0,1,2
        mem <hex-base> <hex-size> <perm-string>
        mmio <name> <hex-base> <hex-size>
        pci <bdf-hex>
        ioport <hex-base> <hex-len>
        irq <list>
        bus <key>=<value> ...           # latency model overrides
    """
    name = None
    resources: list = []
    gic = GicVersion.V2
    bus_kv: dict[str, str] = {}
    seen_cpus: set[int] = set()

    for lineno, tokens in iter_directives(text):
        keyword, kw_col = tokens[0]
        if keyword == "platform":
            require_args(tokens, lineno, 1)
            name = parse_quoted_name(tokens[1], lineno, "platform name")
        elif keyword == "gic":
            require_args(tokens, lineno, 1)
            text_val, col = tokens[1]
            try:
                gic = GicVersion(text_val)
            except ValueError:
                raise ConfigSyntaxError(lineno, col, "gic version must be v2 or v3")
        elif keyword == "cpu":
            require_args(tokens, lineno, 1)
            for idx in parse_id_list(tokens[1], lineno, "cpu list"):
                if idx in seen_cpus:
                    raise ConfigSemanticError("cpu %d listed twice" % idx, lineno)
                seen_cpus.add(idx)
                resources.append(Cpu(idx))
        elif keyword == "mem":
            require_args(tokens, lineno, 3)
            base = parse_hex(tokens[1], lineno, "mem base")
            size = parse_hex(tokens[2], lineno, "mem size")
            perm_text, perm_col = tokens[3]
            try:
                flags = parse_perms(perm_text)
            except ValueError as exc:
                raise ConfigSyntaxError(lineno, perm_col, str(exc))
            resources.append(_region_or_semantic_error(base, size, flags, lineno))
        elif keyword == "mmio":
            require_args(tokens, lineno, 3)
            dev_name = parse_plain_name(tokens[1], lineno, "mmio name")
            base = parse_hex(tokens[2], lineno, "mmio base")
            size = parse_hex(tokens[3], lineno, "mmio size")
            try:
                resources.append(MmioDevice(dev_name, base, size))
            except InvariantViolation as exc:
                raise ConfigSemanticError(str(exc), lineno)
        elif keyword == "pci":
            require_args(tokens, lineno, 1)
            bdf = parse_hex(tokens[1], lineno, "pci bdf")
            try:
                resources.append(PciDevice(bdf))
            except InvariantViolation as exc:
                raise ConfigSemanticError(str(exc), lineno)
        elif keyword == "ioport":
            require_args(tokens, lineno, 2)
            base = parse_hex(tokens[1], lineno, "ioport base")
            length = parse_hex(tokens[2], lineno, "ioport len")
            try:
                resources.append(IoPortRange(base, length))
            except InvariantViolation as exc:
                raise ConfigSemanticError(str(exc), lineno)
        elif keyword == "irq":
            require_args(tokens, lineno, 1)
            for num in parse_id_list(tokens[1], lineno, "irq list"):
                resources.append(IrqLine(num))
        elif keyword == "bus":
            if len(tokens) == 1:
                raise ConfigSyntaxError(lineno, kw_col, "bus needs key=value arguments")
            for text_val, col in tokens[1:]:
                key, sep, value = text_val.partition("=")
                if not sep or key not in _BUS_KEYS:
                    raise ConfigSyntaxError(
                        lineno, col, "bad bus parameter %r (known: %s)"
                        % (text_val, ", ".join(sorted(_BUS_KEYS))))
                bus_kv[key] = value
        else:
            raise ConfigSyntaxError(lineno, kw_col, "unknown directive %r" % keyword)

    if name is None:
        raise ConfigSemanticError('missing platform "<name>" directive')
    return PlatformSpec(
        name=name, resources=resources, gic_version=gic, bus=_bus_from_kv(bus_kv))


def _region_or_semantic_error(base, size, flags, lineno) -> MemRegion:
    try:
        return MemRegion(base, size, flags)
    except InvariantViolation as exc:
        raise ConfigSemanticError(str(exc), lineno)


def _bus_from_kv(kv: dict[str, str]) -> Optional[BusModel]:
    if not kv:
        return None
    default = BusModel.default()

    def num(key, fallback):
        return float(kv[key]) if key in kv else fallback

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
    with open(source, "r", encoding="utf-8") as fh:
        return build_platform(parse_platform(fh.read()))
