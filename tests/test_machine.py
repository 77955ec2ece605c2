import inspect
import random
import sys

import pytest
from hypothesis import given, strategies as st

from cellsim import (
    BusModel,
    Cpu,
    DistParams,
    GicVersion,
    IoPortRange,
    IrqLine,
    MemRegion,
    MmioDevice,
    PciDevice,
    PermFlags,
    PlatformSpec,
    build_platform,
    jetson_tk1,
    load_platform,
    parse_platform,
)
from cellsim.errors import (
    ConfigSemanticError,
    ConfigSyntaxError,
    DuplicateIrq,
    EmptyCpuSet,
    InvariantViolation,
    OverlapError,
)
from cellsim.machine import (
    GIC_DIST_NAME, MachinePlatform, parse_perms, perms_to_str, resource_layout)

from conftest import make_tiny_platform
from gen import random_platform


class TestResources:
    def test_mem_region_base_and_end(self):
        region = MemRegion(0x1000, 0x2000)
        assert (region.base, region.size, region.end) == (0x1000, 0x2000, 0x3000)
        assert region.flags == PermFlags.READ | PermFlags.WRITE

    def test_mem_region_rejects_unaligned_base(self):
        with pytest.raises(InvariantViolation):
            MemRegion(0x1001, 0x1000)

    def test_mem_region_rejects_unaligned_size(self):
        with pytest.raises(InvariantViolation):
            MemRegion(0x1000, 0x800)

    def test_mem_region_rejects_zero_size(self):
        with pytest.raises(InvariantViolation):
            MemRegion(0x1000, 0)

    def test_mem_region_rejects_u64_overflow(self):
        with pytest.raises(InvariantViolation):
            MemRegion(0xFFFF_FFFF_FFFF_F000, 0x2000)

    def test_cpu_rejects_negative_index(self):
        with pytest.raises(InvariantViolation):
            Cpu(-1)

    def test_irq_line_rejects_out_of_range(self):
        with pytest.raises(InvariantViolation):
            IrqLine(-5)
        with pytest.raises(InvariantViolation):
            IrqLine(1 << 32)

    @pytest.mark.parametrize("name", ["", "a b!", "uart\n", "\u00e9"])
    def test_mmio_name_must_be_a_plain_name(self, name):
        # the rule of both text formats: ASCII letters, digits, _ and -
        with pytest.raises(InvariantViolation, match="must match"):
            MmioDevice(name, 0x1000, 0x1000)

    def test_ioport_range(self):
        ports = IoPortRange(0x3F8, 8)
        assert (ports.base, ports.length, ports.end) == (0x3F8, 8, 0x400)


class TestPerms:
    def test_parse_all_letters(self):
        flags = parse_perms("rwxd")
        assert flags == (PermFlags.READ | PermFlags.WRITE
                         | PermFlags.EXECUTE | PermFlags.DMA)

    def test_round_trip(self):
        for text in ("r", "rw", "rx", "rwx", "rwxd", "wd"):
            assert perms_to_str(parse_perms(text)) == text

    def test_rejects_unknown_letter(self):
        with pytest.raises(ValueError):
            parse_perms("rq")

    def test_rejects_duplicate_letter(self):
        with pytest.raises(ValueError):
            parse_perms("rr")


def _platform_of(regions):
    resources = [Cpu(0)] + [MemRegion(base, size) for base, size in regions]
    return PlatformSpec(name="p", resources=resources)


class TestOverlapDetection:
    def test_partially_overlapping_regions_rejected(self):
        with pytest.raises(OverlapError):
            build_platform(_platform_of([(0x1000, 0x2000), (0x2000, 0x2000)]))

    def test_touching_regions_are_fine(self):
        platform = build_platform(_platform_of([(0x1000, 0x1000), (0x2000, 0x1000)]))
        assert len(platform.mem_regions) == 2

    @given(st.lists(
        st.tuples(st.integers(0, 200), st.integers(1, 50)), min_size=0, max_size=8))
    def test_matches_pairwise_oracle(self, raw):
        # independent oracle: brute-force pairwise interval intersection
        page = 4096
        regions = [(base * page, size * page) for base, size in raw]
        overlaps = any(
            max(a_base, b_base) < min(a_base + a_size, b_base + b_size)
            for i, (a_base, a_size) in enumerate(regions)
            for b_base, b_size in regions[i + 1:])
        spec = _platform_of(regions)
        if overlaps:
            with pytest.raises(OverlapError):
                build_platform(spec)
        else:
            assert build_platform(spec).name == "p"

    @given(st.lists(st.tuples(st.integers(0, 0xFF), st.integers(1, 0x20)), max_size=6))
    def test_io_port_ranges_match_pairwise_oracle(self, raw):
        overlaps = any(
            max(a_base, b_base) < min(a_base + a_len, b_base + b_len)
            for i, (a_base, a_len) in enumerate(raw) for b_base, b_len in raw[i + 1:])
        spec = PlatformSpec(name="p", resources=[Cpu(0)] + [
            IoPortRange(base, length) for base, length in raw])
        if overlaps:
            with pytest.raises(OverlapError):
                build_platform(spec)
        else:
            assert len(build_platform(spec).io_port_ranges) == len(raw)


PORTS_TEXT = 'platform "ports"\ncpu 0-1\nmem 0x80000000 0x100000 rw\n%s'


class TestBuildPlatform:
    def test_requires_cpus(self):
        with pytest.raises(EmptyCpuSet):
            build_platform(PlatformSpec(name="p", resources=[MemRegion(0x1000, 0x1000)]))

    def test_requires_contiguous_cpu_indices(self):
        with pytest.raises(InvariantViolation):
            build_platform(PlatformSpec(name="p", resources=[Cpu(0), Cpu(2)]))

    def test_rejects_duplicate_irqs(self):
        with pytest.raises(DuplicateIrq):
            build_platform(PlatformSpec(
                name="p", resources=[Cpu(0), IrqLine(40), IrqLine(40)]))

    def test_rejects_duplicate_mmio_names(self):
        with pytest.raises(InvariantViolation):
            build_platform(PlatformSpec(name="p", resources=[
                Cpu(0), MmioDevice("u", 0x1000, 0x1000), MmioDevice("u", 0x3000, 0x1000)]))

    def test_rejects_duplicate_bdfs(self):
        with pytest.raises(InvariantViolation):
            build_platform(PlatformSpec(
                name="p", resources=[Cpu(0), PciDevice(8), PciDevice(8)]))

    def test_mem_and_mmio_overlap_is_rejected(self):
        with pytest.raises(OverlapError):
            build_platform(PlatformSpec(name="p", resources=[
                Cpu(0), MemRegion(0x1000, 0x2000), MmioDevice("u", 0x2000, 0x1000)]))

    def test_overlapping_io_port_ranges_are_rejected(self):
        # handing the inner range to a guest let the guest and the root
        # both reach port 0x6a directly, and audit() did not notice
        # refused on the line that makes the overlap while a file is read,
        # and at the end for a platform built in code
        text = PORTS_TEXT % "ioport 0x60 0x10\nioport 0x68 0x8\n"
        with pytest.raises(ConfigSemanticError,
                           match="^line 5: ioport 0x68 0x8 overlaps ioport 0x60 0x10 on line 4$"):
            parse_platform(text)
        with pytest.raises(OverlapError, match="IoPortRange"):
            build_platform(PlatformSpec(name="p", resources=[
                Cpu(0), IoPortRange(0x60, 0x10), IoPortRange(0x68, 0x8)]))
        touching = build_platform(parse_platform(PORTS_TEXT % "ioport 0x60 0x8\nioport 0x68 0x8\n"))
        assert touching.io_port_ranges == (IoPortRange(0x60, 8), IoPortRange(0x68, 8))
        # ports and addresses are separate spaces
        assert build_platform(PlatformSpec(name="p", resources=[
            Cpu(0), MemRegion(0, 0x1000), IoPortRange(0, 8)])).io_port_ranges == (IoPortRange(0, 8),)

    @pytest.mark.parametrize("stray", ["cpu 1", 7, None, MachinePlatform])
    def test_unknown_resource_type_is_rejected(self, stray):
        with pytest.raises(InvariantViolation, match="unknown platform resource"):
            build_platform(PlatformSpec(name="p", resources=[Cpu(0), stray]))

    def test_name_holds_at_most_31_utf8_bytes(self):
        # the bound cell names have; a longer one overflowed the snapshot
        fits = "board-" + "p" * 25  # 31 bytes
        assert build_platform(PlatformSpec(name=fits, resources=[Cpu(0)])).name == fits
        with pytest.raises(InvariantViolation, match="platform name longer than 31 bytes"):
            build_platform(PlatformSpec(name=fits + "p", resources=[Cpu(0)]))

    @pytest.mark.parametrize("name", ["", "a b!", "\u00e9", "board\n"])
    def test_name_must_be_a_plain_name(self, name):
        # the rule a platform file's `platform "<name>"` line and cell
        # names follow, so a platform built in code cannot differ
        with pytest.raises(InvariantViolation, match="must match"):
            build_platform(PlatformSpec(name=name, resources=[Cpu(0)]))


_VIEW_TYPES = {
    "cpus": Cpu,
    "mem_regions": MemRegion,
    "mmio_devices": MmioDevice,
    "io_port_ranges": IoPortRange,
    "pci_devices": PciDevice,
}


def _sample_platforms():
    rnd = random.Random(0x71E5)
    return [make_tiny_platform(), jetson_tk1()] + [random_platform(rnd) for _ in range(40)]


class TestPlatformViews:
    @staticmethod
    def _check_views(platform):
        for name, kind in _VIEW_TYPES.items():
            assert getattr(platform, name) == tuple(
                r for r in platform.resources if isinstance(r, kind))
        assert platform.irq_numbers == frozenset(
            r.number for r in platform.resources if isinstance(r, IrqLine))
        assert platform.gic_dist_window == next(
            (r for r in platform.resources
             if isinstance(r, MmioDevice) and r.name == GIC_DIST_NAME), None)
        # units are the devices the ledger keeps by object; CPUs and IRQ
        # lines it keeps as masks
        assert isinstance(platform.units, frozenset)
        assert platform.units == set(
            platform.mmio_devices + platform.pci_devices + platform.io_port_ranges)

    def test_views_are_the_type_filters_in_order(self):
        for platform in _sample_platforms():
            self._check_views(platform)

    def test_second_read_returns_the_same_object(self):
        for platform in _sample_platforms():
            for name in list(_VIEW_TYPES) + ["irq_numbers", "gic_dist_window", "units"]:
                assert getattr(platform, name) is getattr(platform, name)

    def test_views_stay_plain_properties(self):
        # A layer tracer wraps these by name on the class; a
        # cached_property would be read once and then bypass it.
        for name in list(_VIEW_TYPES) + ["irq_numbers", "gic_dist_window", "units"]:
            assert type(MachinePlatform.__dict__[name]) is property

    def test_equal_specs_compare_and_hash_equal(self):
        for seed in range(20):
            first = random_platform(random.Random(seed))
            second = random_platform(random.Random(seed))
            assert first is not second
            assert first == second
            assert hash(first) == hash(second)
            assert repr(first) == repr(second)
            assert "_cpus" not in repr(first)
        # the four constructor fields are the whole value; the views are derived
        assert list(inspect.signature(MachinePlatform).parameters) == [
            "name", "layout", "gic_version", "bus"]
        rebuilt = MachinePlatform(first.name, first.layout, first.gic_version, first.bus)
        assert rebuilt == first and hash(rebuilt) == hash(first) and repr(rebuilt) == repr(first)

    def test_hash_is_computed_once_at_construction(self):
        # a bench row's cache hit hashes the platform; it re-hashes no layout
        platform = jetson_tk1()
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code)
                       if event == "call" else None)
        try:
            value = hash(platform)
        finally:
            sys.setprofile(None)
        assert calls == [type(platform).__hash__.__code__]
        assert value == hash(jetson_tk1())

    def test_replace_recomputes_the_views(self):
        platform = random_platform(random.Random(5))
        window = MmioDevice(GIC_DIST_NAME, 0xF000_0000, 0x1000)
        extra = (IrqLine(300), window, PciDevice(0x20), IoPortRange(0x60, 4))
        grown = MachinePlatform(platform.name, resource_layout(platform.resources + extra),
                                platform.gic_version, platform.bus)
        self._check_views(grown)
        assert 300 in grown.irq_numbers and 300 not in platform.irq_numbers
        assert grown.gic_dist_window == window
        assert platform.gic_dist_window is None
        assert grown != platform


class TestHostRegion:
    def _platform(self):
        return build_platform(_platform_of([(0x1000, 0x2000), (0x3000, 0x1000)]))

    def test_finds_the_containing_region(self):
        platform = self._platform()
        low, high = platform.mem_regions
        assert platform.host_region(0x1000, 0x3000) is low
        assert platform.host_region(0x2000, 0x2008) is low
        assert platform.host_region(0x3000, 0x4000) is high

    def test_range_across_two_regions_or_outside_is_none(self):
        platform = self._platform()
        assert platform.host_region(0x2FF8, 0x3008) is None
        assert platform.host_region(0x0, 0x1000) is None
        assert platform.host_region(0x3FFF, 0x4001) is None
        assert platform.host_region(0x8000, 0x9000) is None

    def test_agrees_with_a_containment_scan(self):
        rnd = random.Random(3)
        for platform in _sample_platforms():
            for _ in range(50):
                near = rnd.choice(platform.mem_regions)
                lo = near.base + rnd.randrange(-0x2000, near.size + 0x2000, 8)
                hi = lo + rnd.choice((1, 8, 0x1000, 0x10_0000))
                hosts = [r for r in platform.mem_regions if r.base <= lo and hi <= r.end]
                assert platform.host_region(lo, hi) == (hosts[0] if hosts else None)
            for region in platform.mem_regions:
                assert platform.host_region(region.base, region.end) is region


class TestJetsonPreset:
    def test_quad_core(self, jetson):
        assert [c.index for c in jetson.cpus] == [0, 1, 2, 3]

    def test_two_gigabytes_of_ram(self, jetson):
        (ram,) = jetson.mem_regions
        assert ram.base == 0x8000_0000
        assert ram.size == 0x8000_0000

    def test_gic_v2_with_distributor_window(self, jetson):
        assert jetson.gic_version is GicVersion.V2
        window = jetson.gic_dist_window
        assert window is not None
        assert window.base == 0x5004_1000
        assert window.size == 0x1000

    def test_irq_lines(self, jetson):
        assert min(jetson.irq_numbers) == 32
        assert max(jetson.irq_numbers) == 160

    def test_default_bus(self, jetson):
        assert jetson.bus.base_latency_us == pytest.approx(0.45)
        assert jetson.bus.quantize_enabled and jetson.bus.phase_jitter_enabled


PLATFORM_TEXT = """
# a small board
platform "board"
gic v3
cpu 0-1
mem 0x10000000 0x100000 rwxd
mmio gic-dist 0x50041000 0x1000
mmio uart 0x70006000 0x1000
pci 0x0010
ioport 0x3f8 0x8
irq 32,33,40-42
bus base=0.5 quantize=off
"""


class TestPlatformParsing:
    def test_parse_and_build(self):
        platform = build_platform(parse_platform(PLATFORM_TEXT))
        assert platform.name == "board"
        assert platform.gic_version is GicVersion.V3
        assert len(platform.cpus) == 2
        assert platform.irq_numbers == frozenset({32, 33, 40, 41, 42})
        assert platform.bus.base_latency_us == pytest.approx(0.5)
        assert platform.bus.quantize_enabled is False
        assert platform.bus.phase_jitter_enabled is True
        assert [dev.name for dev in platform.mmio_devices] == ["gic-dist", "uart"]
        assert platform.gic_dist_window is platform.mmio_devices[0]
        assert platform.mmio_devices[1].base == 0x7000_6000

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigSyntaxError) as excinfo:
            parse_platform('platform "p"\ncpu zzz\n')
        assert excinfo.value.line == 2

    def test_unknown_directive(self):
        with pytest.raises(ConfigSyntaxError):
            parse_platform('platform "p"\nflux 1\n')

    @pytest.mark.parametrize("key", ["base", "hv-shift", "cont-prob", "cont-mean"])
    def test_non_numeric_bus_value_is_a_semantic_error(self, key):
        with pytest.raises(ConfigSemanticError) as excinfo:
            parse_platform('platform "p"\ncpu 0\nbus %s=abc\n' % key)
        assert key in str(excinfo.value) and "'abc'" in str(excinfo.value)

    @pytest.mark.parametrize("line, error, text", [
        ("gic v4", ConfigSyntaxError, "gic version must be v2 or v3"),
        ("bus", ConfigSyntaxError, "bus needs key=value arguments"),
        ("bus speed=2", ConfigSyntaxError, "bad bus parameter 'speed=2'"),
        ("bus base", ConfigSyntaxError, "bad bus parameter 'base'"),
        ("bus cont-logsigma=wide", ConfigSemanticError, "cont-logsigma must be a number"),
        ("bus jitter=yes", ConfigSemanticError, "jitter must be on or off"),
    ])
    def test_bad_gic_and_bus_lines_are_refused(self, line, error, text):
        with pytest.raises(error, match=text):
            parse_platform('platform "p"\ncpu 0\n%s\n' % line)

    @pytest.mark.parametrize("lines, text", [
        ('platform "q"', "line 3: duplicate platform directive"),
        ("gic v3\ngic v2", "line 4: duplicate gic directive"),
        ("bus base=0.5 base=0.6", "line 3: bus base given twice"),
        ("bus quantize=off\nbus jitter=off quantize=on", "line 4: bus quantize given twice"),
    ])
    def test_repeated_directive_is_refused_on_its_line(self, lines, text):
        # the first one used to be replaced silently by the last
        with pytest.raises(ConfigSemanticError, match="^%s$" % text):
            parse_platform('platform "p"\ncpu 0\n%s\n' % lines)

    def test_bus_keys_may_span_lines(self):
        bus = parse_platform('platform "p"\ncpu 0\nbus base=0.5\nbus quantize=off\n').bus
        assert (bus.base_latency_us, bus.quantize_enabled) == (0.5, False)

    def test_platform_line_is_required(self):
        with pytest.raises(ConfigSemanticError, match='missing platform "<name>"'):
            parse_platform("cpu 0\nmem 0x10000000 0x100000 rw\n")

    def test_cont_mean_overrides_the_contention_mean(self):
        default = BusModel.default().contention
        bus = parse_platform('platform "p"\ncpu 0\nbus cont-mean=2.5\n').bus
        assert bus.contention.mean_us == pytest.approx(2.5)
        assert bus.contention.log_sigma == default.log_sigma
        wider = parse_platform('platform "p"\ncpu 0\nbus cont-logsigma=0.6\n').bus
        assert wider.contention.mean_us == pytest.approx(default.mean_us)
        assert wider.contention.log_sigma == 0.6

    def test_non_utf8_platform_file_rejected(self, tmp_path):
        path = tmp_path / "board.platform"
        path.write_bytes(b'platform "\xff"\ncpu 0\n')
        with pytest.raises(InvariantViolation, match="not valid UTF-8"):
            load_platform(str(path))

    def test_load_platform_preset(self):
        assert load_platform("jetson-tk1").name == "jetson-tk1"

    def test_load_platform_file(self, tmp_path):
        path = tmp_path / "board.platform"
        path.write_text(PLATFORM_TEXT)
        assert load_platform(str(path)).name == "board"

    def test_load_platform_unknown(self):
        with pytest.raises(FileNotFoundError):
            load_platform("no-such-preset-or-file")


class TestDistParams:
    def test_from_mean_recovers_mean(self):
        params = DistParams.from_mean(1.0, log_sigma=0.38)
        assert params.mean_us == pytest.approx(1.0)

    def test_shift_adds_to_mean(self):
        params = DistParams.from_mean(1.5, log_sigma=0.5, shift_us=0.7)
        assert params.mean_us == pytest.approx(1.5)
        assert params.shift_us == 0.7


class TestBusModel:
    def test_default_is_calibrated(self):
        bus = BusModel.default()
        assert bus.base_latency_us == 0.45
        assert bus.hv_overhead.shift_us == pytest.approx(0.70)
        assert bus.contention.mean_us == pytest.approx(1.0)
        assert bus.contention_prob == pytest.approx(0.10)

    def test_without_measurement_disables_both_layers(self):
        bus = BusModel.default().without_measurement()
        assert bus.quantize_enabled is False
        assert bus.phase_jitter_enabled is False
        assert bus.base_latency_us == 0.45
