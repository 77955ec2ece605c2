import dataclasses
import math
import random

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
    ConfigSyntaxError,
    DuplicateIrq,
    EmptyCpuSet,
    InvariantViolation,
    OverlapError,
)
from cellsim.machine import GIC_DIST_NAME, MachinePlatform, parse_perms, perms_to_str
from cellsim.rng import make_rng

from conftest import make_tiny_platform
from gen import random_platform


class TestResources:
    def test_mem_region_end_and_contains(self):
        region = MemRegion(0x1000, 0x2000)
        assert region.end == 0x3000
        assert region.contains(0x1000)
        assert region.contains(0x2FFF)
        assert not region.contains(0x3000)
        assert region.contains(0x2000, 0x1000)
        assert not region.contains(0x2000, 0x1001)

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

    def test_ioport_range(self):
        ports = IoPortRange(0x3F8, 8)
        assert ports.end == 0x400
        assert ports.contains(0x3FF)
        assert not ports.contains(0x400)


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

    def test_derives_has_pci(self):
        plain = build_platform(PlatformSpec(name="p", resources=[Cpu(0)]))
        assert plain.has_pci is False
        with_pci = build_platform(PlatformSpec(
            name="p", resources=[Cpu(0), PciDevice(8)]))
        assert with_pci.has_pci is True


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

    def test_views_are_the_type_filters_in_order(self):
        for platform in _sample_platforms():
            self._check_views(platform)

    def test_second_read_returns_the_same_object(self):
        for platform in _sample_platforms():
            for name in list(_VIEW_TYPES) + ["irq_numbers", "gic_dist_window"]:
                assert getattr(platform, name) is getattr(platform, name)

    def test_views_stay_plain_properties(self):
        # A layer tracer wraps these by name on the class; a
        # cached_property would be read once and then bypass it.
        for name in list(_VIEW_TYPES) + ["irq_numbers", "gic_dist_window"]:
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
        assert [f.name for f in dataclasses.fields(first)] == [
            "name", "resources", "has_pci", "gic_version", "bus"]

    def test_replace_recomputes_the_views(self):
        platform = random_platform(random.Random(5))
        window = MmioDevice(GIC_DIST_NAME, 0xF000_0000, 0x1000)
        extra = (IrqLine(300), window, PciDevice(0x20), IoPortRange(0x60, 4))
        grown = dataclasses.replace(platform, resources=platform.resources + extra)
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

    def test_agrees_with_contains(self):
        rnd = random.Random(3)
        for platform in _sample_platforms():
            for _ in range(50):
                near = rnd.choice(platform.mem_regions)
                lo = near.base + rnd.randrange(-0x2000, near.size + 0x2000, 8)
                hi = lo + rnd.choice((1, 8, 0x1000, 0x10_0000))
                hosts = [r for r in platform.mem_regions if r.contains(lo, hi - lo)]
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

    def test_no_pci(self, jetson):
        assert jetson.has_pci is False

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
        assert platform.find_mmio("uart").base == 0x7000_6000

    def test_syntax_error_carries_position(self):
        with pytest.raises(ConfigSyntaxError) as excinfo:
            parse_platform('platform "p"\ncpu zzz\n')
        assert excinfo.value.line == 2

    def test_unknown_directive(self):
        with pytest.raises(ConfigSyntaxError):
            parse_platform('platform "p"\nflux 1\n')

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

    def test_zero_width_draw_is_exact(self):
        params = DistParams(shift_us=0.25, log_mu=math.log(0.5), log_sigma=0.0)
        rng = make_rng(3)
        assert params.draw(rng) == pytest.approx(0.75)

    def test_draws_are_deterministic_per_seed(self):
        params = DistParams(0.1, -2.0, 0.6)
        first = [params.draw(make_rng(9, "t")) for _ in range(1)]
        second = [params.draw(make_rng(9, "t")) for _ in range(1)]
        assert first == second

    def test_empirical_mean_tracks_parameter(self):
        params = DistParams.from_mean(1.0, log_sigma=0.38)
        rng = make_rng(11)
        mean = sum(params.draw(rng) for _ in range(200_000)) / 200_000
        assert mean == pytest.approx(1.0, rel=0.01)


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
