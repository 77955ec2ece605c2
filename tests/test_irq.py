import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cellsim import (
    AccessOutcome,
    BusModel,
    CellState,
    DistParams,
    Hypervisor,
    IrqDeliveries,
    LatencyStats,
    Scenario,
    TrapKind,
    Workload,
    WorkloadKind,
    enable,
    full_platform_config,
    latency_streams,
    quantize_62_5ns,
    raise_irq,
    raise_irqs,
    sample_latency,
)
from cellsim.errors import (
    CellSimError,
    InvariantViolation,
    NoSuchLine,
    NoSuchResource,
    NotEnabled,
    UnownedIrq,
)
from cellsim import irq
from cellsim.comm import create_channel, send
from cellsim.hvcore import EXIT_SLOT, Access, AccessKind
from cellsim.irq import LATTICE_US, DoorbellLatencies, distributor_access, draw
from cellsim.machine import bus_load, parse_platform
from cellsim.rng import entropy_words, h64, make_rng, pcg64
from cellsim.snapshot import load_session, save_session

from conftest import make_tiny_platform, with_bus
from test_hvcore import RAM, small_cell, tiny_hv


class TestQuantize:
    def test_zero(self):
        assert quantize_62_5ns(0.0) == 0.0

    def test_rounds_down_below_midpoint(self):
        # 0.45 us = 7.2 ticks
        assert quantize_62_5ns(0.45) == 0.4375

    def test_tie_rounds_up(self):
        # 0.46875 us = 7.5 ticks exactly
        assert quantize_62_5ns(0.46875) == 0.5

    def test_lattice_points_are_fixed(self):
        for k in range(200):
            assert quantize_62_5ns(k * LATTICE_US) == k * LATTICE_US

    def test_negative_rejected(self):
        with pytest.raises(InvariantViolation):
            quantize_62_5ns(-0.001)

    @given(st.floats(0, 1e6))
    def test_result_is_near_and_on_lattice(self, t):
        q = quantize_62_5ns(t)
        assert abs(q - t) <= LATTICE_US / 2 + 1e-9
        ticks = q / LATTICE_US
        assert ticks == round(ticks)

    @given(st.floats(0, 1e3), st.floats(0, 1e3))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert quantize_62_5ns(lo) <= quantize_62_5ns(hi)

    def test_array_equals_scalar(self):
        t = np.array([0.0, 0.45, 0.46875, 1.3, 5.03125, 1e6 + 0.1])
        assert quantize_62_5ns(t).tolist() == [quantize_62_5ns(x) for x in t.tolist()]
        with pytest.raises(InvariantViolation):
            quantize_62_5ns(np.array([0.5, -0.001]))

    def test_in_place_snap_is_the_scalar_rule(self):
        # 0, the smallest subnormal, every tie (2k+1)/32 us up to k = 10^6, a huge
        # finite time and inf, snapped in the buffer sample_latency snaps in
        ties = (2 * np.arange(10**6 + 1) + 1) / 32
        t = np.concatenate([[0.0, 5e-324], ties, [1e300, math.inf]])
        kept = t.tolist()
        snapped = t.copy()
        assert irq._snap(snapped, snapped) is snapped
        got, want = snapped.tolist(), [quantize_62_5ns(x) for x in kept]
        assert got[:-1] == want[:-1]
        assert got[2:-2] == ((np.arange(10**6 + 1) + 1) * LATTICE_US).tolist()  # ties round up
        # inf stays inf in the array and is NaN by // 1; _check_fits refuses either
        assert got[-1] == math.inf and math.isnan(want[-1])
        assert quantize_62_5ns(t).tolist() == got and t.tolist() == kept


class TestStreams:
    def test_xor_partner_seed_does_not_collide(self):
        # seed XOR h(tag) mapped (0, A) and (h(A)^h(B), B) to one stream
        partner = h64("A") ^ h64("B")
        assert make_rng(0, "A").random(4).tolist() != make_rng(partner, "B").random(4).tolist()
        for a, b in zip(latency_streams(0, "A"), latency_streams(partner, "B")):
            assert a.random(4).tolist() != b.random(4).tolist()

    def test_streams_are_pure_and_distinct(self):
        first = [g.random(4).tolist() for g in latency_streams(5, "x")]
        assert first == [g.random(4).tolist() for g in latency_streams(5, "x")]
        draws = first + [make_rng(5, "x").random(4).tolist()]
        assert len({tuple(d) for d in draws}) == 5

    def test_latency_streams_are_four_spawned_children(self):
        streams = latency_streams(5, "x")
        assert len(streams) == 4
        words = entropy_words(5, h64("x"))
        assert [g.random() for g in streams] == [pcg64(words, (i,)).random() for i in range(4)]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("h", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_entropy_words_are_numpys_own_coercion(self, seed, h):
        words = entropy_words(seed, h)
        assert words.dtype == np.uint32
        assert words.tolist() == [seed & 0xFFFFFFFF] + [seed >> 32] * (seed >= 2**32) + [
            h & 0xFFFFFFFF] + [h >> 32] * (h >= 2**32)
        for i in range(4):
            assert np.array_equal(
                np.random.SeedSequence(words, spawn_key=(i,)).generate_state(4, np.uint64),
                np.random.SeedSequence([seed, h], spawn_key=(i,)).generate_state(4, np.uint64))

    SEEDS = (0, 7, 2**64 - 1)
    TAGS = ("", "hv-doorbell", "scenario vmm=1 freq=50.0 stress=1", "stre\u00df \u2192 \u00fc")

    @staticmethod
    def spawned(seed, tag):
        """The four streams as SeedSequence.spawn builds them: the reference."""
        children = np.random.SeedSequence([seed, h64(tag)]).spawn(4)
        return [np.random.Generator(np.random.PCG64(child)) for child in children]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("tag", TAGS)
    def test_a_stream_built_alone_is_the_spawned_child(self, seed, tag):
        spawned = [g.bit_generator.state for g in self.spawned(seed, tag)]
        words = entropy_words(seed, h64(tag))
        assert [pcg64(words, (i,)).bit_generator.state for i in range(4)] == spawned
        for i in range(4):  # stream i first, then all four in order
            assert latency_streams(seed, tag)[i].bit_generator.state == spawned[i]
        assert [g.bit_generator.state for g in latency_streams(seed, tag)] == spawned
        streams = latency_streams(seed, tag)
        assert streams[-1] is streams[3]
        with pytest.raises(IndexError):
            streams[4]

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("build", [
        lambda seed: make_rng(seed, "x"), lambda seed: pcg64(entropy_words(seed, h64("x")), (0,)),
        lambda seed: tuple(latency_streams(seed, "x"))],
        ids=["make_rng", "pcg64", "latency_streams"])
    def test_a_seed_outside_u64_is_refused_not_aliased(self, seed, build):
        # masked to 64 bits, 2^64 drew what 0 draws and -1 what 2^64 - 1 draws
        with pytest.raises(InvariantViolation, match=r"^seed %d outside \[0, 2\^64\)$" % seed):
            build(seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("vmm_on, stressed, drawn", [
        (False, False, [3]), (True, False, [0, 3]), (True, True, [0, 1, 2, 3])])
    def test_a_row_builds_only_the_streams_it_draws(self, seed, vmm_on, stressed, drawn,
                                                     monkeypatch):
        bus = BusModel.default()
        eager = sample_latency(vmm_on, stressed, bus, self.spawned(seed, "row"), 3000)
        built = []

        def counted(words, spawn_key):
            built.extend(spawn_key)
            return pcg64(words, spawn_key)
        monkeypatch.setattr(irq, "pcg64", counted)
        lazy = sample_latency(vmm_on, stressed, bus, latency_streams(seed, "row"), 3000)
        assert lazy.tolist() == eager.tolist()
        assert sorted(built) == drawn


def in_pieces(sampler, sizes):
    """sampler(n) for each n in sizes, in turn, as one list."""
    return [value for n in sizes for value in sampler(n).tolist()]


class TestDraw:
    def test_zero_width_draw_is_exact(self):
        params = DistParams(shift_us=0.25, log_mu=math.log(0.5), log_sigma=0.0)
        assert draw(params, make_rng(3), 4).tolist() == pytest.approx([0.75] * 4)

    def test_draws_are_deterministic_per_seed(self):
        params = DistParams(0.1, -2.0, 0.6)
        assert (draw(params, make_rng(9, "t"), 50).tolist()
                == draw(params, make_rng(9, "t"), 50).tolist())

    def test_batch_draw_equals_single_draws(self):
        # a batch equals size-1 draws and any other split of the stream
        params = DistParams.from_mean(1.0, log_sigma=0.38, shift_us=0.2)
        batch = draw(params, make_rng(12, "b"), 1000)
        rng = make_rng(12, "b")
        assert batch.tolist() == in_pieces(lambda n: draw(params, rng, n), [1] * 1000)
        rng = make_rng(12, "b")
        assert batch.tolist() == in_pieces(lambda n: draw(params, rng, n), [16, 32, 952])

    def test_empirical_mean_tracks_parameter(self):
        params = DistParams.from_mean(1.0, log_sigma=0.38)
        assert draw(params, make_rng(11), 200_000).mean() == pytest.approx(1.0, rel=0.01)


class TestSampleLatency:
    @pytest.mark.parametrize("base", [5e-324, 0.45, 1e300])
    def test_an_off_row_is_its_base_bit_for_bit(self, base):
        bus = BusModel(base, *BusModel.default()._key[1:4], quantize_enabled=False,
                       phase_jitter_enabled=False)
        values = sample_latency(False, False, bus, latency_streams(1), 7)
        assert values.tobytes() == np.full(7, base).tobytes()

    def test_off_raw_is_exactly_base(self):
        bus = BusModel.default().without_measurement()
        rng = latency_streams(1)
        assert sample_latency(False, False, bus, rng, 3).tolist() == [0.45] * 3
        assert sample_latency(False, True, bus, rng, 3).tolist() == [0.45] * 3

    def test_off_measured_hits_two_lattice_points(self):
        values = sample_latency(False, False, BusModel.default(), latency_streams(2), 5000)
        assert set(values.tolist()) == {0.4375, 0.5}

    def test_off_measured_mean_is_unbiased(self):
        values = sample_latency(False, False, BusModel.default(), latency_streams(3), 40_000)
        assert values.mean() == pytest.approx(0.45, abs=0.001)

    def test_on_raw_has_floor_above_base_plus_shift(self):
        bus = BusModel.default().without_measurement()
        values = sample_latency(True, False, bus, latency_streams(4), 5000)
        assert values.min() > 0.45 + 0.70
        assert values.mean() == pytest.approx(0.45 + 0.70 + math.exp(-2.3 + 0.5 * 0.36),
                                              rel=0.01)

    def test_stress_adds_contention_tail(self):
        bus = BusModel.default().without_measurement()
        n = 40_000
        calm = sample_latency(True, False, bus, latency_streams(5), n).mean()
        loaded = sample_latency(True, True, bus, latency_streams(5), n).mean()
        # contention fires with p=0.1 and adds 1.0 on average
        assert loaded - calm == pytest.approx(0.10, abs=0.02)

    @pytest.mark.parametrize("quantize", ["on", "off"])
    def test_latency_is_clamped_at_zero(self, quantize):
        # a 0.01 us floor plus jitter of up to half a tick either way dips below 0
        bus = low_floor_bus(quantize)
        batch = sample_latency(False, False, bus, latency_streams(12, "clamp"), 4000)
        streams = latency_streams(12, "clamp")
        pieces = in_pieces(lambda n: sample_latency(False, False, bus, streams, n),
                           [1, 999, 3000])
        assert batch.tolist() == pieces
        assert batch.min() == 0.0 and batch.max() > 0.0

    def test_clamped_deliveries_and_doorbells_are_never_early(self):
        platform = with_bus(make_tiny_platform(), low_floor_bus("off", "hv-logmu=-20"))
        delivery = raise_irqs(Hypervisor(platform), 33, range(0, 4000_000, 1000),
                              latency_streams(13))
        assert (delivery.delivered_at >= delivery.raised_at).all()
        assert delivery.latency_us.min() == 0.0
        hv = enable(platform, full_platform_config(platform))
        a = hv.create_cell(small_cell("alpha", cpu=1, size=0x4000))
        b = hv.create_cell(small_cell("beta", cpu=2, base=RAM + 0xC_0000, size=0x4000))
        hv.start_cell(b)
        ch = create_channel(hv, a, b, 0x1000, 1)
        for _ in range(200):
            send(hv, ch, a, 0, b"ring", 0)
        latencies = [record["latency_us"] for record in hv.channel_trace]
        assert min(latencies) == 0.0 and max(latencies) > 0.0

    def test_draw_order_is_pinned(self):
        # one draw per component per sample, each from its own stream,
        # summed in the order base, overhead, contention, jitter; a
        # stressed doorbell ring draws the same way from "hv-doorbell"
        bus = BusModel.default()
        value = sample_latency(True, True, bus, latency_streams(6, "order"), 1)[0]
        ring = DoorbellLatencies(bus, 6).ring(True)
        for tag, got in (("order", value), ("hv-doorbell", ring)):
            overhead, trigger, contention, jitter = latency_streams(6, tag)
            manual = bus.base_latency_us + draw(bus.hv_overhead, overhead, 1)[0]
            manual += (draw(bus.contention, contention, 1)[0]
                       * (trigger.random() < bus.contention_prob))
            manual += jitter.random() * LATTICE_US - LATTICE_US / 2
            assert got == quantize_62_5ns(max(float(manual), 0.0))

    @pytest.mark.parametrize("vmm_on, stressed", [(False, False), (True, False), (True, True)])
    @pytest.mark.parametrize("measured", [True, False])
    def test_batch_equals_single_draws(self, vmm_on, stressed, measured):
        # a batch equals size-1 batches, and a hypervisor-on batch equals
        # as many doorbell rings, which draw their streams in blocks
        bus = BusModel.default() if measured else BusModel.default().without_measurement()
        batch = sample_latency(vmm_on, stressed, bus, latency_streams(9, "b"), 3000)
        streams = latency_streams(9, "b")
        singles = in_pieces(lambda n: sample_latency(vmm_on, stressed, bus, streams, n),
                            [1] * 3000)
        assert batch.dtype == np.float64
        assert batch.tolist() == singles
        if vmm_on:
            doorbells = DoorbellLatencies(bus, 9)
            rings = [doorbells.ring(stressed) for _ in range(3000)]
            assert {type(x) for x in rings} == {float}
            assert rings == sample_latency(
                True, stressed, bus, latency_streams(9, "hv-doorbell"), 3000).tolist()

    def test_same_seed_same_stream(self):
        bus = BusModel.default()
        first = DoorbellLatencies(bus, 7).ring(True)
        assert first == DoorbellLatencies(bus, 7).ring(True)
        ring_a, ring_b = DoorbellLatencies(bus, 8), DoorbellLatencies(bus, 8)
        stream_a = [ring_a.ring(True) for _ in range(100)]
        assert stream_a == [ring_b.ring(True) for _ in range(100)]
        assert stream_a != [DoorbellLatencies(bus, 9).ring(True) for _ in range(100)]
        assert (sample_latency(True, True, bus, latency_streams(8, "s"), 100).tolist()
                == sample_latency(True, True, bus, latency_streams(8, "s"), 100).tolist())


def _bus(extra):
    """The bus model of a platform file's `bus` line."""
    return parse_platform('platform "p"\ncpu 0\nbus %s\n' % extra).bus


def low_floor_bus(quantize, *extra):
    """A bus model whose 0.01 us floor the phase jitter can take below 0."""
    return _bus("base=0.01 hv-shift=0 quantize=%s %s" % (quantize, " ".join(extra)))


class TestRaiseIrq:
    def test_unknown_line(self):
        hv = tiny_hv()
        with pytest.raises(NoSuchLine):
            raise_irq(hv, 999, 0, latency_streams(0))

    def test_bare_metal_path_without_hypervisor(self):
        platform = make_tiny_platform()
        hv = Hypervisor(platform)
        delivery = raise_irq(hv, 33, 1000, latency_streams(1))
        assert isinstance(delivery, IrqDeliveries)
        assert delivery.path == "bare-metal"
        assert delivery.owner == 0
        assert delivery.raised_at.tolist() == [1000]
        assert delivery.latency_us[0] in (0.4375, 0.5)
        assert delivery.delivered_at[0] - delivery.raised_at[0] in (438, 500)
        assert hv.events == []

    def test_reinjected_path_counts_one_exit_at_raise_time(self):
        hv = tiny_hv()
        events, exits = list(hv.events), copy.deepcopy(hv.exits)
        delivery = raise_irq(hv, 33, 12345, latency_streams(2))
        assert delivery.path == "reinjected"
        assert delivery.owner == 0
        assert delivery.raised_at.tolist() == [12345]
        exits[0][EXIT_SLOT[TrapKind.IRQ_REINJECTION]] += 1
        assert hv.exits == exits
        assert hv.events == events
        assert hv.clock == 12345
        assert delivery.latency_us[0] > 1.0

    def test_guest_owned_line_delivers_to_guest(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(irqs=[34]))
        hv.start_cell(cell_id)
        delivery = raise_irq(hv, 34, 0, latency_streams(3))
        assert delivery.owner == cell_id

    def test_spurious_line_of_stopped_owner(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(irqs=[34]))
        before = len(hv.events)
        with pytest.raises(UnownedIrq):
            raise_irq(hv, 34, 500, latency_streams(4))
        (event,) = hv.events[before:]
        assert event.kind is TrapKind.ACCESS_VIOLATION
        assert event.cell == cell_id
        assert "34" in event.detail

    def test_a_float_line_is_refused_before_anything_is_logged(self):
        # 34.0 found line 34, and its spurious event would have held the float
        hv = tiny_hv()
        hv.create_cell(small_cell(irqs=[34]))
        before = list(hv.events)
        with pytest.raises(InvariantViolation) as refused:
            raise_irqs(hv, 34.0, [500], latency_streams(4))
        assert str(refused.value) == "irq line must be an int, not 34.0"
        assert hv.events == before

    def test_stress_neighbour_raises_the_mean(self):
        def mean_latency(with_stress, n=3000):
            hv = tiny_hv()
            target = hv.create_cell(small_cell(
                "responder", cpu=1, irqs=[33],
                workload=Workload(WorkloadKind.LATENCY_RESPONDER)))
            hv.start_cell(target)
            if with_stress:
                noisy = hv.create_cell(small_cell(
                    "noisy", cpu=2, base=RAM + 0xA_0000,
                    workload=Workload(WorkloadKind.STRESS)))
                hv.start_cell(noisy)
            rng = latency_streams(11, "stress-compare")
            total = 0.0
            for i in range(n):
                total += raise_irq(hv, 33, i * 1000, rng).latency_us[0]
            return total / n

        assert mean_latency(True) - mean_latency(False) > 0.05

    def test_delivery_timestamps_match_latency(self):
        hv = tiny_hv()
        rng = latency_streams(5)
        for i in range(200):
            delivery = raise_irq(hv, 32, i * 10_000, rng)
            span = delivery.delivered_at[0] - delivery.raised_at[0]
            assert span == math.floor(delivery.latency_us[0] * 1000.0 + 0.5)

    def test_record_keeps_its_own_raise_times(self):
        hv = tiny_hv()
        times = np.arange(0, 8000, 1000, dtype=np.int64)
        delivery = raise_irqs(hv, 32, times, latency_streams(7))
        raised, span = delivery.raised_at.copy(), delivery.delivered_at - delivery.raised_at
        times[0] = 10**9  # the caller reuses its array
        assert delivery.raised_at.tolist() == raised.tolist() == list(range(0, 8000, 1000))
        assert (delivery.delivered_at - delivery.raised_at).tolist() == span.tolist()
        assert span.min() >= 0

    def test_raise_irqs_unknown_line_and_bad_times(self):
        hv = tiny_hv()
        with pytest.raises(NoSuchLine):
            raise_irqs(hv, 999, [0], latency_streams(0))
        for times in ([], [[0, 1]]):
            with pytest.raises(InvariantViolation):
                raise_irqs(hv, 33, times, latency_streams(0))
        assert hv.events[-1].kind is TrapKind.MANAGEMENT

    @pytest.mark.parametrize("times", [[-5], [0, 1000, -1]])
    @pytest.mark.parametrize("start", [False, True], ids=["spurious", "running"])
    def test_a_raise_time_before_0_is_refused_before_anything_is_logged(self, times, start):
        # a spurious line logged its event at -5 ns, which save_session then
        # failed to pack with a raw struct.error
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(irqs=[33]))
        if start:
            hv.start_cell(cell_id)
        before = (list(hv.events), copy.deepcopy(hv.exits), hv.clock)
        with pytest.raises(InvariantViolation, match=r"^raise time -\d+ ns is before 0 ns$"):
            raise_irqs(hv, 33, times, latency_streams(4))
        assert (hv.events, hv.exits, hv.clock) == before
        load_session(save_session(hv.platform, hv))

    @pytest.mark.parametrize("times, text", [
        ([1.7], "raise time 1.7 is not an int"),
        (["a"], "raise time 'a' is not an int"),
        ([0, 2**63], "raise time 9223372036854775808 ns does not fit the int64 ns clock"),
        (np.array([0.5]), "raise time 0.5 is not an int"),
        (np.array([2**63], dtype=np.uint64),
         "raise time 9223372036854775808 ns does not fit the int64 ns clock"),
    ], ids=["float", "str", "past-int64", "float-array", "uint64-array"])
    @pytest.mark.parametrize("start", [False, True], ids=["spurious", "running"])
    def test_a_raise_time_that_is_no_int64_is_refused_before_anything_is_logged(
            self, times, text, start):
        # 1.7 was recorded as a raise at 1 ns; 2**63 and "a" raised a raw OverflowError and
        # a raw ValueError
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(irqs=[33]))
        if start:
            hv.start_cell(cell_id)
        before = (list(hv.events), copy.deepcopy(hv.exits), hv.clock)
        with pytest.raises(InvariantViolation, match="^%s$" % text):
            raise_irqs(hv, 33, times, latency_streams(4))
        assert (hv.events, hv.exits, hv.clock) == before

    def test_a_bool_or_an_unsigned_raise_time_passes(self):
        hv = tiny_hv()
        hv.start_cell(hv.create_cell(small_cell(irqs=[33])))
        for times in [True, 5], np.array([1, 5], dtype=np.uint64):
            assert raise_irqs(hv, 33, times, latency_streams(4)).raised_at.tolist() == [1, 5]

    def test_raise_irqs_spurious_line_of_stopped_owner(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(irqs=[34]))
        before = len(hv.events)
        with pytest.raises(UnownedIrq):
            raise_irqs(hv, 34, [500, 900], latency_streams(4))
        (event,) = hv.events[before:]
        assert (event.kind, event.cell, event.time_ns) == (
            TrapKind.ACCESS_VIOLATION, cell_id, 500)
        assert event.detail == "spurious irq line 34"

    def test_spurious_event_keeps_its_raise_time(self):
        hv = tiny_hv()
        rng = latency_streams(6)
        raise_irq(hv, 32, 9000, rng)  # moves the clock; logs nothing
        hv.create_cell(small_cell(irqs=[34]))  # logged at 9000, never started
        with pytest.raises(UnownedIrq):
            raise_irq(hv, 34, 4000, rng)  # out-of-order spurious raise
        assert hv.events[-1].kind is TrapKind.ACCESS_VIOLATION
        assert [e.time_ns for e in hv.events[-2:]] == [9000, 4000]
        assert hv.clock >= 9000

    def test_the_clock_moves_to_the_latest_of_several_raises(self):
        hv = tiny_hv()
        raise_irqs(hv, 32, [5000, 9000, 7000], latency_streams(6))
        assert hv.clock == 9000  # neither the first raise nor the earliest
        raise_irqs(hv, 32, [3000, 4000], latency_streams(6))
        assert hv.clock == 9000  # a batch raised before the clock leaves it


REINJECTION = EXIT_SLOT[TrapKind.IRQ_REINJECTION]


def tally(events):
    """Exit counters rebuilt from an event log."""
    exits = {}
    for event in events:
        exits.setdefault(event.cell, [0] * len(TrapKind))[EXIT_SLOT[event.kind]] += 1
    return exits


class TestExitCounters:
    def test_slots_follow_trap_kind_order(self):
        assert list(EXIT_SLOT) == list(TrapKind)
        assert list(EXIT_SLOT.values()) == list(range(len(TrapKind)))

    def test_every_logged_event_is_counted_once(self):
        hv = tiny_hv()
        a = hv.create_cell(small_cell("alpha", cpu=1, size=0x4000))
        b = hv.create_cell(small_cell("beta", cpu=2, base=RAM + 0xC_0000, size=0x4000))
        hv.start_cell(a)
        hv.start_cell(b)
        send(hv, create_channel(hv, a, b, 0x1000, 1), a, 0, b"ring", 0)
        distributor_access(hv, b, 0x100)
        hv.handle_access(a, Access(AccessKind.SENSITIVE_INSTR, instr="cpuid"))
        hv.handle_access(b, Access(AccessKind.MEM_READ, RAM + 0x8_0000, 4))
        assert {event.kind for event in hv.events} == set(TrapKind)
        assert hv.exits == tally(hv.events)

    def test_owned_only_workload_adds_no_exits(self):
        # criterion 6 read off the counters
        hv = tiny_hv()
        idle = hv.create_cell(small_cell("reader", cpu=1))
        noisy = hv.create_cell(small_cell("noisy", cpu=2, base=RAM + 0xA_0000,
                                          workload=Workload(WorkloadKind.STRESS)))
        hv.start_cell(idle)
        hv.start_cell(noisy)
        before = copy.deepcopy(hv.exits)
        assert hv.step(500) == 1000
        for offset in range(0, 0x2000, 0x80):
            assert hv.handle_access(idle, Access(
                AccessKind.MEM_WRITE, RAM + 0x8_0000 + offset, 8)) is AccessOutcome.DIRECT
        assert hv.exits == before

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_each_delivery_adds_one_reinjection(self, n):
        hv = tiny_hv()
        guest = hv.create_cell(small_cell(irqs=[34]))
        hv.start_cell(guest)
        before = copy.deepcopy(hv.exits)
        raise_irqs(hv, 34, range(0, n * 1000, 1000), latency_streams(8))
        before[guest][REINJECTION] += n
        assert hv.exits == before

    def test_bare_metal_path_adds_no_exit(self):
        hv = Hypervisor(make_tiny_platform())
        raise_irqs(hv, 33, range(100), latency_streams(8))
        assert hv.exits == {}

    def test_spurious_line_adds_one_violation(self):
        hv = tiny_hv()
        guest = hv.create_cell(small_cell(irqs=[34]))
        before = copy.deepcopy(hv.exits)
        with pytest.raises(UnownedIrq):
            raise_irqs(hv, 34, range(0, 50_000, 1000), latency_streams(8))
        before[guest][EXIT_SLOT[TrapKind.ACCESS_VIOLATION]] += 1
        assert hv.exits == before

    def test_event_log_does_not_grow_with_deliveries(self):
        lengths = set()
        for n in (10, 10 ** 5):
            hv = tiny_hv()
            raise_irqs(hv, 33, np.arange(n) * 1000, latency_streams(9))
            assert hv.exits[0][REINJECTION] == n
            lengths.add(len(hv.events))
        assert lengths == {1}  # the enable event alone


class TestBusLoad:
    @staticmethod
    def _with_neighbour(kind, state):
        """A running responder plus a neighbour with the given workload,
        driven into the given state."""
        hv = tiny_hv()
        responder = hv.cells[hv.create_cell(small_cell(
            "responder", cpu=1, workload=Workload(WorkloadKind.LATENCY_RESPONDER)))]
        hv.start_cell(responder.id)
        neighbour = hv.cells[hv.create_cell(small_cell(
            "neighbour", cpu=2, base=RAM + 0xA_0000, workload=Workload(kind)))]
        if state is not CellState.CREATED:
            hv.start_cell(neighbour.id)
        if state is CellState.STOPPED:
            hv.stop_cell(neighbour.id)
        elif state is CellState.FAILED:
            hv.handle_access(neighbour.id, Access(AccessKind.MEM_READ, RAM, 4))
        assert neighbour.state is state
        return hv, responder, neighbour

    @pytest.mark.parametrize("kind", [WorkloadKind.IDLE, WorkloadKind.STRESS,
                                      WorkloadKind.LATENCY_RESPONDER])
    @pytest.mark.parametrize("state", [CellState.CREATED, CellState.RUNNING,
                                       CellState.STOPPED, CellState.FAILED])
    def test_only_a_running_stress_neighbour_loads_the_bus(self, kind, state):
        hv, responder, _ = self._with_neighbour(kind, state)
        expected = kind is WorkloadKind.STRESS and state is CellState.RUNNING
        assert bus_load(hv, responder) is expected

    def test_own_stress_workload_does_not_count(self):
        hv, _, stress = self._with_neighbour(WorkloadKind.STRESS, CellState.RUNNING)
        assert bus_load(hv, stress) is False

    def test_disabled_hypervisor_raises(self):
        with pytest.raises(NotEnabled):
            bus_load(Hypervisor(make_tiny_platform()), None)


class TestDistributorAccess:
    def test_window_write_is_emulated_and_counted(self):
        hv = tiny_hv()
        assert distributor_access(hv, 0, 0x100) is AccessOutcome.EMULATED
        assert hv.exits[0][EXIT_SLOT[TrapKind.DISTRIBUTOR_EMULATION]] == 1
        assert hv.events[-1].kind is TrapKind.DISTRIBUTOR_EMULATION
        assert hv.events[-1].detail == "offset 0x100"

    def test_many_writes_stay_violation_free(self):
        hv = tiny_hv()
        for offset in range(0, 0x1000, 4):
            assert distributor_access(hv, 0, offset) is AccessOutcome.EMULATED
        assert hv.exits[0][EXIT_SLOT[TrapKind.DISTRIBUTOR_EMULATION]] == 0x400
        assert not any(e.kind is TrapKind.ACCESS_VIOLATION for e in hv.events)

    def test_offset_past_window_violates(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell())
        hv.start_cell(cell_id)
        assert distributor_access(hv, cell_id, 0x1000) is AccessOutcome.VIOLATION
        assert hv.cells[cell_id].state is CellState.FAILED

    def test_negative_offset_rejected(self):
        hv = tiny_hv()
        with pytest.raises(InvariantViolation):
            distributor_access(hv, 0, -4)

    @pytest.mark.parametrize("offset", [0, 0x100, 0xFFC, 0x2, 0xFFE, 0x1000, 0x2000])
    @pytest.mark.parametrize("cell", ["root", "running", "created", "absent"])
    def test_a_write_answers_as_the_access_it_stands_for(self, offset, cell):
        # an in-window write is emulated without building an Access; it must answer,
        # refuse, log and count as handle_access does for that access
        seen = []
        for write in (lambda hv, cell_id: distributor_access(hv, cell_id, offset),
                      lambda hv, cell_id: hv.handle_access(cell_id, Access(
                          AccessKind.MEM_WRITE, hv.platform.gic_dist_window.base + offset, 4))):
            hv = tiny_hv()
            guest = hv.create_cell(small_cell())
            if cell == "running":
                hv.start_cell(guest)
            cell_id = {"root": 0, "absent": 9}.get(cell, guest)
            try:
                answer = write(hv, cell_id)
            except CellSimError as exc:
                answer = (type(exc), str(exc))
            seen.append((answer, hv.events, hv.exits,
                         {i: c.state for i, c in hv.cells.items()}))
        assert seen[0] == seen[1]

    def test_platform_without_window(self):
        from cellsim import Cpu, MemRegion, PlatformSpec, build_platform
        platform = build_platform(PlatformSpec(
            name="bare", resources=[Cpu(0), MemRegion(0x1000_0000, 0x1000)]))
        hv = enable(platform, full_platform_config(platform))
        with pytest.raises(NoSuchResource):
            distributor_access(hv, 0, 0)


class TestScenario:
    def test_tag_is_stable_and_excludes_sampling(self):
        a = Scenario(True, 10.0, False, n_samples=10, seed=1)
        b = Scenario(True, 10.0, False, n_samples=9999, seed=42)
        assert a.tag() == b.tag() == "scenario vmm=1 freq=10.0 stress=0"

    def test_tag_separates_settings(self):
        tags = {
            Scenario(v, f, s, n_samples=1, seed=0).tag()
            for v in (False, True) for f in (10.0, 50.0) for s in (False, True)}
        assert len(tags) == 8

    def test_validation(self):
        with pytest.raises(InvariantViolation):
            Scenario(True, 0.0, False, 1, 0)
        with pytest.raises(InvariantViolation):
            Scenario(True, 10.0, False, 0, 0)
        with pytest.raises(InvariantViolation):
            Scenario(True, 10.0, False, 1, -1)

    @pytest.mark.parametrize("n_samples, seed, text", [
        (5.5, 1, r"n_samples must be an int, not 5\.5"),
        (5, 1.5, r"seed must be an int, not 1\.5"),
    ], ids=["n_samples", "seed"])
    def test_a_float_sample_count_or_seed_is_refused(self, n_samples, seed, text):
        # run_scenario drew 6 samples for 5.5, and raised a raw AttributeError for a seed of 1.5
        with pytest.raises(InvariantViolation, match="^%s$" % text):
            Scenario(True, 10.0, False, n_samples, seed)
        assert Scenario(True, 10.0, False, True, True).n_samples == 1

    @pytest.mark.parametrize("freq_hz", [10.0, 50.0])
    def test_last_raise_time_must_fit_the_int64_clock(self, freq_hz):
        # np.arange(n) * period wraps around int64 without an error; only
        # Scenarios are built here, so nothing of that size is allocated
        period = round(1e9 / freq_hz)
        most = (2 ** 63 - 1) // period + 1  # the last raise at or below 2^63 - 1 ns
        assert Scenario(True, freq_hz, False, most, 0).period_ns == period
        with pytest.raises(InvariantViolation, match="^%d samples at %r Hz do not fit the int64"
                           " ns clock$" % (most + 1, freq_hz)):
            Scenario(True, freq_hz, False, most + 1, 0)

    @pytest.mark.parametrize("freq_hz", [1e-10, 1e-320])
    def test_period_past_the_int64_clock_is_refused(self, freq_hz):
        # 1e9 / 1e-320 is infinite, which round() cannot convert
        with pytest.raises(InvariantViolation, match="do not fit the int64 ns clock"):
            Scenario(True, freq_hz, False, 1, 0)

    @pytest.mark.parametrize("freq_hz", [2e9, 3e9, 1e15])
    def test_period_under_a_nanosecond_is_refused(self, freq_hz):
        # round(1e9 / 2e9) is 0, so every raise would land at t = 0
        with pytest.raises(InvariantViolation, match="raise period under 1 ns"):
            Scenario(True, freq_hz, False, 5, 0)
        assert Scenario(True, 1.9e9, False, 5, 0).period_ns == 1


class TestRecordTypes:
    def test_latency_stats_bounds(self):
        LatencyStats(1.0, 0.0, 1.0, 1)  # mean == max is legal
        with pytest.raises(InvariantViolation):
            LatencyStats(1.0, 0.1, 0.9, 3)
        with pytest.raises(InvariantViolation):
            LatencyStats(-1.0, 0.1, 2.0, 3)
        with pytest.raises(InvariantViolation):
            LatencyStats(1.0, 0.1, 2.0, 0)

    def test_irq_deliveries_consistency(self):
        # the delivery times are derived from the latencies, so they cannot disagree
        def deliveries(latency):
            return IrqDeliveries(33, 0, "reinjected", np.array([1000, 2000]), np.array(latency))
        assert deliveries([0.45, 0.5]).delivered_at.tolist() == [1450, 2500]
        with pytest.raises(InvariantViolation, match="negative latency"):
            deliveries([0.45, -0.5])


class TestDerivedDeliveryTimes:
    """delivered_at is raised_at plus the latency in ns rounded half up, which
    a reader can check in integers wherever the latency is exact in ns."""

    def test_rounding_edges_match_integer_arithmetic(self):
        # k/2000 us is k/2 ns; a float holds it exactly when 125 divides k, so
        # these are the 62.5 ns lattice, whose odd steps are ties that round up
        k = 125 * np.arange(10**5 + 1)
        raised = np.arange(k.size, dtype=np.int64) * 7919
        deliveries = IrqDeliveries(33, 0, "reinjected", raised, k / 2000)
        want = [t + (kk + 1) // 2 for t, kk in zip(raised.tolist(), k.tolist())]
        assert deliveries.delivered_at.tolist() == want
        assert deliveries.delivered_at.dtype == np.int64

    def test_zero_latency_delivers_at_the_raise(self):
        raised = np.array([0, 5, 2 ** 63 - 1])
        deliveries = IrqDeliveries(33, 0, "bare-metal", raised, np.zeros(3))
        assert deliveries.delivered_at.tolist() == raised.tolist()

    def test_last_nanosecond_of_the_clock(self):
        # 10^12 us is exactly 10^15 ns: this delivery is at 2^63 - 1 ns, one later overflows
        last = 2 ** 63 - 1 - 10 ** 15
        fits = IrqDeliveries(33, 0, "reinjected", np.array([0, last]), np.array([1e12, 1e12]))
        assert fits.delivered_at.tolist() == [10 ** 15, 2 ** 63 - 1]
        with pytest.raises(CellSimError, match="int64 ns clock"):
            IrqDeliveries(33, 0, "reinjected", np.array([0, last + 1]), np.array([1e12, 1e12]))

    def test_a_copy_derives_its_maxima_again(self):
        deliveries = raise_irqs(_twin("on", True), 33, [4000, 9000, 2000], latency_streams(5))
        for twin in (copy.copy(deliveries), pickle.loads(pickle.dumps(deliveries))):
            assert (twin.max_us, twin.last_ns) == (deliveries.max_us, 9000)

    @pytest.mark.parametrize("bad, text", [
        (-0.0625, "negative latency"), (-5e-324, "negative latency"),
        (math.nan, "not finite"), (math.inf, "not finite"),
        (9.3e15, "delivers past the int64 ns clock")])
    def test_constructor_refuses_a_bad_latency(self, bad, text):
        latency = np.array([0.5, bad, 1.0])
        with pytest.raises(CellSimError, match=text):
            IrqDeliveries(33, 0, "reinjected", np.array([0, 1000, 2000]), latency)

    @pytest.mark.parametrize("row", ["off", "on", "stressed"])
    def test_record_holds_only_raise_times_and_latencies(self, row):
        deliveries = raise_irqs(_twin(row, True), 33, range(0, 10**6, 1000), latency_streams(5))
        # built from five fields; the two derived slots are the maxima its check took
        assert IrqDeliveries.__slots__ == (
            "line", "owner", "path", "raised_at", "latency_us", "max_us", "last_ns")
        assert IrqDeliveries._fields == IrqDeliveries.__slots__[:5]
        assert deliveries.max_us == float(deliveries.latency_us.max())
        assert deliveries.last_ns == 999_000 and type(deliveries.last_ns) is int
        assert not hasattr(deliveries, "__dict__")
        held = [name for name in IrqDeliveries.__slots__
                if isinstance(getattr(deliveries, name), np.ndarray)]
        assert held == ["raised_at", "latency_us"]
        assert [id(value) for value in deliveries._key if isinstance(value, np.ndarray)] == [
            id(deliveries.raised_at), id(deliveries.latency_us)]
        # each array owns its buffer, so no larger one is kept alive behind it
        assert deliveries.raised_at.base is None and deliveries.latency_us.base is None
        assert deliveries.delivered_at is not deliveries.delivered_at  # derived on each read


def _twin(row, measured, bus=None):
    """A hypervisor for one benchmark row on the tiny platform: off (not
    enabled), on (a running responder owns irq 33) or stressed (plus a
    running stress neighbour); the bus with or without measurement, or
    the bus given."""
    tiny = make_tiny_platform()
    if bus is None:
        bus = tiny.bus if measured else tiny.bus.without_measurement()
    platform = with_bus(tiny, bus)
    if row == "off":
        return Hypervisor(platform, seed=3)
    hv = enable(platform, full_platform_config(platform), seed=3)
    responder = hv.create_cell(small_cell(
        "responder", cpu=1, irqs=[33],
        workload=Workload(WorkloadKind.LATENCY_RESPONDER)))
    hv.start_cell(responder)
    if row == "stressed":
        noisy = hv.create_cell(small_cell(
            "noisy", cpu=2, base=RAM + 0xA_0000, workload=Workload(WorkloadKind.STRESS)))
        hv.start_cell(noisy)
    hv.step(1000)  # the log already ends after some raise times below
    return hv


class TestRaiseIrqsMatchesLoop:
    @pytest.mark.parametrize("row", ["off", "on", "stressed"])
    @pytest.mark.parametrize("measured", [True, False])
    def test_batch_equals_loop_of_single_raises(self, row, measured):
        # out of order, with repeats, partly before the last logged event
        times = [(i * 7919) % 1500 * 2000 for i in range(2000)]
        looped, batched = _twin(row, measured), _twin(row, measured)
        streams = latency_streams(3, "twin")
        singles = [raise_irq(looped, 33, t, streams) for t in times]
        batch = raise_irqs(batched, 33, times, latency_streams(3, "twin"))

        assert batch.latency_us.dtype == np.float64
        assert batch.latency_us.tolist() == [d.latency_us[0] for d in singles]
        assert batch.raised_at.tolist() == times
        assert batch.delivered_at.tolist() == [d.delivered_at[0] for d in singles]
        assert {(d.line, d.owner, d.path) for d in singles} == {
            (batch.line, batch.owner, batch.path)}
        assert batched.exits == looped.exits
        assert batched.events == looped.events
        assert batched.clock == looped.clock
        if row == "stressed":  # only the contention term tells it from the calm row
            calm = raise_irqs(_twin("on", measured), 33, times, latency_streams(3, "twin"))
            assert 0.05 < np.mean(batch.latency_us != calm.latency_us) < 0.15


class TestOverflowingModelIsRefused:
    """A latency that is not finite, or whose delivery time does not fit
    int64 ns, is refused with one domain error on both sampler paths."""

    @pytest.mark.parametrize("extra", [
        "hv-logmu=800", "base=1e300", "cont-mean=1e300 cont-prob=1"])
    def test_batch_is_refused_without_a_warning(self, extra):
        hv = _twin("stressed", True, bus=_bus(extra))
        before = (copy.deepcopy(hv.exits), hv.clock, list(hv.events))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="not finite or delivers past"):
                raise_irqs(hv, 33, range(0, 1000_000, 1000), latency_streams(1))
        assert (hv.exits, hv.clock, hv.events) == before

    def test_delivery_must_fit_int64_ns(self):
        # 10^12 us is exactly 10^15 ns, so the last raise time that still
        # fits delivers at 2^63 - 1 ns, and one ns later does not fit
        bus = _bus("base=1e12 quantize=off jitter=off")
        hv = Hypervisor(with_bus(make_tiny_platform(), bus))
        last = 2 ** 63 - 1 - 10 ** 15
        deliveries = raise_irqs(hv, 33, [0, last], latency_streams(2))
        assert deliveries.delivered_at.tolist() == [10 ** 15, 2 ** 63 - 1]
        with pytest.raises(InvariantViolation, match="int64 ns clock"):
            raise_irqs(hv, 33, [0, last + 1], latency_streams(2))

    @pytest.mark.parametrize("extra", ["base=1e300", "base=1e308"])
    def test_single_draw_is_refused(self, extra):
        # 1e300 us fits no int64 ns; 1e308 us overflows the lattice snap to NaN
        with pytest.raises(InvariantViolation, match="not finite or delivers past"):
            DoorbellLatencies(_bus(extra), 3).ring(True)

    def test_doorbell_is_refused_and_leaves_the_channel_alone(self):
        hv = enable(with_bus(make_tiny_platform(), _bus("base=1e308")),
                    full_platform_config(make_tiny_platform()))
        a = hv.create_cell(small_cell("alpha", cpu=1, size=0x4000))
        b = hv.create_cell(small_cell("beta", cpu=2, base=RAM + 0xC_0000, size=0x4000))
        hv.start_cell(b)
        ch = create_channel(hv, a, b, 0x1000, 1)
        events = list(hv.events)
        with pytest.raises(InvariantViolation, match="not finite"):
            send(hv, ch, a, 0, b"ring", 0)
        assert hv.channel_trace == [] and hv.events == events
        assert not any(hv.channels[ch].pending.values())
        assert bytes(hv.channels[ch].buffer[:4]) == bytes(4)


class TestKernelLeavesCallerArraysAlone:
    def test_raise_irqs_keeps_the_raise_times(self):
        times = np.arange(0, 3_000_000, 1000, dtype=np.int64)
        kept = times.copy()
        hv = _twin("stressed", True)
        first = raise_irqs(hv, 33, times, latency_streams(5))
        seen = (first.raised_at.copy(), first.delivered_at.copy(), first.latency_us.copy())
        raise_irqs(hv, 33, times, latency_streams(6))  # a later call on the same input
        assert np.array_equal(times, kept)
        assert all(np.array_equal(now, then) for now, then in zip(
            (first.raised_at, first.delivered_at, first.latency_us), seen))

    @pytest.mark.parametrize("vmm_on, stressed", [(False, False), (True, False), (True, True)])
    @pytest.mark.parametrize("measured", [True, False])
    def test_sample_latency_returns_an_array_of_its_own(self, vmm_on, stressed, measured):
        bus = BusModel.default() if measured else BusModel.default().without_measurement()
        first = sample_latency(vmm_on, stressed, bus, latency_streams(4, "own"), 2000)
        kept = first.copy()
        second = sample_latency(vmm_on, stressed, bus, latency_streams(4, "own"), 2000)
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes() == second.tobytes()

    def test_quantize_returns_a_new_array(self):
        t = np.array([0.0, 0.03125, 0.45, 1.27, 5.3])
        kept = t.copy()
        snapped = quantize_62_5ns(t)
        assert snapped is not t and np.array_equal(t, kept)
        assert snapped.tolist() == [0.0, 0.0625, 0.4375, 1.25, 5.3125]

    def test_delivery_checks_write_nothing(self):
        raised, latency = np.array([1000, 2000]), np.array([0.45, 0.5])
        deliveries = IrqDeliveries(33, 0, "reinjected", raised, latency)
        assert deliveries.delivered_at.tolist() == [1450, 2500]
        assert (raised.tolist(), latency.tolist()) == ([1000, 2000], [0.45, 0.5])
