import math

import pytest
from hypothesis import given, strategies as st

from cellsim import (
    AccessOutcome,
    BusModel,
    CellState,
    Hypervisor,
    IrqDelivery,
    LatencyStats,
    Scenario,
    TrapKind,
    Workload,
    WorkloadKind,
    enable,
    full_platform_config,
    quantize_62_5ns,
    raise_irq,
    sample_latency,
)
from cellsim.errors import (
    InvariantViolation,
    NoSuchLine,
    NoSuchResource,
    NotEnabled,
    UnownedIrq,
)
from cellsim.hvcore import Access, AccessKind
from cellsim.irq import LATTICE_US, IrqPath, distributor_access
from cellsim.machine import bus_load
from cellsim.rng import make_rng

from conftest import make_tiny_platform
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


class TestSampleLatency:
    def test_off_raw_is_exactly_base(self):
        bus = BusModel.default().without_measurement()
        rng = make_rng(1)
        assert sample_latency(False, False, bus, rng) == 0.45
        assert sample_latency(False, True, bus, rng) == 0.45

    def test_off_measured_hits_two_lattice_points(self):
        bus = BusModel.default()
        rng = make_rng(2)
        values = {sample_latency(False, False, bus, rng) for _ in range(5000)}
        assert values == {0.4375, 0.5}

    def test_off_measured_mean_is_unbiased(self):
        bus = BusModel.default()
        rng = make_rng(3)
        n = 40_000
        mean = sum(sample_latency(False, False, bus, rng) for _ in range(n)) / n
        assert mean == pytest.approx(0.45, abs=0.001)

    def test_on_raw_has_floor_above_base_plus_shift(self):
        bus = BusModel.default().without_measurement()
        rng = make_rng(4)
        values = [sample_latency(True, False, bus, rng) for _ in range(5000)]
        assert min(values) > 0.45 + 0.70
        n = len(values)
        mean = sum(values) / n
        assert mean == pytest.approx(0.45 + 0.70 + math.exp(-2.3 + 0.5 * 0.36),
                                     rel=0.01)

    def test_stress_adds_contention_tail(self):
        bus = BusModel.default().without_measurement()
        rng = make_rng(5)
        n = 40_000
        calm = sum(sample_latency(True, False, bus, rng) for _ in range(n)) / n
        rng = make_rng(5)
        loaded = sum(sample_latency(True, True, bus, rng) for _ in range(n)) / n
        # contention fires with p=0.1 and adds 1.0 on average
        assert loaded - calm == pytest.approx(0.10, abs=0.02)

    def test_draw_order_is_pinned(self):
        bus = BusModel.default()
        value = sample_latency(True, True, bus, make_rng(6, "order"))
        rng = make_rng(6, "order")
        manual = bus.base_latency_us + bus.hv_overhead.draw(rng)
        if rng.random() < bus.contention_prob:
            manual += bus.contention.draw(rng)
        manual += rng.random() * LATTICE_US - LATTICE_US / 2
        assert value == quantize_62_5ns(max(manual, 0.0))

    def test_same_seed_same_stream(self):
        bus = BusModel.default()
        first = [sample_latency(True, True, bus, make_rng(7, "s"))
                 for _ in range(1)]
        second = [sample_latency(True, True, bus, make_rng(7, "s"))
                  for _ in range(1)]
        assert first == second
        rng_a, rng_b = make_rng(8, "s"), make_rng(8, "s")
        stream_a = [sample_latency(True, True, bus, rng_a) for _ in range(100)]
        stream_b = [sample_latency(True, True, bus, rng_b) for _ in range(100)]
        assert stream_a == stream_b


class TestRaiseIrq:
    def test_unknown_line(self):
        hv = tiny_hv()
        with pytest.raises(NoSuchLine):
            raise_irq(hv, 999, 0, make_rng(0))

    def test_bare_metal_path_without_hypervisor(self):
        platform = make_tiny_platform()
        hv = Hypervisor(platform)
        delivery = raise_irq(hv, 33, 1000, make_rng(1))
        assert delivery.path == IrqPath.BARE_METAL
        assert delivery.owner == 0
        assert delivery.latency_us in (0.4375, 0.5)
        assert delivery.delivered_at - delivery.raised_at in (438, 500)
        assert hv.events == []

    def test_reinjected_path_logs_at_raise_time(self):
        hv = tiny_hv()
        before = len(hv.events)
        delivery = raise_irq(hv, 33, 12345, make_rng(2))
        assert delivery.path == IrqPath.REINJECTED
        assert delivery.owner == 0
        assert delivery.raised_at == 12345
        (event,) = hv.events[before:]
        assert event.kind is TrapKind.IRQ_REINJECTION
        assert event.time_ns == 12345
        assert event.detail == "line 33"
        assert delivery.latency_us > 1.0

    def test_guest_owned_line_delivers_to_guest(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(irqs=[34]))
        hv.start_cell(cell_id)
        delivery = raise_irq(hv, 34, 0, make_rng(3))
        assert delivery.owner == cell_id

    def test_spurious_line_of_stopped_owner(self):
        hv = tiny_hv()
        cell_id = hv.create_cell(small_cell(irqs=[34]))
        before = len(hv.events)
        with pytest.raises(UnownedIrq):
            raise_irq(hv, 34, 500, make_rng(4))
        (event,) = hv.events[before:]
        assert event.kind is TrapKind.ACCESS_VIOLATION
        assert event.cell == cell_id
        assert "34" in event.detail

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
            rng = make_rng(11, "stress-compare")
            total = 0.0
            for i in range(n):
                total += raise_irq(hv, 33, i * 1000, rng).latency_us
            return total / n

        assert mean_latency(True) - mean_latency(False) > 0.05

    def test_delivery_timestamps_match_latency(self):
        hv = tiny_hv()
        rng = make_rng(5)
        for i in range(200):
            delivery = raise_irq(hv, 32, i * 10_000, rng)
            span = delivery.delivered_at - delivery.raised_at
            assert span == math.floor(delivery.latency_us * 1000.0 + 0.5)

    def test_event_log_times_never_regress(self):
        hv = tiny_hv()
        rng = make_rng(6)
        raise_irq(hv, 32, 9000, rng)
        raise_irq(hv, 32, 4000, rng)  # out-of-order raise
        times = [e.time_ns for e in hv.events]
        assert times == sorted(times)
        assert hv.clock >= 9000


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
        assert hv.cells[0].dist_emulations == 1
        assert hv.events[-1].kind is TrapKind.DISTRIBUTOR_EMULATION
        assert hv.events[-1].detail == "offset 0x100"

    def test_many_writes_stay_violation_free(self):
        hv = tiny_hv()
        for offset in range(0, 0x1000, 4):
            assert distributor_access(hv, 0, offset) is AccessOutcome.EMULATED
        assert hv.cells[0].dist_emulations == 0x400
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


class TestRecordTypes:
    def test_latency_stats_bounds(self):
        LatencyStats(1.0, 0.0, 1.0, 1)  # mean == max is legal
        with pytest.raises(InvariantViolation):
            LatencyStats(1.0, 0.1, 0.9, 3)
        with pytest.raises(InvariantViolation):
            LatencyStats(-1.0, 0.1, 2.0, 3)
        with pytest.raises(InvariantViolation):
            LatencyStats(1.0, 0.1, 2.0, 0)

    def test_irq_delivery_consistency(self):
        IrqDelivery(33, 0, 1000, 1450, 0.45, IrqPath.REINJECTED)
        with pytest.raises(InvariantViolation):
            IrqDelivery(33, 0, 1000, 900, 0.45, IrqPath.REINJECTED)
        with pytest.raises(InvariantViolation):
            IrqDelivery(33, 0, 1000, 2000, 0.45, IrqPath.REINJECTED)
