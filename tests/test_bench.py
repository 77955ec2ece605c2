import math
import random
from pathlib import Path

import numpy as np
import pytest

from cellsim import (
    BenchReport,
    CellConfig,
    GENERATOR_NAME,
    Scenario,
    bench,
    canonical_scenarios,
    export_csv,
    full_platform_config,
    jetson_tk1,
    load_platform,
    render_table,
    run_report,
    run_scenario,
    summarize,
)
from cellsim.bench import RESPONDER_BYTES, responder_config, stress_config
from cellsim.errors import EmptyCpuSet, EmptySamples, InvariantViolation, NoSuchLine, OutOfRegion

from conftest import PINS, make_tiny_platform

ROOT = Path(__file__).resolve().parents[1]


class TestSummarize:
    def test_constant_samples(self):
        stats = summarize([2.0, 2.0, 2.0])
        assert (stats.mean_us, stats.sigma_us, stats.max_us, stats.n) == (
            2.0, 0.0, 2.0, 3)

    def test_small_exact_case(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats.mean_us == 2.0
        assert stats.sigma_us == pytest.approx(0.816496580927726, abs=1e-15)
        assert stats.max_us == 3.0

    def test_single_sample(self):
        stats = summarize([0.5])
        assert (stats.mean_us, stats.sigma_us, stats.max_us, stats.n) == (
            0.5, 0.0, 0.5, 1)

    def test_population_not_sample_deviation(self):
        # ddof=0: sqrt(mean of squared deviations), not the n-1 variant
        stats = summarize([1.0, 3.0])
        assert stats.sigma_us == 1.0

    def test_matches_two_pass_reference(self):
        rnd = random.Random(99)
        samples = [rnd.lognormvariate(0.0, 0.5) for _ in range(100_000)]
        stats = summarize(samples)
        mean = math.fsum(samples) / len(samples)
        var = math.fsum((x - mean) ** 2 for x in samples) / len(samples)
        assert stats.mean_us == pytest.approx(mean, abs=1e-12)
        assert stats.sigma_us == pytest.approx(math.sqrt(var), abs=1e-12)
        assert stats.max_us == max(samples)

    def test_empty_rejected(self):
        with pytest.raises(EmptySamples):
            summarize([])

    def test_non_finite_rejected(self):
        with pytest.raises(EmptySamples):
            summarize([1.0, float("nan")])
        with pytest.raises(EmptySamples):
            summarize([1.0, float("inf")])

    def test_negative_infinity_rejected(self):
        # only the minimum sees it: the maximum of these is 1.0
        with pytest.raises(EmptySamples):
            summarize([1.0, float("-inf")])

    def test_equals_numpy_mean_and_std_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            arr = rng.lognormal(rng.normal(), 2.0, size=int(rng.integers(1, 20_000)))
            arr *= 10.0 ** int(rng.integers(-6, 6))
            stats = summarize(arr)
            assert (stats.mean_us, stats.sigma_us, stats.max_us) == (
                float(arr.mean()), float(arr.std()), float(arr.max()))


class TestScenarioRuns:
    def test_off_row_is_bare_metal(self, jetson):
        stats, deliveries = run_scenario(
            jetson, Scenario(False, 10.0, False, 200, seed=7))
        assert deliveries.path == "bare-metal"
        assert set(deliveries.latency_us.tolist()) <= {0.4375, 0.5}
        assert 0.43 < stats.mean_us < 0.47

    def test_on_row_is_reinjected(self, jetson):
        stats, deliveries = run_scenario(
            jetson, Scenario(True, 10.0, False, 200, seed=7))
        assert deliveries.path == "reinjected"
        assert stats.mean_us > 1.1

    def test_reruns_are_bit_identical(self, jetson):
        sc = Scenario(True, 50.0, True, 500, seed=7)
        first, d1 = run_scenario(jetson, sc)
        second, d2 = run_scenario(jetson, sc)
        assert first == second
        assert (d1.line, d1.owner, d1.path) == (d2.line, d2.owner, d2.path)
        for name in ("raised_at", "delivered_at", "latency_us"):
            assert np.array_equal(getattr(d1, name), getattr(d2, name))

    # The seed-7 canonical table at 2000 samples per row, recorded when
    # each latency component got its own SeedSequence stream.  A change
    # that only makes the code faster must reproduce these floats
    # exactly; a change that alters the streams on purpose updates them
    # and says so. pins.json holds each row as (vmm_on, freq_hz, stress,
    # mean_us, sigma_us, max_us), its floats as JSON numbers, which round-trip.
    PINNED_SEED_7 = {tuple(row[:3]): tuple(row[3:]) for row in PINS["seed7_table_2000_samples"]}

    def test_seed_7_table_is_pinned(self, jetson):
        for sc in canonical_scenarios(n_samples=2000, seed=7):
            stats, _ = run_scenario(jetson, sc)
            assert stats.n == 2000
            assert (stats.mean_us, stats.sigma_us, stats.max_us) == \
                self.PINNED_SEED_7[(sc.vmm_on, sc.freq_hz, sc.stress)]

    def test_seed_changes_the_stream(self, jetson):
        base = Scenario(True, 10.0, False, 500, seed=7)
        other = Scenario(True, 10.0, False, 500, seed=8)
        assert run_scenario(jetson, base)[0] != run_scenario(jetson, other)[0]

    def test_single_sample_scenario(self, jetson):
        stats, _ = run_scenario(jetson, Scenario(True, 10.0, False, 1, seed=3))
        assert stats.n == 1
        assert stats.mean_us == stats.max_us
        assert stats.sigma_us == 0.0

    def test_raise_times_follow_the_period(self, jetson):
        _, deliveries = run_scenario(
            jetson, Scenario(False, 50.0, False, 5, seed=7))
        assert deliveries.raised_at.tolist() == [
            0, 20_000_000, 40_000_000, 60_000_000, 80_000_000]

    def test_raise_times_are_exact_at_a_2_62_ns_period(self, jetson):
        # k * period in int64, not a float-sized arange: np.arange(0, 2**62 + 1, 2**62)
        # has one element
        sc = Scenario(False, 1e9 / 2**62, False, 2, seed=7)
        assert sc.period_ns == 2**62
        assert run_scenario(jetson, sc)[1].raised_at.tolist() == [0, 2**62]

    def test_scenario_order_does_not_matter(self, jetson):
        forward = [run_scenario(jetson, sc)[0]
                   for sc in canonical_scenarios(n_samples=300)]
        backward = [run_scenario(jetson, sc)[0]
                    for sc in reversed(canonical_scenarios(n_samples=300))]
        assert forward == list(reversed(backward))

    def test_runs_on_the_tiny_platform_too(self):
        platform = make_tiny_platform()
        stats, _ = run_scenario(platform, Scenario(True, 10.0, True, 100, seed=1))
        assert stats.n == 100

    def test_row_stats_equal_summarize_of_its_latencies_bit_for_bit(self, jetson):
        # a row's stats take the maximum its record's check took; summarize finds its own
        for seed in range(20):
            for sc in canonical_scenarios(n_samples=700, seed=seed):
                stats, deliveries = run_scenario(jetson, sc)
                want = summarize(deliveries.latency_us)
                assert [x.hex() for x in (stats.mean_us, stats.sigma_us, stats.max_us)] == [
                    x.hex() for x in (want.mean_us, want.sigma_us, want.max_us)], (seed, sc)
                assert stats == want

    @pytest.mark.parametrize("extra, value", [
        ("hv-logmu=800", "inf"), ("base=1e300", "1e+300"),
        ("cont-mean=1e300 cont-prob=1", "2.8286726005809695e+300")])
    def test_an_overflowing_board_is_refused_with_one_error(self, tmp_path, extra, value):
        # the boards of CI's overflow step: the jetson root config's resources and one bus line
        with open(ROOT / "configs" / "root-jetson.cfg") as handle:
            resources = [line for line in handle if not line.startswith(("cell", "#"))]
        board = tmp_path / "overflow.platform"
        board.write_text('platform "overflow"\n' + "".join(resources) + "bus %s\n" % extra)
        platform = load_platform(str(board))
        with pytest.raises(InvariantViolation) as refused:
            run_report(platform, canonical_scenarios(n_samples=1000))
        assert type(refused.value) is InvariantViolation
        assert str(refused.value) == (
            "latency %s us is not finite or delivers past the int64 ns clock" % value)


def one_cpu_board():
    from cellsim import Cpu, IrqLine, MemRegion, PlatformSpec, build_platform
    return build_platform(PlatformSpec(name="one", resources=[
        Cpu(0), MemRegion(0x1000_0000, 0x40_0000), IrqLine(32)]))


class TestRowSetup:
    """A row's line and configs come from a bounded memo keyed by the platform."""

    def test_platforms_in_turn_match_fresh_runs(self, jetson):
        tiny = make_tiny_platform()
        scenarios = canonical_scenarios(n_samples=200, seed=5)

        def rows(platform, order):
            return dict(run_report(platform, order).rows)
        fresh = {}
        for platform in (jetson, tiny):
            bench._row_setup.cache_clear()
            fresh[platform.name] = rows(platform, scenarios)
        for order in (scenarios, scenarios[::-1]):
            bench._row_setup.cache_clear()
            for platform in (jetson, tiny, jetson):
                assert rows(platform, order) == fresh[platform.name]

    def test_an_equal_platform_gets_equal_configs(self, jetson):
        twin = jetson_tk1()
        assert twin is not jetson
        expected = (32, (full_platform_config(twin), responder_config(twin, 32),
                         stress_config(twin)))
        assert bench._row_setup(jetson, True, True) == expected
        assert bench._row_setup(twin, True, True) == expected
        assert bench._row_setup(twin, False, False) == (32, ())

    def test_the_memo_stays_within_its_bound(self):
        bound = bench._row_setup.cache_info().maxsize
        for i in range(bound):  # three kinds of row on each of more platforms than that
            run_report(make_tiny_platform("tiny%d" % i), canonical_scenarios(n_samples=5))
            assert bench._row_setup.cache_info().currsize <= bound
        assert bench._row_setup.cache_info().currsize == bound

    def test_a_one_cpu_board_runs_its_off_and_calm_rows(self):
        board = one_cpu_board()
        *runnable, stressed, _ = canonical_scenarios(n_samples=50)
        assert [sc.stress for sc in runnable] == [False] * 4
        for sc in runnable:
            assert run_scenario(board, sc)[0].n == 50
        with pytest.raises(EmptyCpuSet, match="^platform has too few CPUs for the benchmark"
                                              " cells$"):
            run_scenario(board, stressed)

    def test_a_board_with_no_irq_lines_is_refused_at_its_first_row(self):
        from cellsim import Cpu, MemRegion, PlatformSpec, build_platform
        board = build_platform(PlatformSpec(name="quiet", resources=[
            Cpu(0), Cpu(1), Cpu(2), MemRegion(0x1000_0000, 0x40_0000)]))
        for sc in canonical_scenarios(n_samples=5)[::2]:  # an off, a calm and a stressed row
            with pytest.raises(NoSuchLine) as refused:
                run_scenario(board, sc)
            assert type(refused.value) is NoSuchLine
            assert str(refused.value) == "platform has no irq lines to raise"

    def test_a_report_a_row_does_not_fit_is_refused_before_any_row_draws(self, monkeypatch):
        raised, real = [], bench.raise_irqs
        monkeypatch.setattr(bench, "raise_irqs", lambda *args: raised.append(1) or real(*args))
        with pytest.raises(EmptyCpuSet, match="^platform has too few CPUs for the benchmark"
                                              " cells$"):
            run_report(one_cpu_board(), canonical_scenarios())
        assert len(raised) == 0

    def test_a_second_report_builds_no_config(self, jetson, monkeypatch):
        built = []
        check = CellConfig.__init__

        def counted(cfg, *args, **kwargs):
            check(cfg, *args, **kwargs)
            built.append(cfg.name)
        monkeypatch.setattr(CellConfig, "__init__", counted)
        bench._row_setup.cache_clear()
        run_report(jetson, canonical_scenarios(n_samples=10))
        assert built == ["root", "responder", "stress"]
        run_report(jetson, canonical_scenarios(n_samples=10))
        assert built == ["root", "responder", "stress"]


class TestBenchCells:
    def test_responder_takes_top_slice_and_line(self, jetson):
        cfg = responder_config(jetson, 32)
        (region,) = cfg.mem
        ram = jetson.mem_regions[-1]
        assert region.end == ram.end
        assert region.size == RESPONDER_BYTES
        assert cfg.cpus == frozenset({3})
        assert cfg.irqs == frozenset({32})

    def test_stress_takes_second_slice(self, jetson):
        cfg = stress_config(jetson)
        (region,) = cfg.mem
        ram = jetson.mem_regions[-1]
        assert region.end == ram.end - RESPONDER_BYTES
        assert cfg.cpus == frozenset({2})

    def test_ram_too_small_for_bench_cells(self):
        from cellsim import Cpu, IrqLine, MemRegion, PlatformSpec, build_platform
        dinky = build_platform(PlatformSpec(name="dinky", resources=[
            Cpu(0), Cpu(1), MemRegion(0x1000_0000, 0x8_0000), IrqLine(32)]))
        with pytest.raises(OutOfRegion):
            responder_config(dinky, 32)


class TestCanonicalScenarios:
    def test_row_order_and_settings(self):
        rows = [(sc.vmm_on, sc.freq_hz, sc.stress)
                for sc in canonical_scenarios(n_samples=10)]
        assert rows == [
            (False, 10.0, False), (False, 50.0, False),
            (True, 10.0, False), (True, 50.0, False),
            (True, 10.0, True), (True, 50.0, True)]

    def test_default_counts_are_four_hours(self):
        counts = [sc.n_samples for sc in canonical_scenarios()]
        assert counts == [144_000, 720_000, 144_000, 720_000, 144_000, 720_000]

    def test_explicit_count_and_seed(self):
        for sc in canonical_scenarios(n_samples=123, seed=11):
            assert sc.n_samples == 123
            assert sc.seed == 11


def small_report(jetson, n=400):
    return run_report(jetson, canonical_scenarios(n_samples=n))


class TestRendering:
    def test_table_header_and_shape(self, jetson):
        report = small_report(jetson)
        lines = render_table(report).splitlines()
        assert lines[0].split() == ["VMM", "Freq", "Stress", "mu", "sigma", "Max"]
        assert len(lines) == 1 + 6 + 3
        assert lines[7] == ""
        assert lines[8].startswith("# sigma is the population standard deviation")
        assert "jetson-tk1" in lines[9] and GENERATOR_NAME in lines[9]

    def test_first_row_values(self, jetson):
        report = small_report(jetson)
        row = render_table(report).splitlines()[1].split()
        _, stats = report.rows[0]
        assert row[:3] == ["off", "10Hz", "no"]
        assert row[3] == "0.45"
        assert row[4] == "%.2f" % stats.sigma_us
        assert stats.sigma_us == pytest.approx(0.025, abs=0.005)
        assert row[5] == "0.50"

    def test_empty_report_renders_header_only(self):
        table = render_table(BenchReport(rows=()))
        assert table.splitlines() == ["VMM  Freq  Stress  mu  sigma  Max"]

    def test_csv_shape_and_round_trip(self, jetson):
        report = small_report(jetson)
        blob = export_csv(report)
        assert isinstance(blob, bytes)
        assert b"\r" not in blob
        text = blob.decode("utf-8")
        assert text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == "vmm,freq_hz,stress,mean_us,sigma_us,max_us,n,seed"
        assert len(lines) == 7
        for line, (sc, stats) in zip(lines[1:], report.rows):
            vmm, freq, stress, mean, sigma, maxv, n, seed = line.split(",")
            assert vmm == ("on" if sc.vmm_on else "off")
            assert float(freq) == sc.freq_hz
            assert stress == ("yes" if sc.stress else "no")
            assert mean == "%.6f" % stats.mean_us
            assert sigma == "%.6f" % stats.sigma_us
            assert maxv == "%.6f" % stats.max_us
            assert int(n) == stats.n == sc.n_samples
            assert int(seed) == sc.seed
