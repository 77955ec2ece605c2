import math
import random

import pytest

from cellsim import (
    BenchReport,
    GENERATOR_NAME,
    Scenario,
    canonical_scenarios,
    export_csv,
    render_table,
    run_report,
    run_scenario,
    summarize,
)
from cellsim.bench import RESPONDER_BYTES, responder_config, stress_config
from cellsim.errors import EmptySamples, OutOfRegion
from cellsim.irq import IrqPath

from conftest import make_tiny_platform


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


class TestScenarioRuns:
    def test_off_row_is_bare_metal(self, jetson):
        stats, deliveries = run_scenario(
            jetson, Scenario(False, 10.0, False, 200, seed=7))
        assert {d.path for d in deliveries} == {IrqPath.BARE_METAL}
        assert set(d.latency_us for d in deliveries) <= {0.4375, 0.5}
        assert 0.43 < stats.mean_us < 0.47

    def test_on_row_is_reinjected(self, jetson):
        stats, deliveries = run_scenario(
            jetson, Scenario(True, 10.0, False, 200, seed=7))
        assert {d.path for d in deliveries} == {IrqPath.REINJECTED}
        assert stats.mean_us > 1.1

    def test_reruns_are_bit_identical(self, jetson):
        sc = Scenario(True, 50.0, True, 500, seed=7)
        first, d1 = run_scenario(jetson, sc)
        second, d2 = run_scenario(jetson, sc)
        assert first == second
        assert d1 == d2

    # The seed-7 canonical table at 2000 samples per row, recorded before
    # the platform views were precomputed.  A change that only makes the
    # code faster must reproduce these floats exactly; a change that
    # alters the streams on purpose updates them and says so.
    PINNED_SEED_7 = {
        (False, 10.0, False): (0.44946875, 0.024592598448262844, 0.5),
        (False, 50.0, False): (0.4495, 0.024617067250182343, 0.5),
        (True, 10.0, False): (1.27225, 0.08604286722326261, 2.0625),
        (True, 50.0, False): (1.2723125, 0.08430670847417777, 2.4375),
        (True, 10.0, True): (1.361375, 0.3084327570557317, 3.4375),
        (True, 50.0, True): (1.372125, 0.33858554587430334, 4.375),
    }

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
        assert [d.raised_at for d in deliveries] == [
            0, 20_000_000, 40_000_000, 60_000_000, 80_000_000]

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
        assert row[:3] == ["off", "10Hz", "no"]
        assert row[3] == "0.45"
        assert float(row[4]) == pytest.approx(0.025, abs=0.005)
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
            assert float(mean) == pytest.approx(stats.mean_us, abs=5e-7)
            assert float(sigma) == pytest.approx(stats.sigma_us, abs=5e-7)
            assert float(maxv) == pytest.approx(stats.max_us, abs=5e-7)
            assert int(n) == stats.n == sc.n_samples
            assert int(seed) == sc.seed
