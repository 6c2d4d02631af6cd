"""Integration test: a subset of the Table 1 reproduction.

The full twelve-benchmark run is perfbench's ``table1`` workload, which
replays every row exactly; here we verify the qualitative structure the
paper reports on a fast subset:

* ordinary benchmarks succeed for both methods and show a large speedup,
* the low-contrast benchmark 7 splits the two methods (fast succeeds,
  Canny/Hough baseline fails),
* a pathological-noise benchmark defeats both methods.
"""

from __future__ import annotations

import pytest

from repro.analysis import ComparisonRunner, summarize_suite
from repro.datasets import load_benchmark
from repro.exceptions import ConfigurationError
from repro.instrument import TimingModel


@pytest.fixture(scope="module")
def runner() -> ComparisonRunner:
    return ComparisonRunner()


class TestOrdinaryBenchmarks:
    @pytest.mark.parametrize("index", [3, 4, 5])
    def test_both_methods_succeed_on_63px_benchmarks(self, runner, index):
        record = runner.run_benchmark(load_benchmark(index), index=index)
        assert record.fast.success
        assert record.baseline.success
        assert record.speedup is not None and record.speedup > 4.0
        assert record.fast.probe_fraction < 0.25
        assert record.baseline.probe_fraction == pytest.approx(1.0)

    def test_100px_benchmark_probe_fraction_near_ten_percent(self, runner):
        record = runner.run_benchmark(load_benchmark(6), index=6)
        assert record.fast.success
        assert 0.05 < record.fast.probe_fraction < 0.18
        assert record.speedup > 6.0


class TestDiscriminatingBenchmarks:
    def test_benchmark7_fast_succeeds_baseline_fails(self, runner):
        record = runner.run_benchmark(load_benchmark(7), index=7)
        assert record.fast.success
        assert not record.baseline.success

    def test_pathological_noise_defeats_both(self, runner):
        record = runner.run_benchmark(load_benchmark(1), index=1)
        assert not record.fast.success
        assert not record.baseline.success


class TestSummaryShape:
    def test_subset_summary_matches_paper_structure(self, runner):
        records = [
            runner.run_benchmark(load_benchmark(index), index=index) for index in (3, 6, 7)
        ]
        summary = summarize_suite(records)
        assert summary.fast_successes == 3
        assert summary.baseline_successes == 2
        assert summary.min_speedup > 4.0
        assert summary.mean_probe_fraction < 0.2


class TestNonFiniteTiming:
    @pytest.mark.parametrize("dwell", [float("nan"), float("inf")])
    def test_replay_refuses_non_finite_dwell(self, dwell):
        # A NaN or infinite dwell used to pass the timing checks, and the
        # replay "succeeded" with a non-finite elapsed_s.
        with pytest.raises(ConfigurationError):
            ComparisonRunner(timing=TimingModel(dwell_time_s=dwell)).run_benchmark(
                load_benchmark(4), index=4
            )
