"""Integration test: the Table 1 reproduction as a 24-job campaign.

perfbench's ``table1`` workload replays every row exactly; here we verify
the qualitative structure the paper reports, on the campaign's records:

* ordinary benchmarks succeed for both methods and show a large speedup,
* the low-contrast benchmark 7 splits the two methods (fast succeeds,
  Canny/Hough baseline fails),
* a pathological-noise benchmark defeats both methods,

and that the campaign runs the same on a process pool, with the failure
taxonomy every campaign record carries.
"""

from __future__ import annotations

import pytest

from repro.analysis import pair_speedup, summarize_suite, table1_rows
from repro.campaign import TABLE1_METHODS, TuningCampaign, diagram_jobs, run_table1
from repro.datasets import load_suite


@pytest.fixture(scope="module")
def table1_jobs():
    return diagram_jobs(load_suite(), TABLE1_METHODS)


@pytest.fixture(scope="module")
def table1(table1_jobs):
    return TuningCampaign(table1_jobs).run()


def _pair(result, index: int):
    """CSD ``index``'s (fast, baseline) records."""
    fast, baseline = result.records[2 * (index - 1) : 2 * index]
    assert (fast.method, baseline.method) == TABLE1_METHODS
    return fast, baseline


class TestOrdinaryBenchmarks:
    @pytest.mark.parametrize("index", [3, 4, 5])
    def test_both_methods_succeed_on_63px_benchmarks(self, table1, index):
        fast, baseline = _pair(table1, index)
        assert fast.success
        assert baseline.success
        assert pair_speedup(fast, baseline) > 4.0
        assert fast.probe_fraction < 0.25
        assert baseline.probe_fraction == pytest.approx(1.0)

    def test_100px_benchmark_probe_fraction_near_ten_percent(self, table1):
        fast, baseline = _pair(table1, 6)
        assert fast.success
        assert 0.05 < fast.probe_fraction < 0.18
        assert pair_speedup(fast, baseline) > 6.0


class TestDiscriminatingBenchmarks:
    def test_benchmark7_fast_succeeds_baseline_fails(self, table1):
        fast, baseline = _pair(table1, 7)
        assert fast.success
        assert not baseline.success

    def test_pathological_noise_defeats_both(self, table1):
        fast, baseline = _pair(table1, 1)
        assert not fast.success
        assert not baseline.success

    def test_failure_taxonomy(self, table1):
        # The fast method returns wrong alphas on CSDs 1 and 2; the
        # baseline finds no transition line on CSDs 1, 2 and 7.
        failed = {
            (r.job_id // 2 + 1, r.method): r.failure_category
            for r in table1.failed_records()
        }
        assert failed == {
            (1, "fast"): "truth-mismatch",
            (2, "fast"): "truth-mismatch",
            (1, "baseline"): "no-transition",
            (2, "baseline"): "no-transition",
            (7, "baseline"): "no-transition",
        }


class TestSummaryShape:
    def test_subset_summary_matches_paper_structure(self):
        records, _ = run_table1(indices=(3, 6, 7))
        assert [row[0] for row in table1_rows(records)] == ["3", "6", "7"]
        summary = summarize_suite(records)
        assert summary.fast_successes == 3
        assert summary.baseline_successes == 2
        assert summary.min_speedup > 4.0
        assert summary.mean_probe_fraction < 0.2


class TestBackends:
    def test_process_pool_records_equal_serial(self, table1_jobs, table1):
        pooled = TuningCampaign(table1_jobs, backend="process:2").run()
        assert pooled.n_workers == 2
        assert pooled.normalized() == table1.normalized()
