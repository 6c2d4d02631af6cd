"""Campaign jobs that replay a stored charge-stability diagram.

A diagram job runs one method on its own replay session of the diagram,
so the fast method and the Canny+Hough baseline never share probe counts
or simulated time, and the campaign worker scores it against the
diagram's ground truth like any other job.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import SuccessCriterion, pair_speedup, table1_rows
from repro.campaign import (
    TABLE1_METHODS,
    TuningCampaign,
    campaign_fingerprint,
    diagram_jobs,
    run_campaign_job,
)
from repro.datasets import NoiseRecipe, SyntheticCSDConfig
from repro.exceptions import ConfigurationError
from repro.instrument import ExperimentSession
from repro.pipeline import FastVirtualGateExtractor, HoughBaselineExtractor, get_pipeline


@pytest.fixture(scope="module")
def csd(small_benchmark_config):
    return small_benchmark_config.build_csd()


@pytest.fixture(scope="module")
def pair(csd):
    """The fast and the baseline record of the small benchmark."""
    return TuningCampaign(diagram_jobs([csd], TABLE1_METHODS)).run().records


def _mini(i: int, resolution: int = 40):
    return SyntheticCSDConfig(
        name=f"mini-{i}",
        resolution=resolution,
        cross_coupling=(0.2 + 0.05 * i, 0.2),
        noise=NoiseRecipe(white_sigma_na=0.01, pink_sigma_na=0.0, drift_na=0.0),
        seed=i,
    ).build_csd()


class TestDiagramRecords:
    def test_both_methods_ran(self, pair):
        fast, baseline = pair
        assert (fast.job_id, fast.method) == (0, "fast")
        assert (baseline.job_id, baseline.method) == (1, "baseline")
        assert fast.device == baseline.device == "test-benchmark"
        assert fast.label == "#0 test-benchmark:P1-P2 r48 fast x0"

    def test_probe_accounting_is_independent(self, pair):
        fast, baseline = pair
        assert baseline.n_probes == 48 * 48
        assert fast.n_probes < baseline.n_probes
        assert fast.probe_fraction < 1.0

    def test_speedup_defined_when_fast_succeeds(self, pair):
        fast, baseline = pair
        assert fast.success
        value = pair_speedup(fast, baseline)
        assert value is not None and value > 1.0
        assert value == pytest.approx(baseline.sim_elapsed_s / fast.sim_elapsed_s)

    def test_no_speedup_when_fast_fails(self, pair):
        fast, baseline = pair
        failed = dataclasses.replace(fast, success=False)
        assert pair_speedup(failed, baseline) is None
        assert table1_rows([failed, baseline])[0][-1] == "N/A"

    def test_accuracy_computed_for_both(self, pair):
        fast, baseline = pair
        assert fast.max_alpha_error < 0.1
        assert np.isfinite(baseline.max_alpha_error)

    def test_ground_truth_recorded(self, pair):
        for record in pair:
            assert 0 < record.true_alpha_12 < 1
            assert 0 < record.true_alpha_21 < 1

    def test_resolution_is_the_diagram_side(self, pair):
        assert [record.resolution for record in pair] == [48, 48]
        assert table1_rows(pair)[0][1] == "48x48"

    def test_replay_equals_the_extractors_on_a_fresh_session(self, csd, pair):
        # The worker replays at the paper's timing, like from_csd's default.
        extractors = (FastVirtualGateExtractor(), HoughBaselineExtractor())
        for record, extractor in zip(pair, extractors):
            result = extractor.extract(ExperimentSession.from_csd(csd))
            assert record.extractor_success == result.success
            assert (record.alpha_12, record.alpha_21) == (result.alpha_12, result.alpha_21)
            assert record.n_probes == result.probe_stats.n_probes
            assert record.sim_elapsed_s == result.probe_stats.elapsed_s


class TestDiagramJobList:
    def test_diagram_major_ids_and_names(self):
        jobs = diagram_jobs([_mini(0), _mini(1)], TABLE1_METHODS)
        records = TuningCampaign(jobs).run().records
        assert [r.job_id for r in records] == [0, 1, 2, 3]
        assert [r.device for r in records] == ["mini-0", "mini-0", "mini-1", "mini-1"]
        assert [row[0] for row in table1_rows(records)] == ["1", "2"]

    def test_a_pipeline_method_rides_in_the_job(self):
        pipeline = get_pipeline("no-filter")
        (job,) = diagram_jobs([_mini(0)], [pipeline])
        assert job.method == "no-filter"
        assert job.pipeline is pipeline
        assert run_campaign_job(job).method == "no-filter"

    def test_the_diagram_takes_no_part_in_equality_or_repr(self):
        (job,) = diagram_jobs([_mini(0)], ["fast"])
        (other,) = diagram_jobs([_mini(1)], ["fast"])
        assert dataclasses.replace(job, diagram=other.diagram) == job
        assert "diagram" not in repr(job)

    def test_non_square_diagram_refused(self):
        square = _mini(0)
        wide = dataclasses.replace(
            square, data=square.data[:-2], y_voltages=square.y_voltages[:-2]
        )
        with pytest.raises(ConfigurationError, match="square"):
            diagram_jobs([wide], ["fast"])

    @pytest.mark.parametrize(
        "change", [{"scenario": "quiet_lab"}, {"fault": "transient-reads"}]
    )
    def test_scenario_or_fault_refused(self, change):
        (job,) = diagram_jobs([_mini(0)], ["fast"])
        with pytest.raises(ConfigurationError, match="stored diagram"):
            run_campaign_job(dataclasses.replace(job, **change))


class TestDiagramFingerprint:
    def test_fingerprint_covers_the_diagram_data(self):
        # Same name and size, so the same labels: only the data differ.
        first = diagram_jobs([_mini(0)], TABLE1_METHODS)
        other = _mini(0)
        other.data[0, 0] += 1e-6
        second = diagram_jobs([other], TABLE1_METHODS)
        assert [job.label for job in first] == [job.label for job in second]
        criterion = SuccessCriterion()
        assert campaign_fingerprint(first, criterion) != campaign_fingerprint(
            second, criterion
        )
        assert campaign_fingerprint(first, criterion) == campaign_fingerprint(
            diagram_jobs([_mini(0)], TABLE1_METHODS), criterion
        )

    def test_journal_for_other_diagrams_is_refused(self, tmp_path):
        journal = tmp_path / "table.jsonl"
        first = TuningCampaign(diagram_jobs([_mini(0)], TABLE1_METHODS)).run(
            checkpoint=journal
        )
        same_names = dataclasses.replace(
            _mini(0), data=_mini(1).data, geometry=_mini(1).geometry
        )
        with pytest.raises(ConfigurationError, match="different run"):
            TuningCampaign(diagram_jobs([same_names], TABLE1_METHODS)).run(
                checkpoint=journal
            )
        # The journal's own diagram list resumes from it and runs nothing:
        # a job that ran would come back as a "worker_error" record.
        resumed = TuningCampaign(
            diagram_jobs([_mini(0)], TABLE1_METHODS), job_runner=_never_runs
        ).run(checkpoint=journal)
        assert resumed.normalized().records == first.normalized().records


def _never_runs(job, criterion=None):
    raise RuntimeError(f"job {job.job_id} should have come from the journal")
