"""Tests for the campaign fault axis: grids, records, resilience, resume."""

from __future__ import annotations

import dataclasses

import pytest

from repro.campaign import CampaignGrid, CampaignResult, DeviceSpec, TuningCampaign
from repro.exceptions import ConfigurationError
from repro.execution import crash_message


def _grid(**overrides) -> CampaignGrid:
    kwargs = dict(
        devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
        resolutions=(40,),
        noise_scales=(0.0,),
        methods=("fast",),
        faults=(None, "flaky-lab", "worker-crashes"),
        n_repeats=2,
        seed=11,
    )
    kwargs.update(overrides)
    return CampaignGrid(**kwargs)


@pytest.fixture(scope="module")
def faulty_grid() -> CampaignGrid:
    return _grid()


@pytest.fixture(scope="module")
def serial_result(faulty_grid) -> CampaignResult:
    return TuningCampaign(faulty_grid).run()


class TestGridFaultAxis:
    def test_fault_axis_multiplies_jobs(self, faulty_grid):
        assert faulty_grid.n_jobs == 6
        assert _grid(faults=(None,)).n_jobs == 2

    def test_labels_carry_the_fault_condition(self, faulty_grid):
        jobs = faulty_grid.expand()
        for job in jobs:
            if job.fault is None:
                assert "!" not in job.label
            else:
                assert f"!{job.fault}" in job.label

    def test_unknown_fault_rejected(self):
        with pytest.raises(ConfigurationError, match="does-not-exist"):
            _grid(faults=("does-not-exist",))

    def test_duplicate_fault_rejected(self):
        with pytest.raises(ConfigurationError, match="repeat"):
            _grid(faults=("flaky-lab", "flaky-lab"))

    def test_empty_fault_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            _grid(faults=())

    def test_job_seeds_stay_independent(self, faulty_grid):
        jobs = faulty_grid.expand()
        assert len({job.seed.spawn_key for job in jobs}) == len(jobs)


class TestRecordFaultFields:
    def test_records_carry_fault_and_retry_counts(self, serial_result):
        by_fault = {}
        for record in serial_result.records:
            by_fault.setdefault(record.fault, []).append(record)
        assert set(by_fault) == {None, "flaky-lab", "worker-crashes"}
        assert all(r.n_probe_retries == 0 for r in by_fault[None])
        assert sum(r.n_probe_retries for r in by_fault["flaky-lab"]) > 0

    def test_round_trip_is_bit_identical(self, serial_result):
        for record in serial_result.records:
            assert type(record).from_dict(record.as_dict()) == record

    def test_pre_fault_journals_still_load(self, serial_result):
        legacy = serial_result.records[0].as_dict()
        del legacy["fault"]
        del legacy["n_probe_retries"]
        record = type(serial_result.records[0]).from_dict(legacy)
        assert record.fault is None
        assert record.n_probe_retries == 0


class TestFaultResilience:
    def test_flaky_lab_jobs_ride_out_the_chaos(self, serial_result):
        flaky = [r for r in serial_result.records if r.fault == "flaky-lab"]
        assert flaky and all(r.success for r in flaky)

    def test_worker_crashes_become_records_not_aborts(
        self, faulty_grid, serial_result
    ):
        assert serial_result.n_jobs == faulty_grid.n_jobs
        crashed = [
            r
            for r in serial_result.records
            if r.failure_category == "worker_error"
        ]
        assert crashed
        for record in crashed:
            assert record.fault == "worker-crashes"
            assert not record.success
            assert crash_message(record.job_id) in record.failure_reason

    def test_report_gains_a_fault_resilience_section(self, serial_result):
        report = serial_result.format_report()
        assert "Fault resilience: outcomes under injected conditions" in report
        assert "flaky-lab" in report

    def test_fault_free_results_render_without_the_section(self, serial_result):
        clean = dataclasses.replace(
            serial_result,
            records=tuple(
                r for r in serial_result.records if r.fault is None
            ),
        )
        assert "Fault resilience" not in clean.format_report()


class TestCrossBackendIdentity:
    @pytest.mark.parametrize("backend", ["process:2", "process:3"])
    def test_same_chaos_on_every_backend(self, faulty_grid, serial_result, backend):
        # The fault-axis contract: injected faults, retry counts, and
        # worker deaths are seed-determined, so every backend at every
        # worker count condenses into bit-identical records.
        result = TuningCampaign(faulty_grid, backend=backend).run()
        assert result.normalized() == serial_result.normalized()
        assert [r.n_probe_retries for r in result.records] == [
            r.n_probe_retries for r in serial_result.records
        ]


class _InterruptAfter:
    """Progress hook that kills the campaign after ``n`` completed jobs."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __call__(self, done, total, record) -> None:
        if done >= self.n:
            raise KeyboardInterrupt(f"simulated kill after {done} jobs")


class TestResumeUnderFaults:
    def test_interrupted_chaos_campaign_resumes_bit_identically(
        self, faulty_grid, serial_result, tmp_path
    ):
        journal_path = tmp_path / "chaos.jsonl"
        with pytest.raises(KeyboardInterrupt):
            TuningCampaign(faulty_grid, progress=_InterruptAfter(3)).run(
                checkpoint=journal_path
            )
        resumed = TuningCampaign(faulty_grid).resume(journal_path)
        assert resumed.normalized() == serial_result.normalized()
        # Retry counts survive the journal round trip exactly.
        assert [r.n_probe_retries for r in resumed.records] == [
            r.n_probe_retries for r in serial_result.records
        ]
        assert (
            resumed.normalized().format_report()
            == serial_result.normalized().format_report()
        )

    def test_fault_axis_is_part_of_the_fingerprint(self, faulty_grid, tmp_path):
        journal_path = tmp_path / "chaos.jsonl"
        with pytest.raises(KeyboardInterrupt):
            TuningCampaign(faulty_grid, progress=_InterruptAfter(1)).run(
                checkpoint=journal_path
            )
        with pytest.raises(ConfigurationError, match="fingerprint"):
            TuningCampaign(_grid(faults=(None,))).resume(journal_path)
