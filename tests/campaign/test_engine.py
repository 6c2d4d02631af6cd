"""Tests for the campaign engine, worker, and aggregated results."""

from __future__ import annotations

import dataclasses
import os
import pickle
from functools import partial

import pytest

from repro.analysis import SuccessCriterion
from repro.campaign import (
    CampaignGrid,
    CampaignJobRecord,
    DeviceSpec,
    TuningCampaign,
    classify_failure,
    run_campaign_job,
    worker_error_record,
)
from repro.campaign.worker import run_guarded
from repro.exceptions import ConfigurationError
from repro.execution import CheckpointJournal, ProcessPoolBackend, SerialBackend, crash_message

POISONED_JOB_ID = 1


def poisoned_job_runner(job, criterion=None):
    """Module-level (picklable) runner that raises for one job id.

    Raising *outside* :func:`run_campaign_job` models infrastructure-level
    faults — the exception escapes the worker function itself, which with
    the old blocking ``pool.map`` aborted the campaign and discarded every
    completed record.
    """
    if job.job_id == POISONED_JOB_ID:
        raise RuntimeError("poisoned payload")
    return run_campaign_job(job, criterion=criterion)


def lethal_job_runner(job, criterion=None):
    """Module-level (picklable) runner whose worker dies on one job id."""
    if job.job_id == POISONED_JOB_ID:
        os._exit(1)  # hard death: no exception, no record
    return run_campaign_job(job, criterion=criterion)


@pytest.fixture(scope="module")
def small_grid() -> CampaignGrid:
    return CampaignGrid(
        devices=(
            DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),
            DeviceSpec.of("linear_array", n_dots=3),
        ),
        resolutions=(63,),
        noise_scales=(0.0, 1.0),
        methods=("fast",),
        n_repeats=1,
        seed=11,
    )


@pytest.fixture(scope="module")
def sequential_result(small_grid):
    return TuningCampaign(small_grid).run()


class TestTuningCampaign:
    def test_runs_every_job_in_order(self, small_grid, sequential_result):
        assert sequential_result.n_jobs == small_grid.n_jobs
        assert [r.job_id for r in sequential_result.records] == list(
            range(small_grid.n_jobs)
        )

    def test_clean_jobs_succeed(self, sequential_result):
        noise_free = sequential_result.records_for(noise_scale=0.0)
        assert noise_free and all(r.success for r in noise_free)
        assert sequential_result.success_rate > 0.5

    @pytest.mark.parametrize("backend", ["serial", "process:2", "process:3"])
    def test_backend_matrix_bit_identical(self, small_grid, sequential_result, backend):
        # The tentpole contract: every backend at every worker count
        # produces bit-identical records (everything but wall-clock time).
        result = TuningCampaign(small_grid, backend=backend).run()
        assert (
            result.normalized().records == sequential_result.normalized().records
        )

    def test_backend_instance_accepted(self, small_grid, sequential_result):
        result = TuningCampaign(
            small_grid, backend=ProcessPoolBackend(max_workers=3)
        ).run()
        assert result.normalized().records == sequential_result.normalized().records
        assert result.metadata["backend"] == "process"
        # The result reports the workers the backend actually used.
        assert result.n_workers == 3

    def test_unknown_backend_rejected(self, small_grid):
        with pytest.raises(ConfigurationError):
            TuningCampaign(small_grid, backend="teleport")

    def test_accepts_pre_expanded_jobs(self, small_grid, sequential_result):
        jobs = small_grid.expand()
        rerun = TuningCampaign(jobs[:2]).run()
        assert rerun.n_jobs == 2
        assert rerun.records[0].alpha_12 == sequential_result.records[0].alpha_12

    def test_duplicate_job_ids_rejected(self, small_grid):
        job = small_grid.expand()[0]
        with pytest.raises(ConfigurationError):
            TuningCampaign([job, job])

    def test_empty_campaign(self):
        result = TuningCampaign([]).run()
        assert result.n_jobs == 0
        assert result.success_rate != result.success_rate  # nan
        assert result.failure_taxonomy() == {}


class TestFaultIsolation:
    """A raising job yields a ``worker_error`` record, not a dead campaign."""

    @pytest.mark.parametrize("backend", [None, "process:2"])
    def test_poisoned_job_survives_as_worker_error_record(
        self, small_grid, sequential_result, backend
    ):
        # Regression: with the old blocking pool.map, the poisoned job's
        # exception aborted the whole campaign and discarded every
        # completed record.
        result = TuningCampaign(
            small_grid, backend=backend, job_runner=poisoned_job_runner
        ).run()
        assert result.n_jobs == small_grid.n_jobs
        poisoned = result.records[POISONED_JOB_ID]
        assert not poisoned.success
        assert poisoned.failure_category == "worker_error"
        assert "RuntimeError: poisoned payload" in poisoned.failure_reason
        assert "worker_error" in result.failure_taxonomy()
        # Every other record is untouched by the poison.
        for record, reference in zip(result.records, sequential_result.records):
            if record.job_id != POISONED_JOB_ID:
                assert record == dataclasses_replace_wall(record, reference)

    def test_guard_runs_standalone_and_pickles(self, small_grid):
        # The guard ships to workers as a partial, so it must pickle.
        guard = pickle.loads(
            pickle.dumps(partial(run_guarded, poisoned_job_runner, SuccessCriterion()))
        )
        jobs = small_grid.expand()
        assert guard(jobs[POISONED_JOB_ID]).failure_category == "worker_error"
        assert guard(jobs[0]).success

    def test_guard_lets_interrupts_through(self, small_grid):
        # Only an Exception becomes a record: a KeyboardInterrupt raised in
        # a job stops the campaign instead of being filed as worker_error.
        def interrupted_runner(job, criterion=None):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            TuningCampaign(
                small_grid.expand()[:2], job_runner=interrupted_runner
            ).run()

    def test_worker_crash_marker_becomes_worker_error_record(self, small_grid):
        # The pool yields a WorkerCrash marker for the job whose worker
        # died; the campaign condenses it into the canonical record.
        result = TuningCampaign(
            small_grid.expand()[:2], backend="process:2", job_runner=lethal_job_runner
        ).run()
        crashed = result.records[POISONED_JOB_ID]
        assert crashed.failure_category == "worker_error"
        assert crashed.failure_reason == (
            f"WorkerCrashError: {crash_message(POISONED_JOB_ID)}"
        )
        assert result.records[0].success


def dataclasses_replace_wall(record, reference):
    """``reference`` with ``record``'s wall times, for whole-record equality.

    Wall clocks are the only nondeterministic record content: the job-level
    ``wall_elapsed_s`` and each stage-telemetry row's ``wall_s``.
    """
    return dataclasses.replace(
        reference,
        wall_elapsed_s=record.wall_elapsed_s,
        stage_telemetry=tuple(
            dataclasses.replace(telemetry, wall_s=mine.wall_s)
            for telemetry, mine in zip(
                reference.stage_telemetry, record.stage_telemetry
            )
        ),
    )


class TestProgressCallbacks:
    def test_progress_streams_once_per_job(self, small_grid):
        calls = []
        TuningCampaign(
            small_grid,
            progress=lambda done, total, record: calls.append((done, total, record.job_id)),
        ).run()
        assert [done for done, _, _ in calls] == list(range(1, small_grid.n_jobs + 1))
        assert all(total == small_grid.n_jobs for _, total, _ in calls)
        # Each call carries the record just completed, in completion order.
        assert [job_id for _, _, job_id in calls] == list(range(small_grid.n_jobs))

    @pytest.mark.parametrize("backend", [None, "process:2"])
    def test_journaled_jobs_count_as_done_without_firing(
        self, small_grid, tmp_path, backend
    ):
        journal_path = tmp_path / "campaign.jsonl"
        with pytest.raises(KeyboardInterrupt):
            TuningCampaign(small_grid, progress=_InterruptAfter(2)).run(
                checkpoint=journal_path
            )
        calls = []
        TuningCampaign(
            small_grid,
            backend=backend,
            progress=lambda done, total, record: calls.append((done, total)),
        ).run(checkpoint=journal_path)
        n_jobs = small_grid.n_jobs
        assert calls == [(done, n_jobs) for done in range(3, n_jobs + 1)]


class _InterruptAfter:
    """Progress hook that kills the campaign after ``n`` completed jobs."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __call__(self, done, total, record) -> None:
        if done >= self.n:
            raise KeyboardInterrupt(f"simulated kill after {done} jobs")


class TestCheckpointResume:
    def test_interrupted_campaign_resumes_bit_identically(
        self, small_grid, sequential_result, tmp_path
    ):
        journal_path = tmp_path / "campaign.jsonl"
        interrupted = TuningCampaign(small_grid, progress=_InterruptAfter(3))
        with pytest.raises(KeyboardInterrupt):
            interrupted.run(checkpoint=journal_path)
        # The dead run journaled the fingerprint header plus a strict
        # prefix of the records...
        lines = journal_path.read_text().splitlines()
        assert len(lines) == 1 + 3
        # ... and a kill can also truncate the line being written; the
        # loader must survive that too.
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"job_id": 3, "record": {"job_id"')
        resumed = TuningCampaign(small_grid).run(checkpoint=journal_path)
        # Bit-identical to the uninterrupted serial run: whole records,
        # the summary, and the rendered report (modulo wall-clock time).
        assert resumed.normalized() == sequential_result.normalized()
        assert resumed.normalized().summary() == sequential_result.normalized().summary()
        assert (
            resumed.normalized().format_report()
            == sequential_result.normalized().format_report()
        )

    def test_resume_skips_journaled_jobs(self, small_grid, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        with pytest.raises(KeyboardInterrupt):
            TuningCampaign(small_grid, progress=_InterruptAfter(2)).run(
                checkpoint=journal_path
            )
        ran = []

        def spying_runner(job, criterion=None):
            ran.append(job.job_id)
            return run_campaign_job(job, criterion=criterion)

        TuningCampaign(small_grid, job_runner=spying_runner).run(checkpoint=journal_path)
        assert sorted(ran) == list(range(2, small_grid.n_jobs))

    def test_resume_on_missing_journal_runs_fresh(self, small_grid, tmp_path):
        journal_path = tmp_path / "fresh.jsonl"
        result = TuningCampaign(small_grid).run(checkpoint=journal_path)
        assert result.n_jobs == small_grid.n_jobs
        # One fingerprint header plus one line per record.
        assert (
            len(journal_path.read_text().splitlines()) == 1 + small_grid.n_jobs
        )

    def test_resume_against_foreign_journal_rejected(self, small_grid, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        TuningCampaign(small_grid.expand()[:2]).run(checkpoint=journal_path)
        other_grid = CampaignGrid(
            devices=(DeviceSpec.of("double_dot", cross_coupling=(0.30, 0.28)),),
            resolutions=(63,),
            noise_scales=(0.0,),
            seed=123,
        )
        # Same path, different campaign: the job ids overlap, so adopting
        # the journal would silently merge the wrong records.
        with pytest.raises(ConfigurationError, match="different run"):
            TuningCampaign(other_grid).run(checkpoint=journal_path)

    def test_fingerprint_stable_across_processes(self):
        # The fingerprint must be content-based: any memory-address repr
        # leaking in (e.g. a non-dataclass noise model) would make every
        # cross-process resume of a scenario campaign fail as "a different
        # run" — the exact crash-recovery case checkpoints exist for.
        import subprocess
        import sys

        snippet = (
            "from repro.campaign import CampaignGrid, DeviceSpec, "
            "campaign_fingerprint\n"
            "from repro.analysis import SuccessCriterion\n"
            "jobs = CampaignGrid(devices=(DeviceSpec.of('double_dot', "
            "cross_coupling=(0.25, 0.22)),), resolutions=(63,), "
            "scenarios=(None, 'standard_lab'), seed=17).expand()\n"
            "print(campaign_fingerprint(jobs, SuccessCriterion()))\n"
        )
        run = lambda: subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src"},
            cwd=str(__import__("pathlib").Path(__file__).parents[2]),
        ).stdout.strip()
        first, second = run(), run()
        assert first == second
        assert "0x" not in first

    def test_fingerprint_distinguishes_dot_pairs(self, small_grid):
        from repro.analysis import SuccessCriterion
        from repro.campaign import campaign_fingerprint

        jobs = small_grid.expand()[:2]
        # Same gates, seeds, and labels — different target dot pair.
        shifted = tuple(
            dataclasses.replace(job, dot_b=job.dot_b + 1) for job in jobs
        )
        criterion = SuccessCriterion()
        assert campaign_fingerprint(jobs, criterion) != campaign_fingerprint(
            shifted, criterion
        )

    def test_fingerprint_rejects_address_bearing_scenario_reprs(self, small_grid):
        from repro.analysis import SuccessCriterion
        from repro.campaign import campaign_fingerprint

        class OpaqueModel:  # default object repr embeds a memory address
            pass

        job = dataclasses.replace(
            small_grid.expand()[0], scenario="homemade", environment=OpaqueModel()
        )
        with pytest.raises(ConfigurationError, match="memory address"):
            campaign_fingerprint((job,), SuccessCriterion())
        with pytest.raises(ConfigurationError, match="criterion"):
            campaign_fingerprint(small_grid.expand()[:1], OpaqueModel())

    def test_default_backend_is_serial(self, small_grid):
        # No spec runs in-process (and never pickles); a spec is the only
        # way to ask for anything else, whatever the grid size.
        assert isinstance(TuningCampaign(small_grid).backend, SerialBackend)
        explicit = TuningCampaign(small_grid.expand()[:1], backend="process")
        assert explicit.backend.name == "process"

    def test_resume_after_scenario_redefinition_rejected(self, tmp_path):
        import dataclasses as dc

        from repro.scenarios import get_scenario, register_scenario, unregister_scenario

        base = get_scenario("quiet_lab")
        scenario = dc.replace(base, name="retune_test_lab")
        register_scenario(scenario, overwrite=True)
        try:
            jobs = CampaignGrid(
                devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
                resolutions=(63,),
                scenarios=("retune_test_lab",),
                seed=17,
            ).expand()
            journal_path = tmp_path / "campaign.jsonl"
            TuningCampaign(jobs).run(checkpoint=journal_path)
            # Re-register the same name with different physics: journaled
            # records were computed under the old definition, so resuming
            # must refuse rather than merge stale records.
            register_scenario(
                dc.replace(scenario, story="redefined physics"), overwrite=True
            )
            with pytest.raises(ConfigurationError, match="different run"):
                TuningCampaign(jobs).run(checkpoint=journal_path)
        finally:
            unregister_scenario("retune_test_lab")

    def test_journaled_worker_errors_are_adopted(self, small_grid, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        jobs = small_grid.expand()[:3]
        poisoned = TuningCampaign(jobs, job_runner=poisoned_job_runner).run(
            checkpoint=journal_path
        )
        assert poisoned.records[POISONED_JOB_ID].failure_category == "worker_error"
        # A resume with a healthy runner adopts the journaled failure verbatim.
        adopted = TuningCampaign(jobs).run(checkpoint=journal_path)
        assert adopted.records[POISONED_JOB_ID] == poisoned.records[POISONED_JOB_ID]

    def test_journaled_records_are_adopted_verbatim(self, small_grid, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        jobs = small_grid.expand()[:2]
        marker = worker_error_record(jobs[1], RuntimeError("adopted-from-journal"))
        CheckpointJournal(journal_path, serialize=CampaignJobRecord.as_dict).append(
            1, marker
        )
        ran = []

        def spying_runner(job, criterion=None):
            ran.append(job.job_id)
            return run_campaign_job(job, criterion=criterion)

        result = TuningCampaign(jobs, job_runner=spying_runner).run(
            checkpoint=journal_path
        )
        assert ran == [0]
        assert result.records[1] == marker

    @pytest.mark.parametrize("backend", [None, "process:2"])
    def test_unknown_journal_ids_are_ignored(self, small_grid, tmp_path, backend):
        journal_path = tmp_path / "campaign.jsonl"
        jobs = small_grid.expand()[:2]
        stale = dataclasses.replace(
            worker_error_record(jobs[0], RuntimeError("stale")), job_id=999
        )
        CheckpointJournal(journal_path, serialize=CampaignJobRecord.as_dict).append(
            999, stale
        )
        result = TuningCampaign(jobs, backend=backend).run(checkpoint=journal_path)
        assert [record.job_id for record in result.records] == [0, 1]

    @pytest.mark.parametrize("backend", [None, "process:2"])
    def test_every_new_record_is_appended(self, small_grid, tmp_path, backend):
        journal_path = tmp_path / "campaign.jsonl"
        result = TuningCampaign(small_grid, backend=backend).run(checkpoint=journal_path)
        journal = CheckpointJournal(
            journal_path, deserialize=CampaignJobRecord.from_dict
        )
        assert journal.load() == {record.job_id: record for record in result.records}

    def test_reported_workers_clamp_to_job_count(self, small_grid):
        result = TuningCampaign(small_grid.expand()[:2], backend="process:8").run()
        assert result.n_workers == 2

    def test_completed_journal_short_circuits(self, small_grid, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        first = TuningCampaign(small_grid).run(checkpoint=journal_path)
        ran = []

        def spying_runner(job, criterion=None):
            ran.append(job.job_id)
            return run_campaign_job(job, criterion=criterion)

        rerun = TuningCampaign(small_grid, job_runner=spying_runner).run(
            checkpoint=journal_path
        )
        assert ran == []
        assert rerun.normalized() == first.normalized()


class TestCampaignResult:
    def test_aggregates_match_records(self, sequential_result):
        assert sequential_result.total_probes == sum(
            r.n_probes for r in sequential_result.records
        )
        assert sequential_result.n_succeeded == sum(
            1 for r in sequential_result.records if r.success
        )
        taxonomy = sequential_result.failure_taxonomy()
        assert sum(taxonomy.values()) == len(sequential_result.failed_records())

    def test_filtering(self, sequential_result):
        fast = sequential_result.records_for(method="fast")
        assert len(fast) == sequential_result.n_jobs
        assert sequential_result.records_for(method="baseline") == ()

    def test_report_renders(self, sequential_result):
        report = sequential_result.format_report(max_rows=2)
        assert "Batch-tuning campaign" in report
        assert "Campaign summary" in report
        assert "more jobs" in report  # truncation marker
        summary = sequential_result.summary()
        assert summary["n_jobs"] == sequential_result.n_jobs
        assert summary["n_workers"] == 1


class TestWorker:
    def test_crashing_job_becomes_failed_record(self, small_grid):
        # A 1-pixel grid cannot even open a session; the worker converts the
        # raised MeasurementError into a failed record instead of propagating.
        job = dataclasses.replace(small_grid.expand()[0], resolution=1)
        record = run_campaign_job(job)
        assert not record.success
        assert record.failure_category == "crash"
        assert "MeasurementError" in record.failure_reason

    def test_criterion_is_honoured(self, small_grid):
        job = small_grid.expand()[0]
        strict = run_campaign_job(
            job, criterion=SuccessCriterion(max_alpha_abs_error=1e-12,
                                            max_alpha_rel_error=1e-12)
        )
        lax = run_campaign_job(job)
        assert lax.success
        assert not strict.success
        assert strict.failure_category == "truth-mismatch"

    def test_baseline_method_runs(self, small_grid):
        job = dataclasses.replace(small_grid.expand()[0], method="baseline")
        record = run_campaign_job(job)
        # The Hough baseline scans the full grid.
        assert record.n_probes == 63 * 63
        assert record.method == "baseline"


class TestClassifyFailure:
    def test_success(self):
        assert classify_failure("", True, True) == "ok"

    def test_truth_mismatch(self):
        assert classify_failure("", True, False) == "truth-mismatch"

    @pytest.mark.parametrize(
        "reason, category",
        [
            ("transition-line fit did not converge: The maximum", "fit-divergence"),
            ("pipeline did not produce a fit", "no-fit"),
            ("fitted slopes must both be negative (device physics); got", "slope-sign"),
            ("fitted slopes are not finite", "non-finite-slopes"),
            ("steep slope magnitude 0.2 below the physical minimum", "slope-bounds"),
            ("alpha_12 = 1.9 outside [0, 1.5]", "alpha-range"),
            ("need at least 4 transition points to fit, got 2", "too-few-points"),
            ("no anchor found on the diagonal", "anchor-search"),
            ("probe budget of 100 points exhausted", "probe-budget"),
            ("something unheard of", "other"),
        ],
    )
    def test_taxonomy_rules(self, reason, category):
        assert classify_failure(reason, False, False) == category
