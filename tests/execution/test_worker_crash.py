"""Tests for worker-death recovery: hard crashes, markers, crash injection."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass

import pytest

from repro.exceptions import ConfigurationError, WorkerCrashError
from repro.execution import backends
from repro.execution import (
    ProcessPoolBackend,
    RetryPolicy,
    RunController,
    SerialBackend,
    WorkerCrash,
    crash_message,
)
from repro.faults import WorkerCrashFault, inject_worker_faults


@dataclass(frozen=True)
class CrashyJob:
    """Picklable job that hard-kills its worker when ``lethal`` is set."""

    job_id: int
    lethal: bool = False


def crashy_runner(job: CrashyJob) -> str:
    if job.lethal:
        os._exit(1)  # hard death: no exception, no cleanup, no record
    return f"record-{job.job_id}"


def failure_record(job: CrashyJob, error: BaseException) -> str:
    return f"error-{job.job_id}:{error}"


# 16 jobs on two workers ship in 2-job chunks (``n_jobs // 8``), so the
# crashed job always takes a chunk-mate down with it.
JOBS = tuple(CrashyJob(job_id=i, lethal=(i == 4)) for i in range(16))


class TestProcessPoolCrashRecovery:
    def test_survivors_all_stream_despite_hard_crash(self):
        backend = ProcessPoolBackend(max_workers=2)
        records = dict(backend.submit(JOBS, crashy_runner))
        assert set(records) == {job.job_id for job in JOBS}
        for job in JOBS:
            if job.lethal:
                continue
            assert records[job.job_id] == f"record-{job.job_id}"

    def test_crashed_job_yields_a_marker_not_an_exception(self):
        backend = ProcessPoolBackend(max_workers=2)
        records = dict(backend.submit(JOBS, crashy_runner))
        marker = records[4]
        assert isinstance(marker, WorkerCrash)
        assert marker.job_id == 4
        assert marker.message == crash_message(4)

    def test_multiple_crashes_are_each_attributed(self):
        # 24 jobs: 3-job chunks.
        jobs = tuple(CrashyJob(job_id=i, lethal=i in (1, 5)) for i in range(24))
        backend = ProcessPoolBackend(max_workers=2)
        records = dict(backend.submit(jobs, crashy_runner))
        assert isinstance(records[1], WorkerCrash)
        assert isinstance(records[5], WorkerCrash)
        assert records[6] == "record-6"

    def test_worker_death_while_chunks_are_still_queueing(self, monkeypatch):
        # A broken pool refuses new chunks: ``submit`` itself raises
        # BrokenProcessPool.  The pool below holds its second submit until
        # the first chunk's worker has died, so the break always lands
        # while chunks are still being queued, as it can on a big grid.
        class DyingWhileQueueingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.submitted = []

            def submit(self, *args, **kwargs):
                if len(self.submitted) == 1:
                    done, _ = wait(self.submitted, timeout=60)
                    assert done, "the first chunk's worker never died"
                future = super().submit(*args, **kwargs)
                self.submitted.append(future)
                return future

        monkeypatch.setattr(backends, "ProcessPoolExecutor", DyingWhileQueueingPool)
        jobs = tuple(CrashyJob(job_id=i, lethal=(i == 0)) for i in range(16))
        records = RunController(ProcessPoolBackend(max_workers=2)).run(
            jobs, crashy_runner, on_error=failure_record
        )
        assert records[0] == f"error-0:{crash_message(0)}"
        for job in jobs[1:]:
            assert records[job.job_id] == f"record-{job.job_id}"


class TestControllerCrashConversion:
    def test_marker_converted_through_on_error(self):
        controller = RunController(ProcessPoolBackend(max_workers=2))
        records = controller.run(JOBS, crashy_runner, on_error=failure_record)
        assert records[4] == f"error-4:{crash_message(4)}"
        assert records[0] == "record-0"

    def test_marker_raises_without_on_error(self):
        controller = RunController(ProcessPoolBackend(max_workers=2))
        with pytest.raises(WorkerCrashError, match="job 4"):
            controller.run(JOBS, crashy_runner)


class TestRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backoff_s": -1.0},
            {"max_elapsed_s": -0.5},
            # An infinite backoff is a sleep that never ends; NaN would
            # silently mean no backoff and no budget.
            {"max_attempts": 3, "backoff_s": float("inf")},
            {"backoff_s": float("nan")},
            {"max_elapsed_s": float("nan")},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_defaults_do_not_wait(self):
        policy = RetryPolicy()
        assert policy.backoff_s == 0.0
        assert policy.max_elapsed_s == 0.0

    def test_backoff_waits_between_attempts(self):
        calls: list[float] = []

        def flaky(job):
            calls.append(time.monotonic())
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "ok"

        controller = RunController(
            SerialBackend(), retry=RetryPolicy(max_attempts=3, backoff_s=0.05)
        )
        records = controller.run((CrashyJob(0),), flaky)
        assert records[0] == "ok"
        # Doubling backoff: >=0.05s then >=0.1s between the attempts.
        assert calls[1] - calls[0] >= 0.05
        assert calls[2] - calls[1] >= 0.1

    def test_max_elapsed_cuts_the_retry_budget(self):
        attempts: list[int] = []

        def always_fails(job):
            attempts.append(len(attempts))
            time.sleep(0.05)
            raise RuntimeError("permanent")

        controller = RunController(
            SerialBackend(),
            retry=RetryPolicy(max_attempts=50, max_elapsed_s=0.1),
        )
        records = controller.run(
            (CrashyJob(0),), always_fails, on_error=failure_record
        )
        assert records[0].startswith("error-0:")
        assert len(attempts) < 50

    def test_infinite_budget_means_no_limit(self):
        attempts: list[int] = []

        def always_fails(job):
            attempts.append(len(attempts))
            raise RuntimeError("permanent")

        controller = RunController(
            SerialBackend(),
            retry=RetryPolicy(max_attempts=3, max_elapsed_s=float("inf")),
        )
        records = controller.run(
            (CrashyJob(0),), always_fails, on_error=failure_record
        )
        assert records[0].startswith("error-0:")
        assert len(attempts) == 3


class TestInProcessCrashInjection:
    def test_no_worker_models_is_a_no_op(self):
        inject_worker_faults(0, (), seed=7)  # must not raise

    def test_surviving_job_returns_normally(self):
        model = WorkerCrashFault(rate=0.3)
        survivors = [
            job_id
            for job_id in range(32)
            if not _crashes_in_process(job_id, model, seed=7)
        ]
        assert survivors  # rate 0.3 leaves most jobs alive

    def test_crash_raises_canonical_message_in_process(self):
        model = WorkerCrashFault(rate=1.0)
        with pytest.raises(WorkerCrashError) as err:
            inject_worker_faults(11, (model,), seed=7)
        assert str(err.value) == crash_message(11)

    def test_crash_decision_is_seed_deterministic(self):
        model = WorkerCrashFault(rate=0.5)
        first = [_crashes_in_process(j, model, seed=3) for j in range(32)]
        second = [_crashes_in_process(j, model, seed=3) for j in range(32)]
        other = [_crashes_in_process(j, model, seed=4) for j in range(32)]
        assert first == second
        assert first != other
        assert any(first) and not all(first)


def _crashes_in_process(job_id, model, seed) -> bool:
    try:
        inject_worker_faults(job_id, (model,), seed=seed)
    except WorkerCrashError:
        return True
    return False
