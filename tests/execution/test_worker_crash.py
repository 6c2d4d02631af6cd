"""Tests for worker-death recovery: hard crashes, markers, crash injection."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, wait
from dataclasses import dataclass

import pytest

from repro.exceptions import WorkerCrashError
from repro.execution import ProcessPoolBackend, WorkerCrash, backends, crash_message
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
        records = dict(ProcessPoolBackend(max_workers=2).submit(jobs, crashy_runner))
        assert records[0] == WorkerCrash(job_id=0)
        for job in jobs[1:]:
            assert records[job.job_id] == f"record-{job.job_id}"


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
