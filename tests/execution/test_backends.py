"""Tests for the execution backends: streaming, determinism, chunking."""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.execution import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    backend_from_spec,
    backend_names,
    register_backend,
)
from repro.execution import backends
from repro.execution.backends import CHUNK_CAP


@dataclass(frozen=True)
class FakeJob:
    """Minimal schedulable job: an id plus a simulated cost in seconds."""

    job_id: int
    cost: float = 0.0
    marker_dir: str = ""


def marker_runner(job: FakeJob) -> int:
    """Touches a per-job marker file so tests can count cross-process runs."""
    time.sleep(job.cost)
    (Path(job.marker_dir) / str(job.job_id)).touch()
    return job.job_id


def echo_runner(job: FakeJob) -> str:
    """Module-level (hence picklable) runner with a deterministic record."""
    return f"record-{job.job_id}"


def sleepy_runner(job: FakeJob) -> int:
    """Runner whose wall time is the job's declared cost."""
    time.sleep(job.cost)
    return job.job_id * 10


def raising_runner(job: FakeJob) -> str:
    raise RuntimeError(f"boom on {job.job_id}")


JOBS = tuple(FakeJob(job_id=i) for i in range(16))

# 16 jobs ship in 1-job chunks on 4 workers and in 2-job chunks on 2.
ALL_BACKENDS = [
    SerialBackend(),
    ProcessPoolBackend(max_workers=4),
    ProcessPoolBackend(max_workers=2),
]


@pytest.mark.parametrize("backend", ALL_BACKENDS, ids=lambda b: f"{b.name}")
class TestStreamingContract:
    def test_yields_every_job_exactly_once(self, backend):
        pairs = list(backend.submit(JOBS, echo_runner))
        assert sorted(job_id for job_id, _ in pairs) == [j.job_id for j in JOBS]

    def test_records_are_deterministic(self, backend):
        first = dict(backend.submit(JOBS, echo_runner))
        second = dict(backend.submit(JOBS, echo_runner))
        assert first == second == {j.job_id: f"record-{j.job_id}" for j in JOBS}

    def test_empty_job_list(self, backend):
        assert list(backend.submit((), echo_runner)) == []

    def test_single_job(self, backend):
        assert list(backend.submit((FakeJob(7),), echo_runner)) == [(7, "record-7")]

    def test_runner_exception_propagates(self, backend):
        # Fault isolation is the RunController's job, not the backend's.
        with pytest.raises(Exception):
            list(backend.submit(JOBS, raising_runner))


class TestSerialBackend:
    def test_yields_in_submission_order(self):
        pairs = list(SerialBackend().submit(JOBS, echo_runner))
        assert [job_id for job_id, _ in pairs] == [j.job_id for j in JOBS]

    def test_streams_lazily(self):
        # Pull one record without running the rest: streaming, not batching.
        seen = []

        def recording_runner(job):
            seen.append(job.job_id)
            return job.job_id

        stream = SerialBackend().submit(JOBS, recording_runner)
        next(stream)
        assert seen == [0]


class InlineExecutor:
    """Stands in for the process pool: runs each chunk at submit, noting its size."""

    def __init__(self) -> None:
        self.chunk_sizes: list[int] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def submit(self, fn, run_one, chunk):
        self.chunk_sizes.append(len(chunk))
        future = Future()
        future.set_result(fn(run_one, chunk))
        return future


class TestProcessPoolBackend:
    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(max_workers=0)

    @pytest.mark.parametrize(
        ("n_jobs", "max_workers", "chunk"),
        [
            # Uncapped, len // (4 * workers) would ship 125-job chunks
            # here, starving the pool tail on mixed-cost grids.
            (1000, 2, CHUNK_CAP),
            (16, 2, 2),
            (24, 2, 3),
            # Small grids dispatch one job at a time.
            (10, 2, 1),
            (1, 2, 1),
            # The pool clamps to the job count before sizing chunks.
            (3, 8, 1),
        ],
    )
    def test_default_chunk_is_capped(self, monkeypatch, n_jobs, max_workers, chunk):
        pool = InlineExecutor()
        monkeypatch.setattr(backends, "ProcessPoolExecutor", lambda max_workers: pool)
        jobs = tuple(FakeJob(i) for i in range(n_jobs))
        records = dict(ProcessPoolBackend(max_workers).submit(jobs, echo_runner))
        assert sorted(records) == list(range(n_jobs))
        assert pool.chunk_sizes == [
            min(chunk, n_jobs - start) for start in range(0, n_jobs, chunk)
        ]

    def test_mixed_cost_grid_streams_past_a_slow_job(self):
        # One expensive job up front plus a tail of cheap ones: with the
        # old blocking pool.map nothing would be yielded until the slow
        # chunk finished; the streaming backend hands back cheap records
        # while the expensive job still runs, keeping the pool busy.
        jobs = (FakeJob(0, cost=0.6),) + tuple(
            FakeJob(i, cost=0.01) for i in range(1, 9)
        )
        backend = ProcessPoolBackend(max_workers=2)
        order = [job_id for job_id, _ in backend.submit(jobs, sleepy_runner)]
        assert sorted(order) == list(range(9))
        assert order[0] != 0
        assert order.index(0) >= 4

    def test_abandoned_stream_cancels_pending_chunks(self, tmp_path):
        # An interrupting consumer (a progress hook raising) must not sit
        # through the whole remaining grid: unstarted chunks are cancelled,
        # so only the chunk(s) already running can still execute.
        # 7 jobs on one worker ship one job per chunk.
        jobs = tuple(
            FakeJob(i, cost=0.05, marker_dir=str(tmp_path)) for i in range(7)
        )
        stream = ProcessPoolBackend(max_workers=1).submit(jobs, marker_runner)
        next(stream)
        stream.close()
        ran = len(list(tmp_path.iterdir()))
        assert ran < len(jobs)


class TestBackendRegistry:
    def test_stock_backends_registered(self):
        assert backend_names() == ("cluster", "process", "serial")

    def test_instance_passes_through(self):
        backend = ProcessPoolBackend(max_workers=2)
        assert backend_from_spec(backend) is backend

    def test_unknown_name_rejected_with_catalogue(self):
        with pytest.raises(ConfigurationError, match="serial"):
            backend_from_spec("quantum-teleport")

    def test_custom_backend_registers(self):
        class NullBackend(ExecutionBackend):
            name = "null"

            def submit(self, jobs, run_one):
                return iter(())

        register_backend("null", lambda arg: NullBackend())
        try:
            assert isinstance(backend_from_spec("null"), NullBackend)
            assert NullBackend().max_workers == 1
        finally:
            from repro.execution.base import BACKENDS

            BACKENDS.unregister("null")
