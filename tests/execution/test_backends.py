"""Tests for the execution backends: streaming, determinism, chunking."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.execution import (
    DEFAULT_CHUNK_CAP,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    backend_from_spec,
    backend_names,
    register_backend,
)


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


JOBS = tuple(FakeJob(job_id=i) for i in range(10))

ALL_BACKENDS = [
    SerialBackend(),
    ProcessPoolBackend(max_workers=2),
    ProcessPoolBackend(max_workers=3, chunk_size=2),
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


class TestProcessPoolBackend:
    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(max_workers=0)
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(max_workers=2, chunk_size=0)

    def test_default_chunk_is_capped(self):
        backend = ProcessPoolBackend(max_workers=2)
        # The old campaign default (len // (4 * workers)) would ship
        # 125-job chunks here, starving the pool tail on mixed-cost grids.
        assert 1000 // (4 * 2) == 125
        assert backend.effective_chunk_size(1000) == DEFAULT_CHUNK_CAP
        # Small grids keep the fine-grained old behaviour.
        assert backend.effective_chunk_size(10) == 1
        assert backend.effective_chunk_size(0) == 1

    def test_explicit_chunk_wins(self):
        assert ProcessPoolBackend(2, chunk_size=17).effective_chunk_size(1000) == 17

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
        jobs = tuple(
            FakeJob(i, cost=0.05, marker_dir=str(tmp_path)) for i in range(8)
        )
        stream = ProcessPoolBackend(max_workers=1, chunk_size=1).submit(
            jobs, marker_runner
        )
        next(stream)
        stream.close()
        ran = len(list(tmp_path.iterdir()))
        assert ran < len(jobs)


class TestBackendRegistry:
    def test_stock_backends_registered(self):
        assert backend_names() == ("cluster", "process", "serial")

    def test_auto_spec_follows_worker_count(self):
        assert isinstance(backend_from_spec(None, n_workers=1), SerialBackend)
        auto = backend_from_spec(None, n_workers=3, chunk_size=5)
        assert isinstance(auto, ProcessPoolBackend)
        assert auto.max_workers == 3
        assert auto.effective_chunk_size(100) == 5

    def test_name_spec(self):
        assert isinstance(backend_from_spec("serial", n_workers=4), SerialBackend)
        process = backend_from_spec("process", n_workers=4)
        assert isinstance(process, ProcessPoolBackend)
        assert process.max_workers == 4

    def test_instance_passes_through(self):
        backend = ProcessPoolBackend(max_workers=2)
        assert backend_from_spec(backend, n_workers=99) is backend

    def test_unknown_name_rejected_with_catalogue(self):
        with pytest.raises(ConfigurationError, match="serial"):
            backend_from_spec("quantum-teleport")

    def test_custom_backend_registers(self):
        class NullBackend(ExecutionBackend):
            name = "null"

            def submit(self, jobs, run_one):
                return iter(())

        register_backend("null", lambda n_workers, chunk_size: NullBackend())
        try:
            assert isinstance(backend_from_spec("null"), NullBackend)
        finally:
            from repro.execution.base import _BACKEND_FACTORIES

            _BACKEND_FACTORIES.pop("null", None)
