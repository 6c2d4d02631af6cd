"""Tests for ClusterBackend with real spawn-start worker subprocesses."""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass

import pytest

from repro.cluster import ClusterBackend, ClusterStats
from repro.exceptions import ConfigurationError
from repro.execution import (
    SerialBackend,
    WorkerCrash,
    crash_message,
)


@dataclass(frozen=True)
class FakeJob:
    """Picklable job: an id, a simulated cost, an optional hard death."""

    job_id: int
    cost: float = 0.0
    lethal: bool = False


def echo_runner(job: FakeJob) -> str:
    if job.cost:
        time.sleep(job.cost)
    return f"record-{job.job_id}"


def crashy_runner(job: FakeJob) -> str:
    if job.lethal:
        os._exit(1)  # hard death: no exception, no frame, just a dead socket
    return f"record-{job.job_id}"


def raising_runner(job: FakeJob) -> str:
    raise RuntimeError(f"boom on {job.job_id}")


JOBS = tuple(FakeJob(job_id=i) for i in range(20))
EXPECTED = {job.job_id: f"record-{job.job_id}" for job in JOBS}


class TestStreamingContract:
    def test_two_workers_yield_every_job_exactly_once(self):
        backend = ClusterBackend(n_workers=2)
        assert dict(backend.submit(JOBS, echo_runner)) == EXPECTED
        stats = backend.last_stats
        assert isinstance(stats, ClusterStats)
        assert stats.n_leases >= 1
        assert stats.n_worker_deaths == 0

    def test_single_worker_matches_serial(self):
        serial = dict(SerialBackend().submit(JOBS, echo_runner))
        cluster = dict(ClusterBackend(n_workers=1).submit(JOBS, echo_runner))
        assert cluster == serial

    def test_empty_job_list_spawns_nothing(self):
        backend = ClusterBackend(n_workers=2)
        assert list(backend.submit((), echo_runner)) == []
        assert backend.last_stats is None  # no coordinator was ever built

    def test_runner_exception_propagates(self):
        backend = ClusterBackend(n_workers=1)
        with pytest.raises(RuntimeError, match="boom on"):
            list(backend.submit(JOBS, raising_runner))

    def test_back_to_back_submissions_reuse_the_backend(self):
        backend = ClusterBackend(n_workers=1)
        first = dict(backend.submit(JOBS[:4], echo_runner))
        second = dict(backend.submit(JOBS[:4], echo_runner))
        assert first == second == {i: f"record-{i}" for i in range(4)}


class TestCrashCondensation:
    def test_hard_death_condenses_to_the_canonical_marker(self):
        jobs = tuple(
            FakeJob(job_id=i, lethal=(i == 4)) for i in range(12)
        )
        backend = ClusterBackend(n_workers=2)
        records = dict(backend.submit(jobs, crashy_runner))
        assert set(records) == {job.job_id for job in jobs}
        marker = records[4]
        assert isinstance(marker, WorkerCrash)
        assert marker.job_id == 4
        assert marker.message == crash_message(4)
        for job in jobs:
            if not job.lethal:
                assert records[job.job_id] == f"record-{job.job_id}"
        stats = backend.last_stats
        # Conviction takes two deaths: one to suspect the job's whole
        # lease, one more while holding the suspect alone.
        assert stats.n_worker_deaths >= 2
        assert stats.n_crash_markers == 1


class TestHeartbeatDeath:
    def test_muted_worker_is_declared_dead_and_its_lease_rescued(self):
        # The muted worker stops heartbeating after its first result but
        # keeps holding its lease; job costs exceed the death timeout, so
        # only the monitor's missed-beat path can reclaim those jobs.
        jobs = tuple(FakeJob(job_id=i, cost=0.3) for i in range(8))
        backend = ClusterBackend(n_workers=2, heartbeat_s=0.05)
        backend._mute_first_worker_after = 1
        records = dict(backend.submit(jobs, echo_runner))
        assert records == {job.job_id: f"record-{job.job_id}" for job in jobs}
        assert backend.last_stats.n_worker_deaths >= 1
        assert backend.last_stats.n_crash_markers == 0


class TestConfiguration:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"port": 7077},  # port without host
            {"host": "0.0.0.0"},  # host without port
            {"host": "0.0.0.0", "port": 7077, "n_workers": 2},
            {"heartbeat_s": 0.0},
            {"register_timeout_s": 0.0},
            {"stall_timeout_s": 0.0},
            # NaN would hang or silently disable each knob; an infinite
            # heartbeat is a sleep that never ends.
            pytest.param({"heartbeat_s": float("nan")}, id="heartbeat_s=nan"),
            pytest.param({"heartbeat_s": float("inf")}, id="heartbeat_s=inf"),
            pytest.param(
                {"register_timeout_s": float("nan")}, id="register_timeout_s=nan"
            ),
            pytest.param({"stall_timeout_s": float("nan")}, id="stall_timeout_s=nan"),
        ],
        ids=lambda kw: ",".join(kw),
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClusterBackend(**kwargs)

    def test_local_mode_defaults(self):
        backend = ClusterBackend()
        assert backend.name == "cluster"
        assert backend.max_workers == 2
        assert backend.last_stats is None

    def test_listen_mode_reports_remote_worker_count(self):
        backend = ClusterBackend(host="0.0.0.0", port=7077)
        assert backend.max_workers == 1

    def test_infinite_timeouts_mean_no_limit(self):
        backend = ClusterBackend(
            register_timeout_s=float("inf"), stall_timeout_s=float("inf")
        )
        assert "register_timeout_s=inf" in repr(backend)
        assert "stall_timeout_s=inf" in repr(backend)

    def test_backend_is_picklable_at_rest(self):
        backend = ClusterBackend(n_workers=3, heartbeat_s=0.1)
        restored = pickle.loads(pickle.dumps(backend))
        assert repr(restored) == repr(backend)
        assert "0x" not in repr(backend)
