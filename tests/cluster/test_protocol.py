"""Protocol-level coordinator tests driven by scripted in-test workers.

Real workers live in subprocesses and race; these tests speak the wire
protocol from the test thread instead, so every scheduling decision the
coordinator makes — lease sizing, steal victims, death requeues, crash
conviction, duplicate dedup, cache-affine ordering — is observed frame by
frame, deterministically, with no process spawn cost.
"""

from __future__ import annotations

import json
import pickle
import socket
import struct
import threading
import time
from dataclasses import dataclass

import pytest

from record_samples import RECORDS, identical
from repro.cluster import worker as worker_module
from repro.cluster.coordinator import Coordinator
from repro.cluster.wire import (
    Heartbeat,
    Lease,
    Register,
    Result,
    Shutdown,
    Steal,
    Stolen,
    Task,
    Welcome,
    recv_message,
    send_message,
)
from repro.cluster.worker import worker_main
from repro.exceptions import ClusterProtocolError
from repro.execution import WorkerCrash


@dataclass(frozen=True)
class FakeJob:
    job_id: int
    key: str = ""


def echo_runner(job: FakeJob) -> str:
    """Picklable task body (scripted workers fabricate results instead)."""
    return f"record-{job.job_id}"


def slow_runner(job: FakeJob) -> str:
    """A job long enough to outlast the (monkeypatched) connect timeout."""
    time.sleep(0.6)
    return f"slow-{job.job_id}"


class UnpicklableError(RuntimeError):
    """An exception pickle refuses: its __dict__ holds a thread lock."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.lock = threading.Lock()


def unpicklable_raiser(job: FakeJob) -> str:
    raise UnpicklableError(f"boom-{job.job_id}")


def unpicklable_record(job: FakeJob) -> threading.Lock:
    """A runner that succeeds but returns a record pickle refuses."""
    return threading.Lock()


@dataclass(frozen=True)
class RecordJob:
    job_id: int
    kind: str


def sample_runner(job: RecordJob):
    """Returns the shared sample record of the job's kind."""
    return RECORDS[job.kind]


class _Harness:
    """Drives ``Coordinator.run`` on a thread and collects its yields."""

    def __init__(self, jobs, runner=echo_runner, **coordinator_kwargs):
        coordinator_kwargs.setdefault("heartbeat_s", 1.0)
        self.coordinator = Coordinator(**coordinator_kwargs)
        self.records: list = []
        self.error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._drain, args=(tuple(jobs), runner), daemon=True
        )
        self._thread.start()

    def _drain(self, jobs, runner):
        try:
            for pair in self.coordinator.run(jobs, runner):
                self.records.append(pair)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            self.error = exc

    def finish(self, timeout=10.0):
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "coordinator run did not finish"
        if self.error is not None:
            raise self.error
        return dict(self.records)

    def close(self):
        self.coordinator.close()
        self._thread.join(timeout=5.0)


class _ScriptedWorker:
    """A worker whose every frame the test sends by hand."""

    def __init__(self, address):
        self.sock = socket.create_connection(address)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def register(self) -> "_ScriptedWorker":
        send_message(self.sock, Register(pid=0, host="scripted"))
        welcome, _ = recv_message(self.sock)
        assert isinstance(welcome, Welcome)
        self.worker_id = welcome.worker_id
        task, blob = recv_message(self.sock)
        assert isinstance(task, Task)
        self.run_one = pickle.loads(blob)
        return self

    def expect_lease(self) -> tuple:
        message, payload = recv_message(self.sock)
        assert isinstance(message, Lease), f"expected lease, got {message}"
        jobs = pickle.loads(payload)
        assert tuple(job.job_id for job in jobs) == message.job_ids
        return jobs

    def expect_steal(self) -> Steal:
        message, _ = recv_message(self.sock)
        assert isinstance(message, Steal), f"expected steal, got {message}"
        return message

    def expect_shutdown(self) -> None:
        message, _ = recv_message(self.sock)
        assert isinstance(message, Shutdown), f"expected shutdown, got {message}"

    def drain_until_shutdown(self) -> None:
        """Answer end-game steal chatter (with refusals) until shutdown.

        Once both workers are draining, whichever finishes last may probe
        the other for work; the probe's timing depends on reader-thread
        interleaving, so tests past that point accept-and-refuse instead
        of asserting exact frames.
        """
        while True:
            try:
                message, _ = recv_message(self.sock)
            except (EOFError, OSError):
                return
            if isinstance(message, Shutdown):
                return
            if isinstance(message, Steal):
                try:
                    self.send_stolen(())
                except OSError:
                    return

    def send_result(self, job) -> None:
        send_message(
            self.sock, Result(job_id=job.job_id), pickle.dumps(self.run_one(job))
        )

    def send_stolen(self, job_ids) -> None:
        send_message(self.sock, Stolen(job_ids=tuple(job_ids)))

    def close(self) -> None:
        self.sock.close()


class _ThreadWorker:
    """A *real* worker (``worker_main``) run on a thread in this process.

    The scripted workers above fabricate frames; these tests need the
    genuine worker loop — its socket setup, executor, and crash shipping —
    against a real coordinator, without subprocess spawn cost.
    """

    def __init__(self, address, **kwargs):
        self._thread = threading.Thread(
            target=worker_main,
            args=(address[0], address[1]),
            kwargs=kwargs,
            daemon=True,
        )
        self._thread.start()

    def join(self, timeout=10.0):
        self._thread.join(timeout=timeout)
        assert not self._thread.is_alive(), "worker thread did not exit"


def _expected(jobs) -> dict:
    return {job.job_id: f"record-{job.job_id}" for job in jobs}


class TestLeaseGrowth:
    def test_fast_results_grow_the_lease(self):
        jobs = tuple(FakeJob(i) for i in range(12))
        harness = _Harness(jobs)
        try:
            worker = _ScriptedWorker(harness.coordinator.address).register()
            first = worker.expect_lease()
            # The adaptive policy starts conservative: one job to calibrate.
            assert [job.job_id for job in first] == [0]
            worker.send_result(first[0])
            second = worker.expect_lease()
            # A near-instant first lease drives the EWMA towards the cap;
            # the fair-share bound (one live worker) hands over the rest.
            assert [job.job_id for job in second] == list(range(1, 12))
            for job in second:
                worker.send_result(job)
            assert harness.finish() == _expected(jobs)
            worker.expect_shutdown()
            worker.close()
        finally:
            harness.close()
        stats = harness.coordinator.stats
        assert stats.n_workers == 1
        assert stats.n_leases == 2
        assert stats.n_worker_deaths == 0


class TestWorkStealing:
    def test_drained_worker_steals_half_the_victims_backlog(self):
        jobs = tuple(FakeJob(i) for i in range(12))
        harness = _Harness(jobs)
        try:
            victim = _ScriptedWorker(harness.coordinator.address).register()
            first = victim.expect_lease()
            victim.send_result(first[0])
            backlog = victim.expect_lease()  # jobs 1..11
            assert len(backlog) == 11

            thief = _ScriptedWorker(harness.coordinator.address).register()
            steal = victim.expect_steal()
            assert steal.max_jobs == 5  # half of 11, floor
            handed = backlog[-steal.max_jobs :]
            victim.send_stolen([job.job_id for job in handed])
            stolen_lease = thief.expect_lease()
            assert [j.job_id for j in stolen_lease] == [j.job_id for j in handed]

            for job in backlog[: -steal.max_jobs]:
                victim.send_result(job)
            for job in stolen_lease:
                thief.send_result(job)
            assert harness.finish() == _expected(jobs)
            victim.drain_until_shutdown()
            thief.drain_until_shutdown()
            victim.close()
            thief.close()
        finally:
            harness.close()
        stats = harness.coordinator.stats
        assert stats.n_steal_requests >= 1
        assert stats.n_stolen_jobs == 5
        assert stats.steal_latency_s > 0.0
        assert stats.n_worker_deaths == 0

    def test_steal_refusal_parks_the_thief_until_a_requeue(self):
        jobs = tuple(FakeJob(i) for i in range(3))
        harness = _Harness(jobs)
        try:
            victim = _ScriptedWorker(harness.coordinator.address).register()
            first = victim.expect_lease()
            victim.send_result(first[0])
            backlog = victim.expect_lease()  # jobs 1, 2
            thief = _ScriptedWorker(harness.coordinator.address).register()
            steal = victim.expect_steal()
            victim.send_stolen(())  # refuse: both jobs already started
            for job in backlog:
                victim.send_result(job)
            assert steal.max_jobs == 1
            assert harness.finish() == _expected(jobs)
            victim.drain_until_shutdown()
            thief.drain_until_shutdown()
            victim.close()
            thief.close()
        finally:
            harness.close()
        assert harness.coordinator.stats.n_stolen_jobs == 0


class TestDeathHandling:
    def test_dead_workers_jobs_requeue_as_solo_suspects(self):
        jobs = tuple(FakeJob(i) for i in range(3))
        harness = _Harness(jobs)
        try:
            first = _ScriptedWorker(harness.coordinator.address).register()
            lease = first.expect_lease()
            first.send_result(lease[0])
            first.expect_lease()  # jobs 1 and 2, never to be run
            first.close()  # hard death with two jobs outstanding

            second = _ScriptedWorker(harness.coordinator.address).register()
            # Requeued jobs are suspects: leased one at a time so a second
            # death can convict a single job.
            solo = second.expect_lease()
            assert [job.job_id for job in solo] == [1]
            second.send_result(solo[0])
            solo = second.expect_lease()
            assert [job.job_id for job in solo] == [2]
            second.send_result(solo[0])
            assert harness.finish() == _expected(jobs)
            second.expect_shutdown()
            second.close()
        finally:
            harness.close()
        stats = harness.coordinator.stats
        assert stats.n_worker_deaths == 1
        assert stats.n_requeued_jobs == 2
        assert stats.n_crash_markers == 0

    def test_second_death_on_a_suspect_convicts_it(self):
        jobs = tuple(FakeJob(i) for i in range(2))
        harness = _Harness(jobs)
        try:
            first = _ScriptedWorker(harness.coordinator.address).register()
            lease = first.expect_lease()
            first.send_result(lease[0])
            first.expect_lease()  # job 1
            first.close()  # death one: job 1 becomes a suspect

            second = _ScriptedWorker(harness.coordinator.address).register()
            solo = second.expect_lease()
            assert [job.job_id for job in solo] == [1]
            second.close()  # death two, holding only the suspect: convicted

            records = harness.finish()
        finally:
            harness.close()
        assert records[0] == "record-0"
        marker = records[1]
        assert isinstance(marker, WorkerCrash)
        assert marker.job_id == 1
        stats = harness.coordinator.stats
        assert stats.n_worker_deaths == 2
        assert stats.n_crash_markers == 1

    def test_duplicate_results_are_deduped(self):
        jobs = (FakeJob(0), FakeJob(1))
        harness = _Harness(jobs)
        try:
            worker = _ScriptedWorker(harness.coordinator.address).register()
            lease = worker.expect_lease()
            worker.send_result(lease[0])
            worker.send_result(lease[0])  # steal/re-lease race twin
            lease = worker.expect_lease()
            assert [job.job_id for job in lease] == [1]
            worker.send_result(lease[0])
            # A dedup failure would satisfy the yield count with the twin
            # and drop job 1; the exact dict is the proof it cannot.
            assert harness.finish() == _expected(jobs)
            worker.expect_shutdown()
            worker.close()
        finally:
            harness.close()


class TestCacheAffinity:
    def test_warm_keys_are_preferred_at_the_queue_front(self):
        jobs = (
            FakeJob(0, key="a"),
            FakeJob(1, key="b"),
            FakeJob(2, key="a"),
            FakeJob(3, key="b"),
            FakeJob(4, key="a"),
        )
        harness = _Harness(jobs, affinity=lambda job: job.key)
        try:
            worker = _ScriptedWorker(harness.coordinator.address).register()
            first = worker.expect_lease()
            assert [job.job_id for job in first] == [0]
            worker.send_result(first[0])  # worker is now warm for "a"
            second = worker.expect_lease()
            # Affine jobs 2 and 4 jump the queue; the rest fill head-first.
            assert [job.job_id for job in second] == [2, 4, 1, 3]
            for job in second:
                worker.send_result(job)
            assert harness.finish() == _expected(jobs)
            worker.expect_shutdown()
            worker.close()
        finally:
            harness.close()
        assert harness.coordinator.stats.n_affinity_hits == 2


class TestRegisterTimeout:
    def test_workerless_cluster_fails_loudly(self):
        harness = _Harness(
            (FakeJob(0),), heartbeat_s=0.05, register_timeout_s=0.2
        )
        with pytest.raises(ClusterProtocolError, match="no worker registered"):
            harness.finish(timeout=10.0)
        harness.close()


class TestStallTimeout:
    def test_emptied_cluster_fails_loudly(self):
        """All workers die, none reconnect: run() raises, never hangs."""
        jobs = tuple(FakeJob(i) for i in range(3))
        harness = _Harness(jobs, heartbeat_s=0.05, stall_timeout_s=0.3)
        worker = _ScriptedWorker(harness.coordinator.address).register()
        worker.expect_lease()
        worker.close()  # the only worker dies holding its lease
        with pytest.raises(ClusterProtocolError, match="cluster stalled"):
            harness.finish(timeout=10.0)
        harness.close()
        assert harness.coordinator.stats.n_worker_deaths == 1


class TestStrayPeers:
    def test_out_of_protocol_peers_are_dropped_not_fatal(self):
        """Unregistered nonsense closes that socket; the campaign lives.

        Two flavours: a well-formed frame of the wrong kind before
        register, and a correctly framed header that is not JSON at all
        (which must not silently kill the serve thread either).
        """
        jobs = (FakeJob(0), FakeJob(1))
        harness = _Harness(jobs)
        try:
            stray = socket.create_connection(harness.coordinator.address)
            stray.settimeout(5.0)
            send_message(
                stray, Heartbeat(worker_id=99, current_job=-1, n_queued=0)
            )
            garbage = socket.create_connection(harness.coordinator.address)
            garbage.settimeout(5.0)
            blob = b"\x00this is not json"
            garbage.sendall(struct.pack(">II", len(blob), 0) + blob)
            # The coordinator hangs up on both (recv sees EOF, not a reset
            # mid-campaign abort)...
            assert stray.recv(1) == b""
            assert garbage.recv(1) == b""
            stray.close()
            garbage.close()
            # ...and a real worker still runs the campaign to completion.
            worker = _ScriptedWorker(harness.coordinator.address).register()
            first = worker.expect_lease()
            worker.send_result(first[0])
            for job in worker.expect_lease():
                worker.send_result(job)
            assert harness.finish() == _expected(jobs)
            worker.expect_shutdown()
            worker.close()
        finally:
            harness.close()
        assert harness.coordinator.stats.n_rejected_peers == 2


class TestMalformedWorkerFrames:
    def test_wrong_typed_result_aborts_the_run(self):
        """A registered worker's ``Result`` with a string job id is refused.

        Regression: the frame used to decode as-is, so a one-job run
        finished as ``{"0": "record-0"}`` and job 0 never yielded under its
        own id.  A registered worker speaking out of protocol aborts the
        run, exactly as a frame missing a field does.
        """
        jobs = (FakeJob(0),)
        harness = _Harness(jobs)
        try:
            worker = _ScriptedWorker(harness.coordinator.address).register()
            (job,) = worker.expect_lease()
            header = json.dumps({"kind": "result", "job_id": "0"}).encode()
            payload = pickle.dumps(worker.run_one(job))
            worker.sock.sendall(
                struct.pack(">II", len(header), len(payload)) + header + payload
            )
            with pytest.raises(ClusterProtocolError, match="malformed 'result' frame"):
                harness.finish()
            assert harness.records == []
            worker.close()
        finally:
            harness.close()


class TestRealWorkerLoop:
    def test_job_longer_than_connect_timeout_is_not_convicted(self, monkeypatch):
        """The connect timeout must not linger on the session socket.

        Regression: ``create_connection(..., timeout=...)`` used to leave
        the timeout armed permanently, so any job outlasting it made the
        worker's blocking recv raise, drop the session, and re-register —
        churning healthy long jobs into false WorkerCrash convictions.
        Shrinking the attempt timeout under the job length reproduces the
        geometry without a five-second sleep in the suite.
        """
        monkeypatch.setattr(worker_module, "_CONNECT_ATTEMPT_TIMEOUT_S", 0.2)
        jobs = (FakeJob(0),)
        harness = _Harness(jobs, runner=slow_runner, heartbeat_s=0.05)
        try:
            worker = _ThreadWorker(harness.coordinator.address)
            assert harness.finish() == {0: "slow-0"}
            worker.join()
        finally:
            harness.close()
        stats = harness.coordinator.stats
        assert stats.n_worker_deaths == 0
        assert stats.n_crash_markers == 0
        assert stats.n_workers == 1  # no churned re-registrations either

    def test_unpicklable_exception_ships_as_surrogate(self):
        """A Crash whose exception refuses to pickle must still arrive."""
        jobs = (FakeJob(0),)
        harness = _Harness(jobs, runner=unpicklable_raiser, heartbeat_s=0.05)
        worker = _ThreadWorker(harness.coordinator.address)
        with pytest.raises(RuntimeError, match="UnpicklableError: boom-0"):
            harness.finish()
        harness.close()
        worker.join()

    def test_unpicklable_record_aborts_instead_of_hanging(self):
        """A record pickle refuses ships as a Crash, like a raising runner.

        Regression: the worker used to encode the record outside the
        ``try`` that turns runner failures into Crash frames, so the
        encoding error killed the executor thread while the heartbeats
        kept beating, and the submission never returned.
        """
        jobs = (FakeJob(0),)
        harness = _Harness(jobs, runner=unpicklable_record, heartbeat_s=0.05)
        worker = _ThreadWorker(harness.coordinator.address)
        with pytest.raises(TypeError, match="pickle"):
            harness.finish()
        harness.close()
        worker.join()

    @pytest.mark.parametrize("kind", RECORDS)
    def test_record_crosses_the_wire_exactly(self, kind):
        """A record pickled into a Result frame arrives value-, type- and layout-exact."""
        jobs = (RecordJob(job_id=0, kind=kind), RecordJob(job_id=1, kind=kind))
        harness = _Harness(jobs, runner=sample_runner, heartbeat_s=0.05)
        try:
            worker = _ThreadWorker(harness.coordinator.address)
            records = harness.finish()
            worker.join()
        finally:
            harness.close()
        assert sorted(records) == [0, 1]
        for record in records.values():
            assert identical(record, RECORDS[kind])
