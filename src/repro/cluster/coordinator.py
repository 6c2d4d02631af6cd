"""The cluster coordinator: lease, steal, detect death, stay bit-identical.

One :class:`Coordinator` drives one submission.  It owns the job list and
the authoritative done-set; workers own nothing but the chunk they were
most recently leased.  The scheduling loop is event-driven off the wire:

* **registration** — a connecting worker is welcomed, handed the pickled
  ``run_one`` once, and immediately granted a lease;
* **leasing** — chunks are sized by :func:`lease_size` (observed per-job
  wall time targets a fixed lease duration) and filled cache-affine: jobs
  whose affinity key the worker has already served are preferred, so
  repeated kernels rasterise where they are already cached;
* **work stealing** — a worker that drains while the pending queue is
  empty triggers a steal from the most-loaded peer, which hands back the
  unstarted half of its lease;
* **death** — missed heartbeats or connection loss declare a worker dead.
  Its outstanding jobs are re-leased *one per lease* as suspects; a worker
  that dies holding a single suspect job convicts it, and the job condenses
  into the canonical :class:`~repro.execution.base.WorkerCrash` marker —
  exactly the process pool's rescue semantics, so
  :class:`~repro.execution.controller.RunController` and checkpoint
  journals need no cluster-specific handling.

Determinism: the coordinator never reorders, drops, or duplicates job ids
(the done-set dedups steal/re-lease races), and jobs carry their seeds, so
records are bit-identical to :class:`~repro.execution.backends.SerialBackend`
at any worker count and under any interleaving of deaths and steals.
"""

from __future__ import annotations

import pickle
import queue
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..exceptions import ClusterProtocolError
from ..execution.base import SupportsJobId, WorkerCrash
from ..strictjson import record
from .wire import (
    Crash,
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

__all__ = [
    "ClusterStats",
    "Coordinator",
    "DEFAULT_HEARTBEAT_S",
    "LEASE_MAX_JOBS",
    "LEASE_SMOOTHING",
    "LEASE_TARGET_S",
    "lease_size",
    "observe_lease",
]

#: Default worker heartbeat period.  Death is declared after
#: ``HEARTBEAT_TIMEOUT_FACTOR`` missed beats, so detection latency is
#: about one second at the default — fast enough for tests and chaos
#: drills, slow enough that a GC pause never convicts a healthy worker.
DEFAULT_HEARTBEAT_S = 0.2

#: Missed-beat multiplier before a silent worker is declared dead.
HEARTBEAT_TIMEOUT_FACTOR = 5.0

#: How many queue-front jobs a lease may scan for cache-affine matches.
_AFFINITY_WINDOW = 64

#: Wall seconds one lease should keep a worker busy: short enough that
#: stealing and re-leasing stay responsive, long enough to amortise the
#: round trip.  Cheap jobs travel in big leases, expensive ones alone.
LEASE_TARGET_S = 0.25

#: Ceiling on the jobs one lease carries.
LEASE_MAX_JOBS = 64

#: Weight of the newest observation in the per-job wall-time average.
LEASE_SMOOTHING = 0.5


def observe_lease(
    per_job_s: float | None, n_jobs: int, elapsed_s: float
) -> float | None:
    """Fold one finished lease (``n_jobs`` over ``elapsed_s``) into the average.

    ``per_job_s`` is the moving average so far, ``None`` before any
    observation.  Non-positive observations are ignored rather than folded
    in as zero: a sub-resolution timer reading would otherwise drive the
    estimate to "jobs are free" and the lease size to its ceiling.
    """
    if n_jobs < 1 or elapsed_s <= 0:
        return per_job_s
    observed = elapsed_s / n_jobs
    if per_job_s is None:
        return observed
    return per_job_s + LEASE_SMOOTHING * (observed - per_job_s)


def lease_size(per_job_s: float | None) -> int:
    """Jobs the next lease should carry: ``LEASE_TARGET_S`` of work, clamped.

    One job before the first observation — nothing is known yet, and a
    wrong big first lease starves the tail.  Sizing decides only how many
    jobs travel per lease, never which or with what seeds, so records are
    bit-identical under any sequence of observations.
    """
    if per_job_s is None:
        return 1
    return max(1, min(LEASE_MAX_JOBS, int(LEASE_TARGET_S / per_job_s)))


@record
@dataclass(frozen=True)
class ClusterStats:
    """Counters from one coordinator run (see ``Coordinator.stats``)."""

    #: Distinct worker registrations observed (re-registrations count).
    n_workers: int = 0
    n_leases: int = 0
    n_steal_requests: int = 0
    n_stolen_jobs: int = 0
    n_worker_deaths: int = 0
    #: Jobs re-leased because their worker died mid-lease.
    n_requeued_jobs: int = 0
    #: Jobs condensed to :class:`~repro.execution.base.WorkerCrash` markers.
    n_crash_markers: int = 0
    #: Leased jobs that matched their worker's warm affinity set.
    n_affinity_hits: int = 0
    #: Connections dropped for speaking out of protocol before registering
    #: (stray clients, port scanners, a second campaign's workers).
    n_rejected_peers: int = 0
    #: Mean seconds from steal request to the stolen jobs being re-leased.
    steal_latency_s: float = 0.0


class _WorkerState:
    """Coordinator-side view of one live worker connection."""

    def __init__(self, worker_id: int, conn: socket.socket) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.send_lock = threading.Lock()
        self.last_seen = time.monotonic()
        self.outstanding: set[int] = set()
        self.warm: set[str] = set()
        self.lease_started = 0.0
        self.lease_size = 0
        #: ``(thief_id, requested_at)`` while a Steal is in flight to us.
        self.steal_pending: tuple[int, float] | None = None

    def send(self, message, payload: bytes = b"") -> None:
        with self.send_lock:
            send_message(self.conn, message, payload)


class Coordinator:
    """Serve one job batch to TCP workers; see the module docstring.

    Parameters
    ----------
    host / port:
        Listen address.  Port ``0`` (the default) binds an ephemeral port;
        the actual address is available as :attr:`address` immediately
        after construction, before any worker exists.
    heartbeat_s:
        Heartbeat period pushed to workers in their ``Welcome``.
    affinity:
        Optional ``job -> str | None`` giving a job's cache-affinity key
        (e.g. :func:`repro.cluster.backend.job_affinity`).  ``None``
        disables affine placement.
    register_timeout_s:
        Seconds :meth:`run` waits for the *first* worker before raising
        :class:`~repro.exceptions.ClusterProtocolError` — a cluster nobody
        joins should fail loudly, not hang.
    stall_timeout_s:
        Seconds :meth:`run` tolerates a cluster that *had* workers but has
        none left (every worker died and none reconnected) while jobs are
        still unfinished, before raising
        :class:`~repro.exceptions.ClusterProtocolError` instead of blocking
        forever.  Generous by default: local clusters respawn workers and
        remote fleets reconnect, so only a permanently emptied cluster
        trips it.

    .. warning::
       The data plane trusts its peers: workers unpickle the ``Task``
       callable from the coordinator, and the coordinator unpickles
       ``Result`` and ``Crash`` payloads from registered workers — pickle
       is arbitrary code execution for whoever you connect to.  Only bind
       non-loopback addresses (and only point workers at coordinators) on
       networks where every reachable host is trusted.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        affinity: Callable[[Any], str | None] | None = None,
        register_timeout_s: float = 60.0,
        stall_timeout_s: float = 300.0,
    ) -> None:
        self._heartbeat_s = float(heartbeat_s)
        # Moving average of per-job wall seconds (see observe_lease).
        self._per_job_s: float | None = None
        self._affinity = affinity
        self._register_timeout_s = float(register_timeout_s)
        self._stall_timeout_s = float(stall_timeout_s)
        self._last_worker_alive = time.monotonic()
        self._listener = socket.create_server((host, int(port)))
        self._lock = threading.RLock()
        self._out: queue.Queue = queue.Queue()
        self._workers: dict[int, _WorkerState] = {}
        self._hungry: set[int] = set()
        self._by_id: dict[int, SupportsJobId] = {}
        self._pending: list[int] = []
        self._done: set[int] = set()
        self._suspects: set[int] = set()
        self._task_blob = b""
        self._next_worker_id = 0
        self._closing = False
        self._ever_registered = False
        self._steal_latencies: list[float] = []
        self._counts = {
            "n_workers": 0,
            "n_leases": 0,
            "n_steal_requests": 0,
            "n_stolen_jobs": 0,
            "n_worker_deaths": 0,
            "n_requeued_jobs": 0,
            "n_crash_markers": 0,
            "n_affinity_hits": 0,
            "n_rejected_peers": 0,
        }

    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` workers should connect to."""
        name = self._listener.getsockname()
        return name[0], name[1]

    @property
    def stats(self) -> ClusterStats:
        """Scheduling counters accumulated so far."""
        latencies = self._steal_latencies
        return ClusterStats(
            steal_latency_s=sum(latencies) / len(latencies) if latencies else 0.0,
            **self._counts,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        jobs: tuple[SupportsJobId, ...],
        run_one: Callable[[Any], Any],
    ) -> Iterator[tuple[int, Any]]:
        """Serve the batch; yield ``(job_id, record)`` in completion order.

        Worker deaths surface as :class:`~repro.execution.base.WorkerCrash`
        records only after the suspect re-lease pass convicts a job; an
        in-protocol :class:`~repro.cluster.wire.Crash` (``run_one`` raised)
        re-raises the worker's exception here, per the backend contract.
        """
        with self._lock:
            self._by_id = {job.job_id: job for job in jobs}
            self._pending = [job.job_id for job in jobs]
            self._task_blob = pickle.dumps(run_one)
        threading.Thread(target=self._accept_loop, daemon=True).start()
        threading.Thread(target=self._monitor_loop, daemon=True).start()
        started = time.monotonic()
        yielded = 0
        try:
            while yielded < len(jobs):
                try:
                    event = self._out.get(timeout=self._heartbeat_s)
                except queue.Empty:
                    self._check_liveness(started, len(jobs) - yielded)
                    continue
                # Every event is a worker speaking: the stall clock resets.
                self._last_worker_alive = time.monotonic()
                if event[0] == "record":
                    _, job_id, record = event
                    yielded += 1
                    yield job_id, record
                else:
                    raise event[1]
        finally:
            self.close()

    def _check_liveness(self, started: float, n_unfinished: int) -> None:
        """Fail loudly when nobody is (or ever was) serving the batch.

        Called from :meth:`run` whenever a heartbeat interval passes with
        no event: before the first registration the register timeout
        governs; afterwards, a cluster whose last worker died without
        replacement for ``stall_timeout_s`` raises instead of letting
        :meth:`run` block forever on jobs no one will ever lease.
        """
        now = time.monotonic()
        with self._lock:
            if self._workers:
                self._last_worker_alive = now
                return
        if not self._ever_registered:
            if now - started > self._register_timeout_s:
                raise ClusterProtocolError(
                    "no worker registered within "
                    f"{self._register_timeout_s:.0f}s; start workers "
                    "with `python -m repro.cluster worker --connect "
                    f"{self.address[0]}:{self.address[1]}` or use a "
                    "LocalCluster"
                ) from None
            return
        if now - self._last_worker_alive > self._stall_timeout_s:
            raise ClusterProtocolError(
                f"cluster stalled: every worker died and none returned for "
                f"{self._stall_timeout_s:.0f}s with {n_unfinished} jobs "
                "unfinished"
            ) from None

    def close(self) -> None:
        """Shut the cluster session down (idempotent)."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            workers = list(self._workers.values())
            self._workers.clear()
        for state in workers:
            try:
                state.send(Shutdown())
            except OSError:
                pass  # worker already gone; death handling owns its jobs
            try:
                state.conn.close()
            except OSError:
                pass  # repro: double-close race with the reader thread
        self._listener.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed by close()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        worker_id: int | None = None
        try:
            while True:
                message, payload = recv_message(conn)
                if isinstance(message, Register):
                    worker_id = self._on_register(conn, message)
                elif worker_id is None:
                    raise ClusterProtocolError(
                        f"{message.kind} frame before register"
                    )
                elif isinstance(message, Heartbeat):
                    self._on_heartbeat(worker_id)
                elif isinstance(message, Result):
                    self._on_result(worker_id, message, payload)
                elif isinstance(message, Stolen):
                    self._on_stolen(worker_id, message)
                elif isinstance(message, Crash):
                    self._on_crash(payload)
                else:
                    raise ClusterProtocolError(
                        f"unexpected {message.kind} frame from a worker"
                    )
        except (EOFError, ConnectionError, OSError):
            pass  # connection lost: fall through to the death declaration
        except ClusterProtocolError as exc:
            if worker_id is None:
                # A peer that never registered is not our worker — a stray
                # client, a port scanner, a second campaign's worker.  Its
                # nonsense must not abort this campaign: drop the
                # connection (the finally below closes it) and count it.
                with self._lock:
                    self._counts["n_rejected_peers"] += 1
            else:
                self._out.put(("raise", exc))
        finally:
            if worker_id is not None:
                self._declare_dead(worker_id)
            else:
                try:
                    conn.close()
                except OSError:
                    pass  # repro: already closed by the peer

    def _on_register(self, conn: socket.socket, message: Register) -> int:
        with self._lock:
            self._next_worker_id += 1
            worker_id = self._next_worker_id
            state = _WorkerState(worker_id, conn)
            self._workers[worker_id] = state
            self._counts["n_workers"] += 1
            self._ever_registered = True
        state.send(Welcome(worker_id=worker_id, heartbeat_s=self._heartbeat_s))
        state.send(Task(), self._task_blob)
        with self._lock:
            self._grant(worker_id)
        return worker_id

    def _on_heartbeat(self, worker_id: int) -> None:
        with self._lock:
            state = self._workers.get(worker_id)
            if state is not None:
                state.last_seen = time.monotonic()

    def _on_result(self, worker_id: int, message: Result, payload: bytes) -> None:
        record = pickle.loads(payload)
        job_id = message.job_id
        with self._lock:
            state = self._workers.get(worker_id)
            if state is not None:
                state.last_seen = time.monotonic()
            if job_id in self._done:
                # A re-leased twin already finished (steal/death race) —
                # the done-set is the dedup point the contract relies on.
                return
            self._done.add(job_id)
            self._suspects.discard(job_id)
            self._out.put(("record", job_id, record))
            if state is None:
                return
            state.outstanding.discard(job_id)
            if self._affinity is not None:
                key = self._affinity(self._by_id[job_id])
                if key is not None:
                    state.warm.add(key)
            if not state.outstanding:
                self._per_job_s = observe_lease(
                    self._per_job_s,
                    state.lease_size,
                    time.monotonic() - state.lease_started,
                )
                self._grant(worker_id)

    def _on_stolen(self, worker_id: int, message: Stolen) -> None:
        with self._lock:
            victim = self._workers.get(worker_id)
            if victim is None or victim.steal_pending is None:
                return
            thief_id, requested_at = victim.steal_pending
            victim.steal_pending = None
            job_ids = [
                job_id
                for job_id in message.job_ids
                if job_id in victim.outstanding and job_id not in self._done
            ]
            victim.outstanding.difference_update(job_ids)
            if not job_ids:
                self._hungry.add(thief_id)
                return
            self._steal_latencies.append(time.monotonic() - requested_at)
            self._counts["n_stolen_jobs"] += len(job_ids)
            thief = self._workers.get(thief_id)
            if thief is None or thief.outstanding:
                # Thief died (or got work) while the steal was in flight;
                # the stolen jobs rejoin the queue for whoever drains next.
                self._pending[:0] = job_ids
                self._feed_hungry()
                return
            self._lease_to(thief, job_ids)

    def _on_crash(self, payload: bytes) -> None:
        self._out.put(("raise", pickle.loads(payload)))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _grant(self, worker_id: int) -> None:
        """Lease pending work (or start a steal) for an idle worker.

        Caller holds the lock.
        """
        state = self._workers.get(worker_id)
        if state is None or state.outstanding or self._closing:
            return
        if self._pending:
            self._lease_to(state, self._select_chunk(state))
            return
        victim = self._pick_victim(worker_id)
        if victim is None:
            self._hungry.add(worker_id)
            return
        victim.steal_pending = (worker_id, time.monotonic())
        self._counts["n_steal_requests"] += 1
        try:
            victim.send(Steal(max_jobs=len(victim.outstanding) // 2))
        except OSError:
            # Victim died under us; its reader thread will requeue the
            # jobs, which re-feeds this (now hungry) worker.
            victim.steal_pending = None
            self._hungry.add(worker_id)

    def _select_chunk(self, state: _WorkerState) -> list[int]:
        """Pop the next lease's job ids off the pending queue.

        Suspects lease solo (exact crash attribution needs a worker that
        dies holding one job); otherwise :func:`lease_size` sizes the
        chunk — capped by a fair share of the queue so one worker cannot
        strand its peers idle — and cache-affine jobs near the queue front
        are preferred.
        """
        head = self._pending[0]
        if head in self._suspects:
            self._pending.pop(0)
            return [head]
        alive = max(1, len(self._workers))
        size = max(
            1,
            min(
                lease_size(self._per_job_s),
                -(-len(self._pending) // alive),  # ceil-div fair share
            ),
        )
        window = self._pending[:_AFFINITY_WINDOW]
        chosen: list[int] = []
        if self._affinity is not None and state.warm:
            for job_id in window:
                if len(chosen) >= size:
                    break
                if job_id in self._suspects:
                    continue
                key = self._affinity(self._by_id[job_id])
                if key is not None and key in state.warm:
                    chosen.append(job_id)
            self._counts["n_affinity_hits"] += len(chosen)
        for job_id in window:
            if len(chosen) >= size:
                break
            if job_id in self._suspects or job_id in chosen:
                continue
            chosen.append(job_id)
        if not chosen:
            # Every window job is a suspect; lease the head solo.
            chosen = [head]
        chosen_set = set(chosen)
        self._pending = [j for j in self._pending if j not in chosen_set]
        return chosen

    def _lease_to(self, state: _WorkerState, job_ids: list[int]) -> None:
        """Ship a lease; on send failure the jobs go back to the queue."""
        state.outstanding = set(job_ids)
        state.lease_started = time.monotonic()
        state.lease_size = len(job_ids)
        self._counts["n_leases"] += 1
        self._hungry.discard(state.worker_id)
        payload = pickle.dumps(tuple(self._by_id[j] for j in job_ids))
        try:
            state.send(Lease(job_ids=tuple(job_ids)), payload)
        except OSError:
            # The worker died between grant and send; its reader thread's
            # death declaration will requeue `outstanding`.
            pass

    def _pick_victim(self, thief_id: int) -> _WorkerState | None:
        """The most-loaded worker worth stealing from, if any."""
        best: _WorkerState | None = None
        for state in self._workers.values():
            if state.worker_id == thief_id or state.steal_pending is not None:
                continue
            if len(state.outstanding) < 2:
                continue
            if best is None or len(state.outstanding) > len(best.outstanding):
                best = state
        return best

    def _feed_hungry(self) -> None:
        """Re-grant to workers parked idle.  Caller holds the lock."""
        for worker_id in sorted(self._hungry):
            if not self._pending:
                return
            self._hungry.discard(worker_id)
            self._grant(worker_id)

    # ------------------------------------------------------------------
    # Death handling
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        timeout = self._heartbeat_s * HEARTBEAT_TIMEOUT_FACTOR
        while not self._closing:
            time.sleep(self._heartbeat_s / 2)
            now = time.monotonic()
            with self._lock:
                silent = [
                    worker_id
                    for worker_id, state in self._workers.items()
                    if now - state.last_seen > timeout
                ]
            for worker_id in silent:
                self._declare_dead(worker_id)

    def _declare_dead(self, worker_id: int) -> None:
        """Remove a worker and re-lease its in-flight jobs.

        A worker that died holding exactly one *suspect* job convicts it —
        the job already killed one multi-job lease (or a previous solo
        lease), and now a worker running it alone — so it condenses into
        the canonical :class:`~repro.execution.base.WorkerCrash` marker,
        mirroring the process pool's fresh-rescue-pool attribution.  Every
        other outstanding job is requeued at the front as a suspect, to be
        re-leased one per worker.
        """
        with self._lock:
            state = self._workers.pop(worker_id, None)
            if state is None or self._closing:
                if state is not None:
                    try:
                        state.conn.close()
                    except OSError:
                        pass  # repro: double-close race with the reader thread
                return
            self._hungry.discard(worker_id)
            self._counts["n_worker_deaths"] += 1
            outstanding = sorted(
                job_id for job_id in state.outstanding if job_id not in self._done
            )
            if state.steal_pending is not None:
                # A thief was waiting on this victim; park it hungry so the
                # requeue below (or a later death) feeds it.
                self._hungry.add(state.steal_pending[0])
            for other in self._workers.values():
                if other.steal_pending and other.steal_pending[0] == worker_id:
                    # The dead worker was a thief; let the victim keep its
                    # jobs and accept steals again.
                    other.steal_pending = None
            if len(outstanding) == 1 and outstanding[0] in self._suspects:
                job_id = outstanding[0]
                self._done.add(job_id)
                self._suspects.discard(job_id)
                self._counts["n_crash_markers"] += 1
                self._out.put(("record", job_id, WorkerCrash(job_id=job_id)))
            elif outstanding:
                self._suspects.update(outstanding)
                self._pending[:0] = outstanding
                self._counts["n_requeued_jobs"] += len(outstanding)
                self._feed_hungry()
        try:
            state.conn.close()
        except OSError:
            pass  # repro: double-close race with the reader thread
