"""`ClusterBackend`: the multi-host execution backend, plus `LocalCluster`.

:class:`ClusterBackend` implements the streaming
:class:`~repro.execution.base.ExecutionBackend` protocol over the
coordinator/worker wire of :mod:`repro.cluster.coordinator`.  It holds no
live network state at rest — a coordinator (and, in local mode, a
:class:`LocalCluster` of worker subprocesses) is created per ``submit`` —
so backend instances stay picklable, content-repr'd, and registry-audit
clean like every other backend.

Two modes:

* **local** (spec ``"cluster:local:4"``, i.e. ``ClusterBackend(n_workers=4)``;
  the bare ``"cluster"`` is ``ClusterBackend()``, two workers): the backend
  launches ``n_workers`` spawn-start worker subprocesses on localhost, used
  by tests, CI, and single-machine scale-out;
* **listen** (spec ``"cluster:HOST:PORT"``, i.e.
  ``ClusterBackend(host="0.0.0.0", port=7077)``): the backend binds the
  given address and waits for externally started workers — ``python -m
  repro.cluster worker --connect HOST:PORT`` on each machine of the fleet.

Records are bit-identical to
:class:`~repro.execution.backends.SerialBackend` at any worker count:
seeds ride with the jobs, the coordinator's done-set dedups re-lease
races, and worker deaths condense into the canonical
:class:`~repro.execution.base.WorkerCrash` markers.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from typing import Any, Callable, Iterable, Iterator

from ..exceptions import ConfigurationError
from ..execution.base import ExecutionBackend, SupportsJobId, register_backend
from .coordinator import DEFAULT_HEARTBEAT_S, ClusterStats, Coordinator
from .worker import _local_worker

__all__ = ["ClusterBackend", "LocalCluster", "job_affinity"]


def job_affinity(job: Any) -> str | None:
    """A job's kernel-cache affinity key, or ``None`` when it has none.

    Jobs sharing this key rasterise the same charge-stability kernel
    (device geometry, gate pair and resolution fix the kernel; seeds, noise
    draws, and repeats do not), so the coordinator prefers to place them on
    a worker whose per-process
    :func:`~repro.kernelcache.default_kernel_cache` already holds it.  The
    scenario only picks the cached layer: the currents without drift, the
    base sensor detuning under sensor-only drift, none under lever-arm
    drift.  Scenarios sharing a layer share its entry, so keying on the
    scenario may split jobs that could share a worker's entry.
    This is a cheap *proxy* for the full
    :func:`~repro.kernelcache.kernel_fingerprint` — computing the real
    fingerprint needs the voltage axes, which only exist inside the job —
    but a proxy collision merely costs one redundant rasterisation, never
    correctness.  A job that replays a stored ``diagram`` reads no kernel
    cache, so it has no key.
    """
    device = getattr(job, "device", None)
    if device is None or getattr(job, "diagram", None) is not None:
        return None
    return "|".join(
        (
            repr(device),
            str(getattr(job, "gate_x", "")),  # repro: allow[silent-fallback] -- affinity proxy over duck-typed jobs: a missing field degrades placement, never results
            str(getattr(job, "gate_y", "")),  # repro: allow[silent-fallback] -- affinity proxy over duck-typed jobs: a missing field degrades placement, never results
            str(getattr(job, "resolution", "")),
            str(getattr(job, "scenario", "")),  # repro: allow[silent-fallback] -- affinity proxy over duck-typed jobs: a missing field degrades placement, never results
        )
    )


class LocalCluster:
    """N spawn-start worker subprocesses serving one coordinator address.

    Workers are started eagerly and watched: a worker that dies (an
    injected crash's ``os._exit``, a chaos SIGKILL) is respawned so the
    cluster keeps its configured width for the rest of the campaign —
    the distributed analogue of a process pool replacing a broken worker.

    Parameters
    ----------
    n_workers:
        Subprocesses to keep alive.
    address:
        The coordinator's ``(host, port)``.
    respawn:
        Replace dead workers (default).  Chaos tests that want a death to
        *stick* pass ``False``.
    mute_first_worker_after:
        Test hook forwarded to the first worker only: stop heartbeating
        after that many results, exercising the missed-beat death path.
    """

    def __init__(
        self,
        n_workers: int,
        address: tuple[str, int],
        respawn: bool = True,
        mute_first_worker_after: int | None = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError("n_workers must be at least 1")
        self._address = address
        self._respawn = respawn
        self._stopping = False
        self._lock = threading.Lock()
        context = multiprocessing.get_context("spawn")
        self._context = context
        self._procs = [
            context.Process(
                target=_local_worker,
                args=(
                    address[0],
                    address[1],
                    mute_first_worker_after if index == 0 else None,
                ),
                daemon=True,
            )
            for index in range(n_workers)
        ]
        for proc in self._procs:
            proc.start()
        self._watchdog = threading.Thread(target=self._watch, daemon=True)
        self._watchdog.start()

    @property
    def processes(self) -> tuple:
        """The live worker process handles (chaos tests kill through these)."""
        with self._lock:
            return tuple(self._procs)

    def _watch(self) -> None:
        while not self._stopping:
            time.sleep(0.1)
            with self._lock:
                if self._stopping or not self._respawn:
                    continue
                for index, proc in enumerate(self._procs):
                    if proc.is_alive():
                        continue
                    replacement = self._context.Process(
                        target=_local_worker,
                        args=(self._address[0], self._address[1], None),
                        daemon=True,
                    )
                    replacement.start()
                    self._procs[index] = replacement

    def kill_one(self) -> int:
        """SIGKILL the first live worker (chaos hook); returns its pid."""
        with self._lock:
            for proc in self._procs:
                if proc.is_alive() and proc.pid is not None:
                    os.kill(proc.pid, signal.SIGKILL)
                    return proc.pid
        raise ConfigurationError("no live worker to kill")

    def stop(self) -> None:
        """Terminate every worker and stop respawning (idempotent)."""
        with self._lock:
            self._stopping = True
            procs = tuple(self._procs)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)


class ClusterBackend(ExecutionBackend):
    """Distributed execution over the cluster wire protocol.

    Leases are sized by :func:`~repro.cluster.coordinator.lease_size`,
    which targets :data:`~repro.cluster.coordinator.LEASE_TARGET_S` of work
    per lease.

    Parameters
    ----------
    n_workers:
        Local mode: worker subprocesses to launch per submission (two by
        default).
    host / port:
        Listen mode: bind this address and wait for remote workers
        (``python -m repro.cluster worker --connect HOST:PORT``).  Mutually
        exclusive with treating ``n_workers`` as a launch count.
    heartbeat_s:
        Worker heartbeat period; death is declared after ~5 missed beats.
    register_timeout_s:
        Listen mode: how long a submission waits for the first worker
        before failing loudly.  ``inf`` waits forever.
    stall_timeout_s:
        How long a submission tolerates a cluster that had workers but has
        none left (all died, none reconnected) with jobs still unfinished
        before raising instead of blocking forever.  ``inf`` never raises.

    .. warning::
       The wire protocol ships pickles both ways (the task callable to
       workers, records and crash payloads back), and unpickling is
       arbitrary code execution for whoever you connect to.  Listen mode
       (``host``/``port``, e.g. ``cluster:0.0.0.0:7077``) must therefore
       only bind on networks where every host that can reach the port is
       trusted — and workers must only ``--connect`` to coordinators they
       trust.  Local mode never leaves the loopback interface.
    """

    name = "cluster"

    def __init__(
        self,
        n_workers: int | None = None,
        host: str | None = None,
        port: int | None = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        register_timeout_s: float = 60.0,
        stall_timeout_s: float = 300.0,
    ) -> None:
        if host is None and port is not None:
            raise ConfigurationError("port requires host (listen mode)")
        if host is not None and port is None:
            raise ConfigurationError("host requires port (listen mode)")
        if host is None:
            n_workers = 2 if n_workers is None else int(n_workers)
            if n_workers < 1:
                raise ConfigurationError("n_workers must be at least 1")
        elif n_workers is not None:
            raise ConfigurationError(
                "n_workers is a local-mode knob; in listen mode the worker "
                "count is however many workers connect"
            )
        # Chained comparisons are false for NaN, so NaN is refused too.  The
        # heartbeat is a sleep period and must be finite; an infinite
        # timeout means "no limit".
        if not 0 < heartbeat_s < float("inf"):
            raise ConfigurationError("heartbeat_s must be finite and positive")
        if not register_timeout_s > 0:
            raise ConfigurationError("register_timeout_s must be positive")
        if not stall_timeout_s > 0:
            raise ConfigurationError("stall_timeout_s must be positive")
        self._n_workers = n_workers
        self._host = host
        self._port = None if port is None else int(port)
        self._heartbeat_s = float(heartbeat_s)
        self._register_timeout_s = float(register_timeout_s)
        self._stall_timeout_s = float(stall_timeout_s)
        self._last_stats: ClusterStats | None = None
        self._active_cluster: LocalCluster | None = None
        self._mute_first_worker_after: int | None = None

    # ------------------------------------------------------------------
    @property
    def max_workers(self) -> int:
        """Local worker count (listen mode reports 1: the count is remote)."""
        return self._n_workers if self._n_workers is not None else 1

    @property
    def last_stats(self) -> ClusterStats | None:
        """Scheduling counters from the most recent submission."""
        return self._last_stats

    # ------------------------------------------------------------------
    def submit(
        self,
        jobs: Iterable[SupportsJobId],
        run_one: Callable[[Any], Any],
    ) -> Iterator[tuple[int, Any]]:
        """Stream records from the cluster, surviving worker death.

        Builds a fresh coordinator (and, in local mode, a fresh
        :class:`LocalCluster`) per call; the generator tears both down when
        it finishes or is abandoned.  Duplicate records from steal/re-lease
        races are dropped coordinator-side, so each job id is yielded at
        most once.
        """
        jobs = tuple(jobs)
        if not jobs:
            return
        coordinator = Coordinator(
            host=self._host or "127.0.0.1",
            port=self._port or 0,
            heartbeat_s=self._heartbeat_s,
            affinity=job_affinity,
            register_timeout_s=self._register_timeout_s,
            stall_timeout_s=self._stall_timeout_s,
        )
        cluster: LocalCluster | None = None
        try:
            if self._n_workers is not None:
                cluster = LocalCluster(
                    min(self._n_workers, len(jobs)),
                    coordinator.address,
                    mute_first_worker_after=self._mute_first_worker_after,
                )
                self._active_cluster = cluster
            yield from coordinator.run(jobs, run_one)
        finally:
            coordinator.close()
            self._last_stats = coordinator.stats
            self._active_cluster = None
            if cluster is not None:
                cluster.stop()


def _cluster_spec(arg: str) -> ClusterBackend:
    """Build from ``"cluster"``, ``"cluster:local:N"`` or ``"cluster:HOST:PORT"``."""
    if not arg:
        return ClusterBackend()
    head, sep, rest = arg.partition(":")
    if not sep or not rest:
        raise ConfigurationError(
            f"malformed backend spec 'cluster:{arg}': expected "
            "'cluster:local:N' or 'cluster:HOST:PORT'"
        )
    if head == "local":
        try:
            workers = int(rest)
        except ValueError:
            raise ConfigurationError(
                f"malformed backend spec 'cluster:{arg}': worker count "
                "must be an integer, e.g. 'cluster:local:4'"
            ) from None
        if workers < 1:
            raise ConfigurationError(
                f"malformed backend spec 'cluster:{arg}': worker count "
                "must be at least 1"
            )
        return ClusterBackend(n_workers=workers)
    try:
        port = int(rest)
    except ValueError:
        raise ConfigurationError(
            f"malformed backend spec 'cluster:{arg}': port must be an "
            "integer, e.g. 'cluster:10.0.0.5:7077'"
        ) from None
    return ClusterBackend(host=head, port=port)


register_backend("cluster", _cluster_spec)
