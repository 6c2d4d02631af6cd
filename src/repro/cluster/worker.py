"""The cluster worker: connect, register, run leases, answer steals.

One worker process serves one coordinator connection at a time through
three threads: the main thread receives frames (leases extend the local
queue, steals pop its unstarted tail, shutdown ends the session), an
executor thread drains the queue through ``run_one`` and streams each
record back the moment it finishes, and a heartbeat thread beats every
``heartbeat_s`` so the coordinator can tell death from slowness.

Fault semantics match the other backends exactly: an injected worker
crash (:func:`repro.faults.inject_worker_faults`) hard-exits a spawned
worker process mid-job — the coordinator sees the connection drop and
runs its suspect re-lease protocol — while a *raising* runner sends an
in-protocol :class:`~repro.cluster.wire.Crash` so the exception
propagates to the submitting consumer, per the
:class:`~repro.execution.base.ExecutionBackend` contract.
"""

from __future__ import annotations

import os
import pickle
import socket
import threading
import time
from collections import deque

from ..exceptions import ClusterProtocolError
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

__all__ = ["worker_main"]

#: Delay between connection attempts while a coordinator is not (yet) up.
_RECONNECT_DELAY_S = 0.05

#: Per-attempt TCP connect timeout.  This bounds the *connect* only: once
#: the connection is up the socket goes back to blocking mode, because the
#: receive loop legitimately sits frameless for as long as the current job
#: runs (and while parked idle), and a lingering timeout would convict
#: every such quiet stretch as connection loss.
_CONNECT_ATTEMPT_TIMEOUT_S = 5.0


class _Session:
    """State shared by the three threads serving one connection."""

    def __init__(
        self,
        sock: socket.socket,
        run_one,
        worker_id: int,
        mute_after: int | None = None,
    ) -> None:
        self.sock = sock
        self.run_one = run_one
        self.worker_id = worker_id
        self.send_lock = threading.Lock()
        self.cond = threading.Condition()
        self.queue: deque = deque()
        self.current_job = -1
        self.stopping = False
        self.results_sent = 0
        self.mute_after = mute_after
        self.muted = False

    def send(self, message, payload: bytes = b"") -> None:
        with self.send_lock:
            send_message(self.sock, message, payload)

    def stop(self) -> None:
        with self.cond:
            self.stopping = True
            self.cond.notify_all()


def _executor_loop(session: _Session) -> None:
    """Run queued jobs in lease order, streaming each record back."""
    while True:
        with session.cond:
            while not session.queue and not session.stopping:
                session.cond.wait()
            if session.stopping and not session.queue:
                return
            job = session.queue.popleft()
            session.current_job = int(job.job_id)
        try:
            try:
                payload = pickle.dumps(session.run_one(job))
            except Exception as exc:
                # The runner raised, or returned a record pickle refuses:
                # per the backend contract this aborts the submission, so
                # ship the exception itself.  Neither failure may kill this
                # thread — the heartbeats would keep beating and the
                # campaign would hang.  An exception that refuses to pickle
                # too (holds a socket/lock, broken __reduce__) degrades to
                # a picklable surrogate.
                try:
                    blob = pickle.dumps(exc)
                except Exception:
                    blob = pickle.dumps(
                        RuntimeError(f"{type(exc).__name__}: {exc}")
                    )
                session.send(
                    Crash(job_id=int(job.job_id), message=str(exc)), blob
                )
                continue
            session.send(Result(job_id=int(job.job_id)), payload)
            session.results_sent += 1
            if (
                session.mute_after is not None
                and session.results_sent >= session.mute_after
            ):
                session.muted = True
        except OSError:
            # Connection gone mid-send (coordinator died, or it declared us
            # dead and closed the socket): this session is over.
            session.stop()
            return
        finally:
            with session.cond:
                session.current_job = -1


def _heartbeat_loop(session: _Session, heartbeat_s: float) -> None:
    while True:
        with session.cond:
            if session.stopping:
                return
            beat = Heartbeat(
                worker_id=session.worker_id,
                current_job=session.current_job,
                n_queued=len(session.queue),
            )
        if not session.muted:
            try:
                session.send(beat)
            except OSError:
                return  # connection gone; the receive loop notices too
        time.sleep(heartbeat_s)


def _serve_session(
    sock: socket.socket, mute_heartbeats_after: int | None
) -> bool:
    """Serve one coordinator connection; ``True`` if it ended in Shutdown."""
    send_message(sock, Register(pid=os.getpid(), host=socket.gethostname()))
    welcome, _ = recv_message(sock)
    if not isinstance(welcome, Welcome):
        raise ClusterProtocolError(f"expected welcome, got {welcome.kind}")
    task, task_blob = recv_message(sock)
    if not isinstance(task, Task):
        raise ClusterProtocolError(f"expected task, got {task.kind}")
    session = _Session(
        sock,
        pickle.loads(task_blob),
        welcome.worker_id,
        mute_after=mute_heartbeats_after,
    )
    executor = threading.Thread(target=_executor_loop, args=(session,), daemon=True)
    executor.start()
    threading.Thread(
        target=_heartbeat_loop,
        args=(session, welcome.heartbeat_s),
        daemon=True,
    ).start()
    clean = False
    try:
        while True:
            message, payload = recv_message(sock)
            if isinstance(message, Lease):
                jobs = pickle.loads(payload)
                with session.cond:
                    session.queue.extend(jobs)
                    session.cond.notify_all()
            elif isinstance(message, Steal):
                with session.cond:
                    handed = []
                    while session.queue and len(handed) < message.max_jobs:
                        handed.append(session.queue.pop())
                session.send(
                    Stolen(job_ids=tuple(int(job.job_id) for job in handed))
                )
            elif isinstance(message, Shutdown):
                clean = True
                return True
            else:
                raise ClusterProtocolError(
                    f"unexpected {message.kind} frame from the coordinator"
                )
    finally:
        session.stop()
        # On a clean shutdown the queue is already empty and the executor
        # idle; on connection loss it may be mid-job — give it a moment to
        # notice the dead socket, but never hang the reconnect loop on it.
        executor.join(timeout=5.0 if clean else 1.0)
    return clean


def worker_main(
    host: str,
    port: int,
    reconnect: bool = False,
    serve_forever: bool = False,
    connect_timeout_s: float = 30.0,
    mute_heartbeats_after: int | None = None,
) -> None:
    """Run a cluster worker against ``host:port`` until told to stop.

    Parameters
    ----------
    reconnect:
        Retry the connection after *connection loss* (a dead or departed
        coordinator, or being declared dead after muted heartbeats).  A
        clean ``Shutdown`` still ends the worker unless ``serve_forever``.
    serve_forever:
        Keep reconnecting even after clean shutdowns, serving successive
        campaigns (the ``--loop`` CLI mode for long-lived remote workers).
    connect_timeout_s:
        How long each (re)connection attempt cycle may take before the
        worker gives up with :class:`~repro.exceptions.ClusterProtocolError`.
    mute_heartbeats_after:
        Test hook: stop heartbeating after this many results have been
        sent, so chaos tests can exercise the coordinator's missed-beat
        death path against a worker that is actually still alive.
    """
    while True:
        deadline = time.monotonic() + connect_timeout_s
        sock = None
        while sock is None:
            try:
                sock = socket.create_connection(
                    (host, int(port)), timeout=_CONNECT_ATTEMPT_TIMEOUT_S
                )
            except OSError:
                if time.monotonic() > deadline:
                    raise ClusterProtocolError(
                        f"could not reach a coordinator at {host}:{port} "
                        f"within {connect_timeout_s:.0f}s"
                    ) from None
                time.sleep(_RECONNECT_DELAY_S)
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        clean = False
        try:
            clean = _serve_session(sock, mute_heartbeats_after)
        except (EOFError, ConnectionError, OSError):
            pass  # coordinator went away mid-session; maybe reconnect
        finally:
            try:
                sock.close()
            except OSError:
                pass  # repro: already closed by the peer
        if clean and not serve_forever:
            return
        if not clean and not reconnect:
            return


def _local_worker(host: str, port: int, mute_heartbeats_after: int | None = None) -> None:
    """Spawn target for :class:`~repro.cluster.backend.LocalCluster` workers."""
    worker_main(
        host,
        port,
        reconnect=True,
        mute_heartbeats_after=mute_heartbeats_after,
    )
