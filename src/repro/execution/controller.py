"""The run controller: everything around execution that is not scheduling.

:class:`RunController` sits between an orchestrator (the campaign engine)
and an :class:`~repro.execution.base.ExecutionBackend` and owns the four
concerns every backend would otherwise duplicate:

* **fault isolation** — ``run_one`` is wrapped by :func:`guarded_runner`
  *before* it ships to workers, so a raising job turns into an ``on_error``
  record inside the worker instead of an exception that aborts the batch
  and discards every completed record;
* **retry policy** — a :class:`RetryPolicy` re-runs a raising job up to
  ``max_attempts`` times before conceding the error record (jobs are
  seeded deterministically, so a retry re-runs the identical computation —
  retries exist for transient infrastructure faults, not flaky physics);
* **checkpoint journaling** — each record streams into a
  :class:`~repro.execution.checkpoint.CheckpointJournal` the moment it
  arrives, and journaled job ids are skipped on the next run;
* **progress callbacks** — fired in the parent, in completion order, with
  ``(n_done, n_total, record)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable

from ..exceptions import ConfigurationError, WorkerCrashError
from .base import ExecutionBackend, ProgressCallback, SupportsJobId, WorkerCrash, crash_message
from .checkpoint import CheckpointJournal

__all__ = ["RetryPolicy", "RunController", "guarded_runner"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a raising job is re-attempted before it becomes a record.

    This is *runner-level* retry: the whole ``run_one(job)`` call is
    repeated inside the worker, and — unlike the simulated-clock probe
    retries of :class:`~repro.instrument.resilience.ProbeRetryPolicy` —
    its backoff and elapsed budget are genuine **wall-clock** waits,
    because the faults it targets (flaky I/O in a future remote backend, a
    custom runner's network call) live in real time.  The defaults (no
    backoff, no budget) keep behaviour bit-identical to a bare retry loop.

    ``max_attempts=1`` (the default) means no retries: the first exception
    is final.  Retries re-run the same deterministically seeded job, so
    they never help against deterministic failures.  Faults that destroy
    the worker itself (an OOM kill or injected crash breaking the process
    pool) cannot be retried from within it — the backend surfaces them as
    :class:`~repro.execution.base.WorkerCrash` markers, and the checkpoint
    journal plus resume is the recovery path.

    Attributes
    ----------
    max_attempts:
        Total attempts per job, including the first.
    backoff_s:
        Wall-clock sleep before the first retry, doubling on each further
        retry.  ``0`` (default) retries immediately.  Must be finite.
    max_elapsed_s:
        Wall-clock budget across all of a job's attempts: once exceeded,
        no further retry is started (the attempt in progress is never
        interrupted — in-process code cannot safely preempt a runner).
        ``0`` (default) or ``inf`` means unlimited.
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    max_elapsed_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        # Chained comparisons are false for NaN, so NaN is refused too.  The
        # backoff is a sleep period and must be finite; an infinite budget
        # means "no limit", the same as 0.
        if not 0 <= self.backoff_s < float("inf"):
            raise ConfigurationError("backoff_s must be finite and non-negative")
        if not self.max_elapsed_s >= 0:
            raise ConfigurationError("max_elapsed_s must be a non-negative number")


def _guarded_run(
    run_one: Callable[[Any], Any],
    on_error: Callable[[Any, BaseException], Any] | None,
    retry: RetryPolicy,
    job: SupportsJobId,
) -> Any:
    """Run one job, converting a (repeatedly) raising job into a record.

    Module-level so :func:`functools.partial` bindings of it stay picklable
    for process-based backends; the wrapper runs *inside* the worker, so
    with ``on_error`` set no exception ever crosses the process boundary.
    Without ``on_error`` the retry budget still applies, but the last
    attempt's exception propagates.
    """
    started = time.monotonic() if retry.max_elapsed_s else 0.0
    backoff = retry.backoff_s
    last_error: BaseException | None = None
    for attempt in range(retry.max_attempts):
        if attempt:
            if (
                retry.max_elapsed_s
                and time.monotonic() - started >= retry.max_elapsed_s
            ):
                break
            if backoff > 0:
                time.sleep(backoff)
                backoff *= 2.0
        try:
            return run_one(job)
        except Exception as exc:
            last_error = exc
    if on_error is None:
        raise last_error
    return on_error(job, last_error)


def guarded_runner(
    run_one: Callable[[Any], Any],
    on_error: Callable[[Any, BaseException], Any] | None,
    retry: RetryPolicy | None = None,
) -> Callable[[SupportsJobId], Any]:
    """A picklable wrapper of ``run_one`` applying retries and isolation.

    ``on_error(job, exception)`` builds the failure record once
    ``retry.max_attempts`` attempts have all raised (or the policy's
    wall-clock budget ran out first); it must itself be picklable for
    process-based backends (a module-level function).  With
    ``on_error=None`` the wrapper only retries — the final exception
    propagates to the caller.
    """
    return partial(_guarded_run, run_one, on_error, retry or RetryPolicy())


class RunController:
    """Drive a job batch through a backend with isolation, journal, progress.

    Parameters
    ----------
    backend:
        The :class:`~repro.execution.base.ExecutionBackend` that owns
        scheduling.
    retry:
        Attempts per job before ``on_error`` is consulted; default one.
        This retry is **runner-level** — the whole ``run_one(job)`` call
        repeats inside the worker — and its ``backoff_s`` /
        ``max_elapsed_s`` are **wall-clock** waits, unlike the
        simulated-time probe retries inside a session
        (:class:`~repro.instrument.resilience.ProbeRetryPolicy`).  Note
        that in-process code cannot preempt a truly hung runner; the
        worker-death path (crash markers plus journal resume) is the
        recovery story there.
    progress:
        Optional ``(n_done, n_total, record)`` callback fired in the parent
        after every completed job.  Jobs preloaded from the journal count
        toward ``n_done`` but do not fire the callback.
    journal:
        Optional :class:`~repro.execution.checkpoint.CheckpointJournal`.
        Existing entries are treated as completed work and skipped; new
        records are appended as they stream in.
    adopt:
        Optional predicate over journal-loaded records; entries it rejects
        are dropped and their jobs re-run (and re-journaled — a later
        journal line supersedes the earlier one).  The escape hatch for
        records a resume should *not* trust, e.g. failures from transient
        infrastructure faults.
    """

    def __init__(
        self,
        backend: ExecutionBackend,
        retry: RetryPolicy | None = None,
        progress: ProgressCallback | None = None,
        journal: CheckpointJournal | None = None,
        adopt: Callable[[Any], bool] | None = None,
    ) -> None:
        self._backend = backend
        self._retry = retry or RetryPolicy()
        self._progress = progress
        self._journal = journal
        self._adopt = adopt

    @property
    def backend(self) -> ExecutionBackend:
        """The scheduling backend this controller drives."""
        return self._backend

    def run(
        self,
        jobs: Iterable[SupportsJobId],
        run_one: Callable[[Any], Any],
        on_error: Callable[[Any, BaseException], Any] | None = None,
    ) -> dict[int, Any]:
        """Run every job not already journaled; return records by job id.

        With ``on_error`` set, a job whose ``run_one`` raises (after
        retries) contributes ``on_error(job, exc)`` as its record; without
        it, the retry budget still applies but the final exception
        propagates and aborts the run (the journal still holds every
        record that completed first).

        A :class:`~repro.execution.base.WorkerCrash` marker yielded by the
        backend (a pool worker died and took its job with it) is converted
        here the same way: ``on_error(job, WorkerCrashError(...))`` becomes
        the job's record — journaled, counted, and resumable like any other
        failure — or, without ``on_error``, the
        :class:`~repro.exceptions.WorkerCrashError` propagates.
        """
        jobs = tuple(jobs)
        wanted = {job.job_id for job in jobs}
        completed: dict[int, Any] = {}
        if self._journal is not None:
            completed = {
                job_id: record
                for job_id, record in self._journal.load().items()
                if job_id in wanted
                and (self._adopt is None or self._adopt(record))
            }
        pending = tuple(job for job in jobs if job.job_id not in completed)
        by_id = {job.job_id: job for job in pending}
        if on_error is not None or self._retry.max_attempts > 1:
            safe = guarded_runner(run_one, on_error, self._retry)
        else:
            safe = run_one
        n_done = len(completed)
        for job_id, record in self._backend.submit(pending, safe):
            if isinstance(record, WorkerCrash):
                error = WorkerCrashError(crash_message(job_id))
                if on_error is None:
                    raise error
                record = on_error(by_id[job_id], error)
            completed[job_id] = record
            if self._journal is not None:
                self._journal.append(job_id, record)
            n_done += 1
            if self._progress is not None:
                self._progress(n_done, len(jobs), record)
        return completed
