"""The execution-backend seam: *how* jobs run, separated from *what* runs.

A :class:`~repro.campaign.engine.TuningCampaign` (or any other batch
orchestrator) owns the job list and the semantics of one job; an
:class:`ExecutionBackend` owns nothing but execution policy — worker count,
dispatch granularity, scheduling — and a spec string such as
``"process:4"`` (:func:`backend_from_spec`) is the one way to choose it.
The contract is deliberately tiny:

``submit(jobs, run_one)`` returns an **iterator of** ``(job_id, record)``
**pairs in completion order**.  Streaming is the load-bearing part: records
become available one at a time as jobs finish, which is what lets the
:class:`~repro.execution.controller.RunController` journal each record to a
checkpoint, fire progress callbacks, and keep a partial result when the
process dies mid-run.  Backends make no ordering promise — callers that
need job-id order sort after draining the iterator.

Backends are generic over the job and record types: a job only needs a
``job_id`` attribute, and ``run_one`` must be a plain callable (picklable
for process-based backends).  Nothing in this package imports the campaign
layer, so new orchestrators can reuse the backends wholesale.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Iterable, Iterator, Protocol, runtime_checkable

from ..exceptions import ConfigurationError
from ..registry import Registry
from ..reprs import ContentRepr

__all__ = [
    "BACKENDS",
    "ExecutionBackend",
    "ProgressCallback",
    "SupportsJobId",
    "WorkerCrash",
    "backend_from_spec",
    "backend_names",
    "crash_message",
    "register_backend",
]

#: Progress callbacks receive ``(n_done, n_total, record)`` after every
#: completed job, in completion order, from the parent process.
ProgressCallback = Callable[[int, int, Any], None]


@runtime_checkable
class SupportsJobId(Protocol):
    """Anything a backend can schedule: a spec with a stable integer id."""

    job_id: int


def crash_message(job_id: int) -> str:
    """Canonical description of a job whose worker died.

    One string shared by every path that reports a worker death — the
    process pool's broken-pool recovery here, and the in-process crash
    injection in :mod:`repro.faults` — so a crashed job condenses into the
    same error record no matter which backend ran it.
    """
    return f"worker crash while executing job {int(job_id)}"


@dataclass(frozen=True)
class WorkerCrash:
    """Marker record: the worker executing this job died mid-run.

    A backend that can *observe* worker death without being able to get a
    real record out of the corpse (the process pool after a hard ``os._exit``
    or OOM kill) yields ``(job_id, WorkerCrash(job_id))`` instead of raising
    and abandoning the batch.  The
    :class:`~repro.execution.controller.RunController` converts the marker
    through its ``on_error`` hook into an ordinary failure record (or raises
    :class:`~repro.exceptions.WorkerCrashError` when no hook is set), so
    crashes journal and resume exactly like any other failed job.
    """

    job_id: int

    @property
    def message(self) -> str:
        """The canonical crash description for this job."""
        return crash_message(self.job_id)


class ExecutionBackend(ContentRepr, abc.ABC):
    """Execution policy for a batch of independent jobs.

    Subclasses implement :meth:`submit`; everything else (retries, fault
    isolation, journaling, progress) lives in
    :class:`~repro.execution.controller.RunController` so each backend stays
    a few dozen lines of pure scheduling.
    """

    #: Stable name used by :func:`backend_from_spec` and result metadata.
    name: ClassVar[str] = "abstract"

    #: Jobs the backend runs at once; pools and clusters override it.  A
    #: campaign reports this, clamped to its job count, as its worker count.
    max_workers: int = 1

    @abc.abstractmethod
    def submit(
        self,
        jobs: Iterable[SupportsJobId],
        run_one: Callable[[Any], Any],
    ) -> Iterator[tuple[int, Any]]:
        """Run every job, yielding ``(job_id, record)`` in completion order.

        Implementations must tolerate an empty job list (yield nothing) and
        must not reorder, drop, or duplicate job ids.  Exceptions raised by
        ``run_one`` propagate to the consumer; callers that want per-job
        fault isolation wrap ``run_one`` first (see
        :func:`~repro.execution.controller.guarded_runner`).
        """


#: Registered backends: name -> ``factory(arg)``, where ``arg`` is the text
#: after the first colon of the spec (``"8"`` for ``"process:8"``,
#: ``"local:4"`` for ``"cluster:local:4"``, ``""`` for a bare name).
BACKENDS: Registry[Callable[[str], ExecutionBackend]] = Registry("execution backend")


def register_backend(name: str, factory: Callable[[str], ExecutionBackend]) -> None:
    """Register ``factory`` under ``name`` for :func:`backend_from_spec`.

    The factory is called as ``factory(arg)`` with the text after the first
    colon of the spec, ``""`` for the bare name, and must raise
    :class:`~repro.exceptions.ConfigurationError` on an ``arg`` it does not
    accept.  A name registers once.
    """
    BACKENDS.register(name, factory)


def backend_names() -> tuple[str, ...]:
    """Names accepted by :func:`backend_from_spec`, sorted."""
    return tuple(sorted(BACKENDS.names()))


def backend_from_spec(spec: str | ExecutionBackend | None) -> ExecutionBackend:
    """Resolve a backend from a spec string, an instance, or ``None``.

    ``None`` is ``"serial"``.  A string names a registered backend, either
    bare (``"process"``: the backend's defaults) or with a parameter
    (``"process:8"``, ``"cluster:local:4"``, ``"cluster:HOST:PORT"``) that
    the backend's factory parses.  Malformed specs raise
    :class:`~repro.exceptions.ConfigurationError` rather than falling back
    to a default.  An :class:`ExecutionBackend` instance passes through
    untouched.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    name, sep, arg = ("serial" if spec is None else spec).partition(":")
    if sep and not arg:
        raise ConfigurationError(
            f"malformed backend spec {spec!r}: empty parameter after ':'"
        )
    return BACKENDS.get(name)(arg)
