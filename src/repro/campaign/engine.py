"""The campaign engine: fan a job grid out over an execution backend.

:class:`TuningCampaign` owns *what* runs — the expanded job list, resolved
once per run into jobs that carry their scenario, pipeline and fault models
(:func:`~repro.campaign.grid.resolve_jobs`), the success criterion — and
hands *how* it runs to the :class:`~repro.execution.base.ExecutionBackend`
its one ``backend=`` spec names, which schedules the jobs and streams
``(job_id, record)`` pairs back in completion order.  Around that stream
:meth:`TuningCampaign.run` is the one campaign loop: it skips the job ids
an optional JSONL checkpoint journal already holds, submits the rest
through :func:`~repro.campaign.worker.run_guarded` (a raising runner
becomes a ``"worker_error"`` record instead of aborting the campaign),
turns each :class:`~repro.execution.base.WorkerCrash` marker into the
same record, journals every new record, then fires progress.

Seeds are bound to jobs at grid expansion and records are reassembled in
job-id order, so every backend at every worker count returns bit-identical
results; ``run(checkpoint=path)`` extends the same guarantee across
process death — journaled job ids are skipped and the merged result equals
an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import time
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..analysis.metrics import SuccessCriterion
from ..exceptions import ConfigurationError, WorkerCrashError
from ..execution import (
    CheckpointJournal,
    ExecutionBackend,
    ProgressCallback,
    WorkerCrash,
    backend_from_spec,
    crash_message,
)
from ..physics.csd import ChargeStabilityDiagram
from ..reprs import ADDRESS_REPR as _ADDRESS_REPR
from .grid import CampaignGrid, CampaignJob, resolve_jobs
from .results import CampaignJobRecord, CampaignResult
from .worker import run_campaign_job, run_guarded, worker_error_record


def _diagram_digest(diagram: ChargeStabilityDiagram) -> str:
    """Content digest of a stored diagram: its data, axes and ground truth."""
    digest = hashlib.sha256(repr(diagram.geometry).encode("utf-8"))
    for array in (diagram.data, diagram.x_voltages, diagram.y_voltages):
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def campaign_fingerprint(
    jobs: Sequence[CampaignJob], criterion: SuccessCriterion
) -> str:
    """A stable identity for "this job list scored this way".

    Stamped into checkpoint journals so a resume against a journal written
    by a *different* campaign (same file path, different grid, seed, or
    criterion — whose records would be silently wrong) fails loudly.  Built
    from each job's label (device spec, gates, resolution, environment,
    fault condition, method, repeat), its seed identity, the criterion's
    repr, and the repr of every scenario and fault-condition *definition*
    the (resolved) jobs carry — a scenario or condition re-registered with
    different physics under the same name changes the fingerprint, because
    the name alone would let stale records slip through.  A job that
    replays a stored diagram adds a digest of the diagram's data, axes and
    ground truth, for the same reason: its name alone says nothing about
    what was recorded.
    """
    criterion_part = repr(criterion)
    if _ADDRESS_REPR.search(criterion_part):
        raise ConfigurationError(
            "the success criterion's repr embeds a memory address, so its "
            "checkpoint fingerprint would not survive a process restart; "
            "give the criterion class a content-based __repr__ (or make it "
            "a dataclass) to use checkpointing"
        )
    jobs = resolve_jobs(jobs)
    scenarios = {
        (str(job.scenario), repr(job.environment))
        for job in jobs
        if job.environment is not None
    }
    faults = {(str(job.fault), repr(job.fault_models)) for job in jobs if job.fault_models}
    parts = [criterion_part]
    for kind, prefix, definitions in (
        ("scenario", "", scenarios),
        ("fault condition", "fault:", faults),
    ):
        for name, definition in sorted(definitions):
            part = f"{prefix}{name}={definition}"
            if _ADDRESS_REPR.search(part):
                # A default object repr embeds a memory address, which
                # differs every process — the journal would reject every
                # cross-process resume as "a different run".  Fail at
                # checkpoint time with the actual fix instead.
                raise ConfigurationError(
                    f"{kind} {name!r} contains an object whose repr embeds a "
                    "memory address, so its checkpoint fingerprint would not "
                    "survive a process restart; give that class a "
                    "content-based __repr__ (or make it a dataclass) to use "
                    "checkpointing"
                )
            parts.append(part)
    for job in jobs:
        seed = job.seed
        seed_key = (
            None if seed is None else (seed.entropy, tuple(seed.spawn_key))
        )
        # dot_a/dot_b are spelled out because job.label omits them: two
        # hand-crafted job lists can share gates and seeds while targeting
        # different dot pairs.
        part = f"{job.label}|{job.device.label}|d{job.dot_a}-{job.dot_b}|{seed_key}"
        if job.diagram is not None:
            part += f"|{_diagram_digest(job.diagram)}"
        parts.append(part)
    payload = "\n".join(parts)
    if _ADDRESS_REPR.search(payload):
        # Criterion and scenarios were checked above with targeted errors;
        # anything left comes from a job's device-spec kwargs.
        raise ConfigurationError(
            "a campaign job's device spec contains an object whose repr "
            "embeds a memory address, so its checkpoint fingerprint would "
            "not survive a process restart; give that class a content-based "
            "__repr__ (or make it a dataclass) to use checkpointing"
        )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class TuningCampaign:
    """Run a batch-tuning campaign over a declarative job grid.

    Parameters
    ----------
    grid:
        A :class:`~repro.campaign.grid.CampaignGrid` to expand, or an
        already-expanded sequence of :class:`~repro.campaign.grid.CampaignJob`.
    backend:
        How the jobs run, and the only setting that chooses it: ``None``
        (the default) runs them one after another in-process — the
        reference every other backend is bit-identical to; a spec string
        (``"process:N"``, ``"cluster:local:N"``,
        ``"cluster:HOST:PORT"``; see
        :func:`~repro.execution.base.backend_from_spec`) or an
        :class:`~repro.execution.base.ExecutionBackend` instance selects
        another.
    criterion:
        Ground-truth success criterion applied to every job; the paper
        defaults when omitted.
    progress:
        Optional ``(n_done, n_total, record)`` callback fired in the parent
        process after every completed job, in completion order.
    job_runner:
        The per-job work function; :func:`~repro.campaign.worker.run_campaign_job`
        by default.  A replacement is called as ``(job, criterion=...)``
        with a resolved job (one that carries its scenario, pipeline and
        fault models), must return a
        :class:`~repro.campaign.results.CampaignJobRecord`, and must be
        picklable for process-based backends.  An exception it raises
        becomes the job's ``"worker_error"`` record.
    """

    def __init__(
        self,
        grid: CampaignGrid | Sequence[CampaignJob] | Iterable[CampaignJob],
        *,
        backend: str | ExecutionBackend | None = None,
        criterion: SuccessCriterion | None = None,
        progress: ProgressCallback | None = None,
        job_runner: Callable[..., CampaignJobRecord] = run_campaign_job,
    ) -> None:
        if isinstance(grid, CampaignGrid):
            self._jobs = grid.expand()
        else:
            self._jobs = tuple(grid)
        ids = [job.job_id for job in self._jobs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("campaign jobs must have unique job_ids")
        self._criterion = criterion or SuccessCriterion()
        self._backend = backend_from_spec(backend)
        # The spec string (or resolved name) travels into result metadata so
        # a saved result records how it was executed, parameters included.
        self._backend_spec = (
            backend if isinstance(backend, str) else self._backend.name
        )
        self._progress = progress
        self._job_runner = job_runner

    # ------------------------------------------------------------------
    @property
    def jobs(self) -> tuple[CampaignJob, ...]:
        """The expanded job list."""
        return self._jobs

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend this campaign dispatches through."""
        return self._backend

    # ------------------------------------------------------------------
    def run(self, checkpoint: str | Path | None = None) -> CampaignResult:
        """Execute every job and aggregate the records.

        With ``checkpoint`` set, job ids already in the JSONL journal at
        that path are skipped and their records adopted verbatim (they
        round-trip through JSON bit-identically), and every new record is
        appended the moment it streams in — so ``run`` on an existing
        journal *is* a resume, and a missing journal starts fresh.  The
        merged result equals an uninterrupted run of the same campaign,
        modulo wall-clock timing; compare through
        :meth:`~repro.campaign.results.CampaignResult.normalized`.
        Journaled failures are adopted too, ``"worker_error"`` records
        included.

        Progress fires after each new record is journaled; journaled jobs
        count toward ``n_done`` without firing.
        """
        started = time.perf_counter()
        # One lookup per name, here in the parent: the jobs then carry what
        # they run, including entries registered only in this process.
        jobs = resolve_jobs(self._jobs)
        journal = None
        completed: dict[int, CampaignJobRecord] = {}
        if checkpoint is not None:
            journal = CheckpointJournal(
                checkpoint,
                serialize=CampaignJobRecord.as_dict,
                deserialize=CampaignJobRecord.from_dict,
                fingerprint=campaign_fingerprint(jobs, self._criterion),
            )
            wanted = {job.job_id for job in jobs}
            completed = {
                job_id: record
                for job_id, record in journal.load().items()
                if job_id in wanted
            }
        pending = tuple(job for job in jobs if job.job_id not in completed)
        by_id = {job.job_id: job for job in pending}
        run_one = partial(run_guarded, self._job_runner, self._criterion)
        n_done = len(completed)
        for job_id, record in self._backend.submit(pending, run_one):
            if isinstance(record, WorkerCrash):
                record = worker_error_record(
                    by_id[job_id], WorkerCrashError(crash_message(job_id))
                )
            completed[job_id] = record
            if journal is not None:
                journal.append(job_id, record)
            n_done += 1
            if self._progress is not None:
                self._progress(n_done, len(jobs), record)
        ordered: tuple[CampaignJobRecord, ...] = tuple(
            completed[job_id] for job_id in sorted(completed)
        )
        return CampaignResult(
            records=ordered,
            # Pools and clusters clamp their width to the job count.
            n_workers=max(1, min(self._backend.max_workers, len(self._jobs))),
            wall_time_s=time.perf_counter() - started,
            metadata={
                "n_jobs": len(self._jobs),
                "backend": self._backend.name,
                "backend_spec": self._backend_spec,
            },
        )
