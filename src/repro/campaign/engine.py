"""The campaign engine: fan a job grid out over an execution backend.

:class:`TuningCampaign` owns *what* runs — the expanded job list, resolved
once per run into jobs that carry their scenario, pipeline and fault models
(:func:`~repro.campaign.grid.resolve_jobs`), the success criterion — and
delegates *how* it runs to the
:mod:`repro.execution` layer, chosen by one ``backend=`` spec: an
:class:`~repro.execution.base.ExecutionBackend` schedules jobs and streams
``(job_id, record)`` pairs back in completion order, while a
:class:`~repro.execution.controller.RunController` wraps the runner with
per-job fault isolation (a raising job becomes a ``"worker_error"`` record
instead of aborting the campaign), applies the retry policy, journals each
record to an optional JSONL checkpoint, and fires progress callbacks.

Seeds are bound to jobs at grid expansion and records are reassembled in
job-id order, so every backend at every worker count returns bit-identical
results; :meth:`TuningCampaign.resume` extends the same guarantee across
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
from ..exceptions import ConfigurationError
from ..execution import (
    CheckpointJournal,
    ExecutionBackend,
    ProgressCallback,
    RetryPolicy,
    RunController,
    backend_from_spec,
)
from ..reprs import ADDRESS_REPR as _ADDRESS_REPR
from .grid import CampaignGrid, CampaignJob, resolve_jobs
from .results import CampaignJobRecord, CampaignResult
from .worker import run_campaign_job, worker_error_record


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
    the name alone would let stale records slip through.
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
        parts.append(
            f"{job.label}|{job.device.label}|d{job.dot_a}-{job.dot_b}|{seed_key}"
        )
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
    retry:
        A :class:`~repro.execution.controller.RetryPolicy`, or an int
        shorthand for ``RetryPolicy(max_attempts=...)``; attempts per job
        before a raising runner becomes a ``"worker_error"`` record.  Only
        a *raising* runner retries: the default
        :func:`~repro.campaign.worker.run_campaign_job` converts pipeline
        exceptions into ``"crash"`` records itself (deterministic failures
        that a re-run would only repeat), so the budget matters for custom
        runners and infrastructure-level faults.
    progress:
        Optional ``(n_done, n_total, record)`` callback fired in the parent
        process after every completed job, in completion order.
    job_runner:
        The per-job work function; :func:`~repro.campaign.worker.run_campaign_job`
        by default.  A replacement is called as ``(job, criterion=...)``
        with a resolved job (one that carries its scenario, pipeline and
        fault models), must return a
        :class:`~repro.campaign.results.CampaignJobRecord`, and must be
        picklable for process-based backends.
    """

    def __init__(
        self,
        grid: CampaignGrid | Sequence[CampaignJob] | Iterable[CampaignJob],
        *,
        backend: str | ExecutionBackend | None = None,
        criterion: SuccessCriterion | None = None,
        retry: RetryPolicy | int | None = None,
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
        if isinstance(retry, int):
            retry = RetryPolicy(max_attempts=retry)
        self._retry = retry or RetryPolicy()
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
    def run(
        self,
        checkpoint: str | Path | None = None,
        rerun_failures: bool | tuple[str, ...] = False,
    ) -> CampaignResult:
        """Execute every job and aggregate the records.

        With ``checkpoint`` set, every completed record is appended to a
        JSONL journal at that path as it streams in, and job ids already
        present in the journal are skipped — so ``run`` on an existing
        journal *is* a resume (see :meth:`resume` for the intent-revealing
        spelling).  ``rerun_failures`` names journaled failure categories
        to re-run instead of adopt: ``True`` means ``("worker_error",)``,
        a tuple selects specific categories.
        """
        if rerun_failures and checkpoint is None:
            raise ConfigurationError(
                "rerun_failures only makes sense with a checkpoint journal "
                "to re-run failures from; pass checkpoint= as well"
            )
        started = time.perf_counter()
        # One lookup per name, here in the parent: the jobs then carry what
        # they run, including entries registered only in this process.
        jobs = resolve_jobs(self._jobs)
        journal = (
            CheckpointJournal(
                checkpoint,
                serialize=CampaignJobRecord.as_dict,
                deserialize=CampaignJobRecord.from_dict,
                fingerprint=campaign_fingerprint(jobs, self._criterion),
            )
            if checkpoint is not None
            else None
        )
        if rerun_failures:
            categories = (
                ("worker_error",)
                if rerun_failures is True
                else tuple(rerun_failures)
            )
            adopt = lambda record: record.failure_category not in categories  # noqa: E731
        else:
            adopt = None
        controller = RunController(
            self._backend,
            retry=self._retry,
            progress=self._progress,
            journal=journal,
            adopt=adopt,
        )
        run_one = partial(self._job_runner, criterion=self._criterion)
        completed = controller.run(jobs, run_one, on_error=worker_error_record)
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

    def resume(
        self,
        checkpoint: str | Path,
        rerun_failures: bool | tuple[str, ...] = False,
    ) -> CampaignResult:
        """Resume an interrupted campaign from its checkpoint journal.

        Records already journaled are adopted verbatim (they round-trip
        through JSON bit-identically) and their job ids are skipped; only
        the remainder runs.  The merged result equals an uninterrupted run
        of the same campaign, modulo wall-clock timing — compare through
        :meth:`~repro.campaign.results.CampaignResult.normalized`.  A
        missing journal file simply starts the campaign fresh, journaling
        as it goes.

        One caveat to the equality claim: journaled failures are adopted
        too, including ``"worker_error"`` records born from *transient*
        faults (a custom runner's network blip) that an uninterrupted run
        might not have hit.  Pass ``rerun_failures=True`` to re-run
        journaled ``worker_error`` jobs instead of adopting them, or a
        tuple of failure categories to choose precisely; re-run outcomes
        supersede the old journal lines.
        """
        return self.run(checkpoint=checkpoint, rerun_failures=rerun_failures)
