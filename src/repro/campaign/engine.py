"""The campaign engine: fan a job grid out over an execution backend.

:class:`TuningCampaign` owns *what* runs — the expanded job list, scenario
resolution, the success criterion — and delegates *how* it runs to the
:mod:`repro.execution` layer: an
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
import inspect
import time
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..analysis.metrics import SuccessCriterion
from ..exceptions import ConfigurationError
from ..faults import get_fault
from ..execution import (
    CheckpointJournal,
    ExecutionBackend,
    ProgressCallback,
    RetryPolicy,
    RunController,
    SerialBackend,
    backend_from_spec,
)
from ..pipeline.registry import get_pipeline
from ..reprs import ADDRESS_REPR as _ADDRESS_REPR
from ..scenarios.catalog import get_scenario
from .grid import CampaignGrid, CampaignJob
from .results import CampaignJobRecord, CampaignResult
from .worker import run_campaign_job, worker_error_record


def campaign_fingerprint(
    jobs: Sequence[CampaignJob],
    criterion: SuccessCriterion,
    scenarios: dict[str, object] | None = None,
    faults: dict[str, tuple] | None = None,
) -> str:
    """A stable identity for "this job list scored this way".

    Stamped into checkpoint journals so a resume against a journal written
    by a *different* campaign (same file path, different grid, seed, or
    criterion — whose records would be silently wrong) fails loudly.  Built
    from each job's label (device spec, gates, resolution, environment,
    fault condition, method, repeat), its seed identity, the criterion's
    repr, and the repr of every resolved scenario and fault-condition
    *definition* — a scenario or condition re-registered with different
    physics under the same name changes the fingerprint, because the name
    alone would let stale records slip through.
    """
    criterion_part = repr(criterion)
    if _ADDRESS_REPR.search(criterion_part):
        raise ConfigurationError(
            "the success criterion's repr embeds a memory address, so its "
            "checkpoint fingerprint would not survive a process restart; "
            "give the criterion class a content-based __repr__ (or make it "
            "a dataclass) to use checkpointing"
        )
    parts = [criterion_part]
    for name in sorted(scenarios or {}):
        part = f"{name}={scenarios[name]!r}"
        if _ADDRESS_REPR.search(part):
            # A default object repr embeds a memory address, which differs
            # every process — the journal would reject every cross-process
            # resume as "a different run".  Fail at checkpoint time with
            # the actual fix instead.
            raise ConfigurationError(
                f"scenario {name!r} contains an object whose repr embeds a "
                "memory address, so its checkpoint fingerprint would not "
                "survive a process restart; give that class a content-based "
                "__repr__ (or make it a dataclass) to use checkpointing"
            )
        parts.append(part)
    for name in sorted(faults or {}):
        part = f"fault:{name}={faults[name]!r}"
        if _ADDRESS_REPR.search(part):
            raise ConfigurationError(
                f"fault condition {name!r} contains an object whose repr "
                "embeds a memory address, so its checkpoint fingerprint "
                "would not survive a process restart; give that class a "
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
    n_workers:
        ``1`` runs jobs sequentially in-process (bit-identical to, and the
        reference for, every parallel run); larger values use a process
        pool of that size.  Ignored when ``backend`` is an instance.
    criterion:
        Ground-truth success criterion applied to every job; the paper
        defaults when omitted.
    chunk_size:
        Jobs handed to a process-pool worker per dispatch; the backend's
        capped default balances pickling overhead against tail
        load-balancing when omitted.
    backend:
        Execution policy: a registered backend name or spec (``"serial"``,
        ``"process"``, ``"process:8"``, ``"cluster:local:4"``), an
        :class:`~repro.execution.base.ExecutionBackend` instance, or
        ``None`` to choose serial/process from ``n_workers``.
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
        by default.  A replacement must accept
        ``(job, criterion=..., scenarios=...)``, return a
        :class:`~repro.campaign.results.CampaignJobRecord`, and be
        picklable for process-based backends.  A runner that also declares
        a ``pipelines=`` keyword receives the parent-resolved
        :class:`~repro.pipeline.composer.TuningPipeline` objects for the
        grid's methods, and one declaring ``faults=`` receives the
        parent-resolved fault-model tuples for the grid's fault conditions
        (both needed for user-registered entries under spawn-start pools).
    """

    def __init__(
        self,
        grid: CampaignGrid | Sequence[CampaignJob] | Iterable[CampaignJob],
        n_workers: int = 1,
        criterion: SuccessCriterion | None = None,
        chunk_size: int | None = None,
        backend: str | ExecutionBackend | None = None,
        retry: RetryPolicy | int | None = None,
        progress: ProgressCallback | None = None,
        job_runner: Callable[..., CampaignJobRecord] = run_campaign_job,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError("n_workers must be at least 1")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigurationError("chunk_size must be at least 1")
        if isinstance(grid, CampaignGrid):
            self._jobs = grid.expand()
        else:
            self._jobs = tuple(grid)
        ids = [job.job_id for job in self._jobs]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("campaign jobs must have unique job_ids")
        self._n_workers = int(n_workers)
        self._criterion = criterion or SuccessCriterion()
        # Auto-selection keeps the historical small-grid fallback: a grid of
        # at most one job never benefits from a pool, so it runs serially
        # in-process rather than paying process spawn + pickling for nothing.
        auto_workers = self._n_workers if len(self._jobs) > 1 else 1
        self._backend = backend_from_spec(
            backend, n_workers=auto_workers, chunk_size=chunk_size
        )
        # The spec string (or resolved name) travels into result metadata so
        # a saved result records how it was executed, parameters included.
        self._backend_spec = (
            backend if isinstance(backend, str) else self._backend.name
        )
        if (
            chunk_size is not None
            and backend is not None
            and not (
                isinstance(backend, str)
                and backend.partition(":")[0] == "process"
            )
        ):
            # With an explicit non-process backend the knob would be a
            # silent no-op (instances carry their own configuration; the
            # serial backend has no chunks, the cluster sizes its own
            # leases) — fail loudly in the engine's usual style.  The auto
            # spec keeps the historical behaviour of ignoring chunk_size
            # when it resolves to serial.
            raise ConfigurationError(
                "chunk_size only applies to the process backend; configure "
                "the backend instance directly or drop the argument"
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
    def n_workers(self) -> int:
        """Configured worker count."""
        return self._n_workers

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend this campaign dispatches through."""
        return self._backend

    def _runner_accepts(self, name: str) -> bool:
        """Whether the configured job runner takes a keyword argument.

        Keeps the historical ``(job, criterion=..., scenarios=...)`` runner
        contract working: newer engine-supplied kwargs (``pipelines``,
        ``faults``) are only passed to runners that declare them (or
        ``**kwargs``).
        """
        try:
            parameters = inspect.signature(self._job_runner).parameters
        except (TypeError, ValueError):  # builtins/C callables: be conservative
            return False
        if name in parameters:
            return True
        return any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )

    def _effective_workers(self) -> int:
        """Workers the backend will actually use — what the result reports.

        A supplied backend instance's own configuration (its
        ``max_workers``, when it exposes one — a custom backend that does
        not is reported as the configured ``n_workers``) wins over the
        ``n_workers`` argument, pools clamp to the job count at submit
        time, and the single-job serial fallback really runs on one
        worker however many were requested.
        """
        if isinstance(self._backend, SerialBackend):
            return 1
        configured = int(getattr(self._backend, "max_workers", self._n_workers))
        return max(1, min(configured, len(self._jobs)))

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
        # Resolve scenario names, pipeline methods, and fault conditions in
        # this process and ship the objects to the workers: user-registered
        # entries live only in the parent's registry, which a spawn-start
        # worker would not have.
        scenarios = {
            name: get_scenario(name)
            for name in {job.scenario for job in self._jobs if job.scenario}
        }
        faults = {
            name: get_fault(name)
            for name in {
                getattr(job, "fault", None) for job in self._jobs
            }
            if name is not None
        }
        runner_kwargs = {"criterion": self._criterion, "scenarios": scenarios}
        if self._runner_accepts("pipelines"):
            runner_kwargs["pipelines"] = {
                method: get_pipeline(method)
                for method in {job.method for job in self._jobs}
            }
        if self._runner_accepts("faults"):
            runner_kwargs["faults"] = faults
        run_one = partial(self._job_runner, **runner_kwargs)
        journal = (
            CheckpointJournal(
                checkpoint,
                serialize=CampaignJobRecord.as_dict,
                deserialize=CampaignJobRecord.from_dict,
                fingerprint=campaign_fingerprint(
                    self._jobs, self._criterion, scenarios, faults
                ),
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
        completed = controller.run(self._jobs, run_one, on_error=worker_error_record)
        ordered: tuple[CampaignJobRecord, ...] = tuple(
            completed[job_id] for job_id in sorted(completed)
        )
        return CampaignResult(
            records=ordered,
            n_workers=self._effective_workers(),
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
