"""Worker-scope fault application: deterministic execution-worker death.

Probe-scope models act through :class:`~repro.faults.backend.FaultyBackend`;
worker-scope models act here, at the start of a campaign job.  The crash
decision is drawn from the job's own spawned seed (reserved branch, no
``spawn()`` mutation), so the *same jobs* die under every execution backend
and worker count — which is what lets a chaos campaign's records stay
comparable across serial, process-pool, and cluster runs.

How death is delivered depends on where the job runs:

* inside a spawned pool worker, ``os._exit`` kills the process mid-job —
  the real thing, exercising :class:`~repro.execution.backends.ProcessPoolBackend`'s
  broken-pool recovery;
* in-process (the serial backend), killing the interpreter would take
  the caller's session down with it, so the injection raises
  :class:`~repro.exceptions.WorkerCrashError` with the same canonical
  message the pool recovery synthesises — both paths condense into
  identical ``worker_error`` records.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np

from ..exceptions import WorkerCrashError
from ..execution.base import crash_message
from ..seeding import WORKER_CRASH_INDEX, reserved_seeds
from .models import FaultModel

__all__ = ["crash_message", "inject_worker_faults", "worker_fault_models"]

#: Exit code of an injected hard crash (distinguishable from signal deaths).
CRASH_EXIT_CODE = 113


def worker_fault_models(models) -> tuple[FaultModel, ...]:
    """The worker-scope subset of a fault model collection."""
    return tuple(m for m in models if m.scope == "worker")


def inject_worker_faults(
    job_id: int,
    models,
    seed: np.random.SeedSequence | int | None,
) -> None:
    """Apply worker-scope models for one job; returns normally if it survives.

    When a crash fires: hard process exit inside a spawned worker,
    :class:`~repro.exceptions.WorkerCrashError` otherwise.
    """
    crashers = worker_fault_models(models)
    if not crashers:
        return
    (child,) = reserved_seeds(seed, (WORKER_CRASH_INDEX,))
    key = child.generate_state(1, dtype=np.uint64)[0]
    if not any(model.crashes(int(job_id), key) for model in crashers):
        return
    if multiprocessing.parent_process() is not None:
        os._exit(CRASH_EXIT_CODE)
    raise WorkerCrashError(crash_message(int(job_id)))
