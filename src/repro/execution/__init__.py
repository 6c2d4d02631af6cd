"""Pluggable execution backends for batch workloads.

This package is the execution-policy layer behind
:class:`~repro.campaign.engine.TuningCampaign`: *new execution backends
slot in without touching the job or result schema*.  It knows nothing
about tuning — jobs are anything with a ``job_id``, records are whatever
``run_one`` returns — so the same layer can later serve sharded
extraction, dataset generation, or remote-hardware drivers.

* :class:`~repro.execution.base.ExecutionBackend` — the streaming protocol:
  ``submit(jobs, run_one)`` yields ``(job_id, record)`` in completion order,
  and a :class:`~repro.execution.base.WorkerCrash` marker (described by
  :func:`~repro.execution.base.crash_message`) for a job whose worker died.
* :class:`~repro.execution.backends.SerialBackend`,
  :class:`~repro.execution.backends.ProcessPoolBackend` and
  :class:`~repro.cluster.ClusterBackend` — the stock implementations,
  bit-identical per job at any worker count.  Records travel back from
  workers pickled, on every backend.
* :func:`~repro.execution.base.backend_from_spec` — the one way to choose
  one: ``"serial"``, ``"process"`` (one worker per CPU), ``"process:N"``,
  ``"cluster"`` (two local workers), ``"cluster:local:N"`` or
  ``"cluster:HOST:PORT"``.  The cluster layer sits above this one and
  registers its specs when :mod:`repro.cluster.backend` loads, which the
  ``repro`` package root does before any submodule runs.
* :class:`~repro.execution.checkpoint.CheckpointJournal` — the incremental
  JSONL checkpoint a campaign appends each record to as it streams in.

The campaign loop (:meth:`~repro.campaign.engine.TuningCampaign.run`) is
the one caller of ``submit``: it owns per-job fault isolation, crash
markers, journaling and progress.
"""

from .backends import ProcessPoolBackend, SerialBackend
from .base import (
    ExecutionBackend,
    ProgressCallback,
    SupportsJobId,
    WorkerCrash,
    backend_from_spec,
    backend_names,
    crash_message,
    register_backend,
)
from .checkpoint import CheckpointJournal

__all__ = [
    "CheckpointJournal",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "ProgressCallback",
    "SerialBackend",
    "SupportsJobId",
    "WorkerCrash",
    "backend_from_spec",
    "backend_names",
    "crash_message",
    "register_backend",
]
