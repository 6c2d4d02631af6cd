"""Pluggable execution backends for batch workloads.

This package is the execution-policy layer promised by the campaign
engine's original contract: *new execution backends slot in behind*
:class:`~repro.campaign.engine.TuningCampaign` *without touching the job or
result schema*.  It knows nothing about tuning — jobs are anything with a
``job_id``, records are whatever ``run_one`` returns — so the same layer
can later serve sharded extraction, dataset generation, or remote-hardware
drivers.

* :class:`~repro.execution.base.ExecutionBackend` — the streaming protocol:
  ``submit(jobs, run_one)`` yields ``(job_id, record)`` in completion order.
* :class:`~repro.execution.backends.SerialBackend`,
  :class:`~repro.execution.backends.ProcessPoolBackend` and
  :class:`~repro.cluster.ClusterBackend` — the stock implementations,
  bit-identical per job at any worker count.  Records travel back from
  workers pickled, on every backend.
* :func:`~repro.execution.base.backend_from_spec` — the one way to choose
  one: ``"serial"``, ``"process"`` (one worker per CPU), ``"process:N"``,
  ``"cluster"`` (two local workers), ``"cluster:local:N"`` or
  ``"cluster:HOST:PORT"``.
* :class:`~repro.execution.controller.RunController` — retry policy,
  per-job fault isolation, progress callbacks, and incremental JSONL
  checkpointing via
  :class:`~repro.execution.checkpoint.CheckpointJournal`, shared by every
  backend.

Typical direct use (the campaign engine wires all of this up for you)::

    from repro.execution import RunController, backend_from_spec

    controller = RunController(backend_from_spec("process:4"))
    records = controller.run(jobs, run_one, on_error=make_error_record)
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
from .controller import RetryPolicy, RunController, guarded_runner

# Imported for its registration side effect: loading the execution layer
# must always make the "cluster" spec resolvable, exactly like the two
# stock backends above.  Deferred to the bottom so the cluster package can
# import .base without a cycle.
from ..cluster import backend as _cluster_backend  # noqa: E402,F401

__all__ = [
    "CheckpointJournal",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "ProgressCallback",
    "RetryPolicy",
    "RunController",
    "SerialBackend",
    "SupportsJobId",
    "WorkerCrash",
    "backend_from_spec",
    "backend_names",
    "crash_message",
    "guarded_runner",
    "register_backend",
]
