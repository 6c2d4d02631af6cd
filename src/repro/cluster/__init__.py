"""Multi-host campaign execution: coordinator, workers, wire protocol.

The cluster layer scales the :mod:`repro.execution` backend seam across
machines: a :class:`~repro.cluster.backend.ClusterBackend` speaks the same
streaming ``submit(jobs, run_one)`` contract as the in-process backends,
but dispatches over TCP to worker processes — local subprocesses via
:class:`~repro.cluster.backend.LocalCluster`, or remote machines running
``python -m repro.cluster worker --connect HOST:PORT``.

Scheduling is adaptive-lease work stealing with cache-affine placement
(:mod:`repro.cluster.coordinator`); worker death is detected by missed
heartbeats or connection loss and condensed into the canonical
:class:`~repro.execution.base.WorkerCrash` markers, so campaigns remain
bit-identical to a serial run under any worker count, chaos included.
Select it like any backend: ``TuningCampaign(grid, backend="cluster:local:4")``.
"""

from .backend import ClusterBackend, LocalCluster, job_affinity
from .coordinator import DEFAULT_HEARTBEAT_S, ClusterStats, Coordinator
from .wire import MESSAGE_CLASSES, recv_message, send_message
from .worker import worker_main

__all__ = [
    "ClusterBackend",
    "ClusterStats",
    "Coordinator",
    "DEFAULT_HEARTBEAT_S",
    "LocalCluster",
    "MESSAGE_CLASSES",
    "job_affinity",
    "recv_message",
    "send_message",
    "worker_main",
]
