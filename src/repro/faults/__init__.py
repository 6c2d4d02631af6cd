"""Deterministic fault injection: seeded chaos for the simulated lab.

The ROADMAP's next tier (campaign server, actor fleet, remote instrument
drivers) assumes the stack survives a misbehaving lab.  This subpackage
supplies the misbehaviour — reproducibly:

* :mod:`repro.faults.models` defines :class:`FaultModel` and the seeded
  built-ins (transient read errors, probe hangs, stuck/railed sensors,
  burst-correlated dropouts, worker crashes).  Draws are pure functions of
  the probe timestamp and a :class:`numpy.random.SeedSequence`-derived key,
  so a probe fails the same way however its batch is split, and every chaos
  run is bit-reproducible.
* :class:`FaultyBackend` wraps any measurement backend with probe-scope
  models; the meter's retry/backoff/circuit-breaker machinery
  (:class:`~repro.instrument.resilience.ProbeRetryPolicy`) tolerates them.
* :mod:`repro.faults.registry` names fault conditions for campaign grids
  (``faults=("flaky-lab",)``), mirroring the scenario/pipeline/backend
  registries and audited by the same lint contracts.

Typical use::

    from repro.instrument import ProbeRetryPolicy, SessionFactory

    factory = SessionFactory(
        device,
        faults="flaky-lab",
        probe_retry=ProbeRetryPolicy(max_attempts=4, backoff_s=0.1),
    )
    session = factory.make(seed=7)

Every session the factory opens carries the faults and the retry policy,
so every procedure that measures through it —
``AutoTuningWorkflow(factory)``'s coarse scan and extraction included —
runs on the same misbehaving lab.
"""

from .backend import BatchPlan, FaultyBackend, ProbeDisruption, probe_fault_models
from .injection import crash_message, inject_worker_faults, worker_fault_models
from .models import (
    DropoutFault,
    FaultModel,
    ProbeHangFault,
    StuckSensorFault,
    TransientReadFault,
    WorkerCrashFault,
    fault_uniforms,
)
from .registry import all_faults, fault_names, get_fault, models_for, register_fault

__all__ = [
    "BatchPlan",
    "DropoutFault",
    "FaultModel",
    "FaultyBackend",
    "ProbeDisruption",
    "ProbeHangFault",
    "StuckSensorFault",
    "TransientReadFault",
    "WorkerCrashFault",
    "all_faults",
    "crash_message",
    "fault_names",
    "fault_uniforms",
    "inject_worker_faults",
    "worker_fault_models",
    "get_fault",
    "models_for",
    "probe_fault_models",
    "register_fault",
]
