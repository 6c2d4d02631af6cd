"""Named fault conditions: one :class:`~repro.registry.Registry` of model tuples.

Campaign grids and CLI flags refer to fault conditions by name
(``faults="flaky-lab"``); :data:`FAULTS` maps each name to a tuple of
:class:`~repro.faults.models.FaultModel` instances.  Entries are frozen
dataclasses — picklable, content-repr'd — so they ship to spawn-start
workers on resolved campaign jobs and participate in checkpoint
fingerprints, and the lint contract audit
(:func:`repro.lint.contracts.audit_registry_contracts`) walks this registry
exactly as it walks the others.  A condition cannot be overwritten.
"""

from __future__ import annotations

from ..exceptions import ConfigurationError
from ..registry import Registry
from .models import (
    DropoutFault,
    FaultModel,
    ProbeHangFault,
    StuckSensorFault,
    TransientReadFault,
    WorkerCrashFault,
)

__all__ = [
    "FAULTS",
    "all_faults",
    "fault_names",
    "get_fault",
    "models_for",
    "register_fault",
]

#: Every registered fault condition: name -> tuple of fault models.
FAULTS: Registry[tuple[FaultModel, ...]] = Registry("fault condition")


def register_fault(name: str, models) -> None:
    """Register a named fault condition (a tuple of fault models)."""
    models = (models,) if isinstance(models, FaultModel) else tuple(models)
    if not models:
        raise ConfigurationError(
            f"fault condition {name!r} must contain at least one model"
        )
    for model in models:
        if not isinstance(model, FaultModel):
            raise TypeError(
                f"fault condition {name!r} contains a non-FaultModel entry: "
                f"{model!r}"
            )
    FAULTS.register(name, models)


get_fault = FAULTS.get


def fault_names() -> tuple[str, ...]:
    """Registered fault-condition names, sorted."""
    return tuple(sorted(FAULTS.names()))


def all_faults() -> dict[str, tuple[FaultModel, ...]]:
    """Copy of the whole registry (name -> models)."""
    return dict(FAULTS.items())


def models_for(spec) -> tuple[FaultModel, ...]:
    """Normalise any fault specification into a tuple of models.

    Accepts ``None`` (no faults), a registered name, a single model, or an
    iterable of models — the shapes ``LabScenario.faults`` / session
    ``faults=`` arguments may take.
    """
    if spec is None:
        return ()
    if isinstance(spec, str):
        return get_fault(spec)
    if isinstance(spec, FaultModel):
        return (spec,)
    models: list[FaultModel] = []
    for entry in spec:
        models.extend(models_for(entry))
    return tuple(models)


# ---------------------------------------------------------------------------
# Built-in conditions.  Rates are chosen so a ~1000-probe extraction sees a
# handful of events: frequent enough to exercise every retry path, rare
# enough that a default ProbeRetryPolicy still completes the tuning run.
# ---------------------------------------------------------------------------

register_fault("transient-reads", (TransientReadFault(rate=0.05),))
register_fault("probe-hangs", (ProbeHangFault(rate=0.01, hang_s=5.0),))
register_fault("stuck-sensor", (StuckSensorFault(rate=0.05, window_s=10.0),))
register_fault("dropout-bursts", (DropoutFault(rate=0.02, burst_s=2.0, within_rate=0.9),))
register_fault("worker-crashes", (WorkerCrashFault(rate=0.25),))
register_fault(
    "flaky-lab",
    (
        TransientReadFault(rate=0.02),
        ProbeHangFault(rate=0.005, hang_s=2.0),
        DropoutFault(rate=0.01, burst_s=2.0, within_rate=0.75),
    ),
)
