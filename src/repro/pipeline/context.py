"""The tuning-pipeline contract: stages, outcomes, and the shared context.

The paper's extraction is a *sequence* of probe-spending steps; this module
gives that sequence an explicit shape so ablations, method variants, and
per-stage cost accounting stop requiring copy-paste:

* a :class:`Stage` is one step — it reads and writes the shared
  :class:`TuneContext` and reports a :class:`StageOutcome`;
* a :class:`TuneContext` carries everything stages exchange: the measurement
  meter, the configuration, and the accumulated artifacts (anchors,
  transition points, fit, matrix);
* the composer (:mod:`repro.pipeline.composer`) wraps every stage with
  meter snapshot/diff accounting, producing one
  :class:`~repro.core.result.StageTelemetry` row per stage.

Stages signal an unrecoverable failure by raising
:class:`~repro.exceptions.ExtractionError` (or a subclass); the composer
converts that into an unsuccessful result with the telemetry of every
completed stage intact.  A stage that *completes* but rejects the run (the
validation stage) returns ``StageOutcome(status="failed", detail=...)``
instead, which preserves the artifacts extracted so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from ..core.result import (
    AnchorSearchResult,
    SlopeFitResult,
    TransitionPointSet,
)
from ..core.virtualization import VirtualizationMatrix
from ..core.window_search import WindowSearchResult
from ..exceptions import ConfigurationError
from ..instrument.measurement import ChargeSensorMeter

__all__ = ["Stage", "StageOutcome", "TuneContext"]


@dataclass(frozen=True)
class StageOutcome:
    """What a stage reports back to the composer.

    ``status`` is ``"ok"`` or ``"failed"`` (the stage completed but rejects
    the run — artifacts are kept).  A stage's cost is not reported here:
    every stage probes through ``ctx.meter``, and the composer charges it
    the meter's snapshot/diff.
    """

    status: str = "ok"
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("ok", "failed"):
            raise ConfigurationError(
                f"stage outcome status must be 'ok' or 'failed'; got {self.status!r}"
            )


@runtime_checkable
class Stage(Protocol):
    """One step of a tuning pipeline.

    Implementations need a stable ``name`` (used in telemetry and reports)
    and a ``run`` that mutates the shared context and returns a
    :class:`StageOutcome` (or ``None``, shorthand for success).
    """

    @property
    def name(self) -> str:
        """Stable stage name used in telemetry rows and report tables."""
        ...

    def run(self, ctx: "TuneContext") -> StageOutcome | None:
        """Execute the stage against the shared context."""
        ...


@dataclass
class TuneContext:
    """Mutable state shared by the stages of one pipeline run.

    The fixed slots cover the artifacts the built-in stages exchange; the
    ``extras`` dict is the open extension point for custom stages (keyed by
    convention on the producing stage's name).  ``metadata`` is copied into
    the final :class:`~repro.core.result.ExtractionResult.metadata`.
    """

    meter: ChargeSensorMeter | None = None
    config: Any = None
    # Resolved from the meter's backend by the composer when left unset;
    # an unset pair is *not* defaulted to ("P1", "P2") — that would silently
    # mislabel matrices from custom backends (see gate_names_for).
    gate_x: str | None = None
    gate_y: str | None = None
    # Accumulated artifacts ------------------------------------------------
    window: WindowSearchResult | None = None
    anchors: AnchorSearchResult | None = None
    points: TransitionPointSet | None = None
    fit: SlopeFitResult | None = None
    matrix: VirtualizationMatrix | None = None
    slopes: tuple[float, float] | None = None
    metadata: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
