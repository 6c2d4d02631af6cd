"""The extraction procedures: named stage compositions with per-stage telemetry.

:mod:`repro.core` holds the paper's steps; this package owns every
procedure built from them.  The paper's four-stage extraction, the
dense-grid baseline, and the auto-tuning workflow around them are
compositions of :class:`~repro.pipeline.context.Stage` objects over a
shared :class:`~repro.pipeline.context.TuneContext`.  The composer charges
every stage for exactly what it probed (meter snapshot/diff), and the
resulting :class:`~repro.core.result.StageTelemetry` rows ride the result
objects all the way into campaign records and report tables.

* :class:`FastVirtualGateExtractor` and :class:`HoughBaselineExtractor` —
  the two compared methods, fronting the registered ``fast-extraction``
  and ``dense-grid-baseline`` compositions;
* :class:`ArrayVirtualGateExtractor` — the n-dot procedure (§2.3): the
  fast extractor once per neighbouring pair;
* :class:`AutoTuningWorkflow` — window search, then extraction, with an
  optional drift-aware retuning mode.

The last two take a :class:`~repro.instrument.session.SessionFactory`, the
simulated lab, and open every grid they measure through its ``make``.

Quick tour::

    from repro.pipeline import get_pipeline, pipeline_names

    pipeline = get_pipeline("fast-extraction")
    result = pipeline.run(session)          # ExtractionResult, as before
    for t in result.stage_telemetry:        # ...now with per-stage costs
        print(t.stage, t.n_probes, t.sim_elapsed_s)

``python -m repro.pipeline --list`` prints the registered catalogue.
"""

from ..core.result import StageTelemetry
from .array_extraction import (
    ArrayExtractionResult,
    ArrayVirtualGateExtractor,
    PairExtractionRecord,
)
from .baseline_stages import (
    BaselineValidateStage,
    EdgeDetectStage,
    FullScanStage,
    LineFitStage,
)
from .composer import TuningPipeline, run_stage
from .context import Stage, StageOutcome, TuneContext
from .registry import (
    METHOD_ALIASES,
    FastVirtualGateExtractor,
    HoughBaselineExtractor,
    all_pipelines,
    get_pipeline,
    pipeline_catalogue,
    pipeline_names,
    register_pipeline,
    resolve_method,
)
from .stages import (
    AnchorStage,
    FilterStage,
    FitStage,
    FixedCornerAnchorStage,
    OpenSessionStage,
    StalenessCheck,
    StalenessCheckStage,
    SweepStage,
    ValidateStage,
    WindowSearchStage,
)
from .workflow import (
    AutoTuneResult,
    AutoTuningWorkflow,
    DriftAwareTuneResult,
    RetuneCycle,
)

__all__ = [
    "METHOD_ALIASES",
    "AnchorStage",
    "ArrayExtractionResult",
    "ArrayVirtualGateExtractor",
    "AutoTuneResult",
    "AutoTuningWorkflow",
    "BaselineValidateStage",
    "DriftAwareTuneResult",
    "EdgeDetectStage",
    "FastVirtualGateExtractor",
    "FilterStage",
    "FitStage",
    "FixedCornerAnchorStage",
    "FullScanStage",
    "HoughBaselineExtractor",
    "LineFitStage",
    "OpenSessionStage",
    "PairExtractionRecord",
    "RetuneCycle",
    "Stage",
    "StageOutcome",
    "StageTelemetry",
    "StalenessCheck",
    "StalenessCheckStage",
    "SweepStage",
    "TuneContext",
    "TuningPipeline",
    "ValidateStage",
    "WindowSearchStage",
    "all_pipelines",
    "get_pipeline",
    "pipeline_catalogue",
    "pipeline_names",
    "register_pipeline",
    "resolve_method",
    "run_stage",
]
