"""Named tuning pipelines: one :class:`~repro.registry.Registry` of factories.

Campaign configs, benchmarks, and the CLI reference extraction methods by
name; :data:`PIPELINES` maps each name to a factory that builds a fresh
:class:`~repro.pipeline.composer.TuningPipeline`, and
:data:`METHOD_ALIASES` (this registry's alone) maps the campaign
shorthands onto names.  Fresh instances (rather than shared singletons)
keep stage objects free to hold per-run state without leaking it across
concurrent runs.  A campaign resolves each method once, in the parent,
and its jobs carry the built pipeline to the workers.

The two public extractors front the two compared methods:
:class:`FastVirtualGateExtractor` runs ``fast-extraction`` and
:class:`HoughBaselineExtractor` runs ``dense-grid-baseline``.

Built-ins:

``fast-extraction``
    The paper's four-stage method (anchors → sweeps → filter → fit →
    validate), bit-identical to the historical monolithic extractor.
``dense-grid-baseline``
    The conventional full-scan Canny+Hough baseline (method label stays
    ``"hough-baseline"`` for continuity with existing records and tables).
``no-anchors`` / ``no-filter`` / ``row-sweep-only`` / ``column-sweep-only``
    Ablation variants quantifying what each stage of the fast method buys.
"""

from __future__ import annotations

from typing import Callable

from ..baseline.extraction import BaselineConfig
from ..core.config import ExtractionConfig
from ..core.extraction import METHOD_NAME
from ..core.result import ExtractionResult
from ..exceptions import ConfigurationError
from ..instrument.measurement import ChargeSensorMeter
from ..instrument.session import ExperimentSession
from ..registry import Registry
from .baseline_stages import (
    BaselineValidateStage,
    EdgeDetectStage,
    FullScanStage,
    LineFitStage,
)
from .composer import TuningPipeline
from .stages import (
    AnchorStage,
    FilterStage,
    FitStage,
    FixedCornerAnchorStage,
    SweepStage,
    ValidateStage,
)

__all__ = [
    "PIPELINES",
    "FastVirtualGateExtractor",
    "HoughBaselineExtractor",
    "all_pipelines",
    "get_pipeline",
    "pipeline_catalogue",
    "pipeline_names",
    "register_pipeline",
    "resolve_method",
]

#: Registered pipeline factories, in registration order.
PIPELINES: Registry[Callable[[], TuningPipeline]] = Registry("pipeline")

#: Campaign-grid shorthand for the two methods PR 1 shipped with.
METHOD_ALIASES: dict[str, str] = {
    "fast": "fast-extraction",
    "baseline": "dense-grid-baseline",
}


def register_pipeline(
    name: str, factory: Callable[[], TuningPipeline], overwrite: bool = False
) -> Callable[[], TuningPipeline]:
    """Register a pipeline factory under ``name`` (returns it, so it chains)."""
    return PIPELINES.register(name, factory, overwrite)


def get_pipeline(name: str) -> TuningPipeline:
    """Build a fresh pipeline registered under ``name`` (aliases accepted)."""
    return PIPELINES.get(METHOD_ALIASES.get(name, name))()


def resolve_method(method: str) -> str:
    """Canonical registry name for a campaign method string.

    Raises :class:`ConfigurationError` for names that are neither an alias
    (``"fast"``, ``"baseline"``) nor a registered pipeline.
    """
    resolved = METHOD_ALIASES.get(method, method)
    if resolved not in PIPELINES.names():
        raise ConfigurationError(
            f"unknown extraction method {method!r}; known: "
            f"{', '.join(sorted(set(METHOD_ALIASES) | set(PIPELINES.names())))}"
        )
    return resolved


pipeline_names = PIPELINES.names


def all_pipelines() -> tuple[TuningPipeline, ...]:
    """A fresh instance of every registered pipeline, in registration order."""
    return tuple(factory() for factory in PIPELINES.values())


def pipeline_catalogue() -> str:
    """Plain-text listing of every registered pipeline and its stages."""
    lines = ["Pipeline catalogue", "=" * 18]
    pipelines = all_pipelines()
    width = max((len(p.name) for p in pipelines), default=0)
    for pipeline in pipelines:
        stages = " -> ".join(pipeline.stage_names)
        lines.append(f"{pipeline.name:<{width}}  {stages}")
        detail = pipeline.description or f"method={pipeline.method_name}"
        if pipeline.method_name != pipeline.name:
            detail += f" [method={pipeline.method_name}]"
        lines.append(f"{'':<{width}}  {detail}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Built-in catalogue
# ---------------------------------------------------------------------------


def _baseline_config():
    return BaselineConfig()


register_pipeline(
    "fast-extraction",
    lambda: TuningPipeline(
        "fast-extraction",
        [AnchorStage(), SweepStage(), FilterStage(), FitStage(), ValidateStage()],
        default_config=ExtractionConfig.paper_defaults,
        description="The paper's probe-efficient four-stage method (§4).",
    ),
)

register_pipeline(
    "dense-grid-baseline",
    lambda: TuningPipeline(
        "dense-grid-baseline",
        [FullScanStage(), EdgeDetectStage(), LineFitStage(), BaselineValidateStage()],
        method_name="hough-baseline",
        default_config=_baseline_config,
        description="Conventional full-scan Canny+Hough baseline (§3).",
    ),
)

register_pipeline(
    "no-anchors",
    lambda: TuningPipeline(
        "no-anchors",
        [
            FixedCornerAnchorStage(),
            SweepStage(),
            FilterStage(),
            FitStage(),
            ValidateStage(),
        ],
        default_config=ExtractionConfig.paper_defaults,
        description="Ablation: sweeps start from fixed grid-corner anchors.",
    ),
)

register_pipeline(
    "no-filter",
    lambda: TuningPipeline(
        "no-filter",
        [
            AnchorStage(),
            SweepStage(),
            FilterStage(apply_filter=False),
            FitStage(),
            ValidateStage(),
        ],
        default_config=ExtractionConfig.paper_defaults,
        description="Ablation: raw sweep points go to the fit unfiltered.",
    ),
)

register_pipeline(
    "row-sweep-only",
    lambda: TuningPipeline(
        "row-sweep-only",
        [
            AnchorStage(),
            SweepStage(run_column=False),
            FilterStage(),
            FitStage(),
            ValidateStage(),
        ],
        default_config=ExtractionConfig.paper_defaults,
        description="Ablation: only the row-major (steep-line) sweep runs.",
    ),
)

register_pipeline(
    "column-sweep-only",
    lambda: TuningPipeline(
        "column-sweep-only",
        [
            AnchorStage(),
            SweepStage(run_row=False),
            FilterStage(),
            FitStage(),
            ValidateStage(),
        ],
        default_config=ExtractionConfig.paper_defaults,
        description="Ablation: only the column-major (shallow-line) sweep runs.",
    ),
)


# ---------------------------------------------------------------------------
# The public extractors
# ---------------------------------------------------------------------------


class FastVirtualGateExtractor:
    """Probe-efficient virtual gate extraction for one plunger-gate pair.

    Runs the registered ``fast-extraction`` composition of the paper's
    Section 4 steps (anchors, sweeps, filter, fit).  The result carries the
    exact probe cost, per stage; a failure at any step yields an
    unsuccessful result rather than an exception, because "extraction
    failed on this device" is an outcome the evaluation counts.
    """

    def __init__(self, config: ExtractionConfig | None = None) -> None:
        self._config = config or ExtractionConfig.paper_defaults()

    @property
    def config(self) -> ExtractionConfig:
        """The pipeline configuration."""
        return self._config

    def extract(
        self, target: ExperimentSession | ChargeSensorMeter
    ) -> ExtractionResult:
        """Run the full pipeline against a session (or bare meter)."""
        return get_pipeline(METHOD_NAME).run(target, config=self._config)


class HoughBaselineExtractor:
    """Full-scan virtual gate extraction with Canny edges and Hough lines.

    Runs the registered ``dense-grid-baseline`` composition (§3, §5.1) with
    the fast extractor's interface; its results carry
    ``method="hough-baseline"``.
    """

    def __init__(self, config: BaselineConfig | None = None) -> None:
        self._config = config or BaselineConfig()

    @property
    def config(self) -> BaselineConfig:
        """The baseline configuration."""
        return self._config

    def extract(
        self, target: ExperimentSession | ChargeSensorMeter
    ) -> ExtractionResult:
        """Acquire the full CSD and extract the virtualization matrix."""
        return get_pipeline("dense-grid-baseline").run(target, config=self._config)
