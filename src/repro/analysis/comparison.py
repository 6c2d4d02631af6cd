"""Head-to-head comparison harness: fast extraction vs the Hough baseline.

This is the machinery behind Table 1: for every benchmark diagram it runs
both methods on *independent* replay sessions of the same data (so probe
counts and simulated runtimes do not leak between methods), scores each
against the ground truth, and collects everything into
:class:`BenchmarkRecord` rows that the reporting module formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..baseline.extraction import BaselineConfig
from ..core.config import ExtractionConfig
from ..core.result import ExtractionResult
from ..instrument.session import ExperimentSession
from ..instrument.timing import TimingModel
from ..physics.csd import ChargeStabilityDiagram
from ..pipeline.registry import FastVirtualGateExtractor, HoughBaselineExtractor
from .metrics import AccuracyMetrics, SuccessCriterion, accuracy_metrics, speedup


@dataclass(frozen=True)
class MethodRecord:
    """One method's outcome on one benchmark."""

    method: str
    success: bool
    result: ExtractionResult
    accuracy: AccuracyMetrics | None

    @property
    def n_probes(self) -> int:
        """Physically probed points."""
        return self.result.probe_stats.n_probes

    @property
    def probe_fraction(self) -> float:
        """Fraction of the diagram probed."""
        return self.result.probe_stats.probe_fraction

    @property
    def elapsed_s(self) -> float:
        """Simulated experiment runtime in seconds."""
        return self.result.probe_stats.elapsed_s


@dataclass(frozen=True)
class BenchmarkRecord:
    """Both methods' outcomes on one benchmark diagram."""

    index: int
    name: str
    resolution: tuple[int, int]
    fast: MethodRecord
    baseline: MethodRecord
    metadata: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float | None:
        """Baseline / fast runtime ratio, only defined when the fast method succeeds."""
        if not self.fast.success:
            return None
        return speedup(self.baseline.elapsed_s, self.fast.elapsed_s)

    @property
    def size_label(self) -> str:
        """Human-readable resolution, e.g. ``"100x100"``."""
        return f"{self.resolution[1]}x{self.resolution[0]}"


class ComparisonRunner:
    """Run both extraction methods over benchmark diagrams."""

    def __init__(
        self,
        fast_config: ExtractionConfig | None = None,
        baseline_config: BaselineConfig | None = None,
        timing: TimingModel | None = None,
        criterion: SuccessCriterion | None = None,
    ) -> None:
        self._fast_config = fast_config or ExtractionConfig.paper_defaults()
        self._baseline_config = baseline_config or BaselineConfig()
        self._timing = timing or TimingModel.paper_default()
        self._criterion = criterion or SuccessCriterion()

    @property
    def criterion(self) -> SuccessCriterion:
        """The ground-truth success criterion."""
        return self._criterion

    # ------------------------------------------------------------------
    def run_benchmark(
        self, csd: ChargeStabilityDiagram, index: int = 0, name: str | None = None
    ) -> BenchmarkRecord:
        """Run fast extraction and the baseline on one diagram."""
        label = name or str(csd.metadata.get("name", f"benchmark-{index}"))
        fast_session = ExperimentSession.from_csd(csd, timing=self._timing, label=label)
        fast_result = FastVirtualGateExtractor(self._fast_config).extract(fast_session)
        baseline_session = ExperimentSession.from_csd(csd, timing=self._timing, label=label)
        baseline_result = HoughBaselineExtractor(self._baseline_config).extract(
            baseline_session
        )
        fast_record = self._score(fast_result, csd)
        baseline_record = self._score(baseline_result, csd)
        metadata = dict(csd.metadata)
        if csd.geometry is not None:
            metadata["true_alpha_12"] = csd.geometry.alpha_12
            metadata["true_alpha_21"] = csd.geometry.alpha_21
        return BenchmarkRecord(
            index=index,
            name=label,
            resolution=csd.shape,
            fast=fast_record,
            baseline=baseline_record,
            metadata=metadata,
        )

    def run_suite(self, csds: list[ChargeStabilityDiagram]) -> list[BenchmarkRecord]:
        """Run both methods on every diagram of a suite (Table 1)."""
        return [
            self.run_benchmark(csd, index=index, name=str(csd.metadata.get("name", "")))
            for index, csd in enumerate(csds, start=1)
        ]

    # ------------------------------------------------------------------
    def _score(self, result: ExtractionResult, csd: ChargeStabilityDiagram) -> MethodRecord:
        geometry = csd.geometry
        accuracy = accuracy_metrics(result, geometry) if geometry is not None else None
        success = self._criterion.evaluate(result, geometry)
        return MethodRecord(
            method=result.method, success=success, result=result, accuracy=accuracy
        )
