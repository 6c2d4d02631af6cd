"""Result containers for the extraction pipeline stages.

These dataclasses carry everything the evaluation and the example scripts
need: what was found (anchors, transition points, slopes, the virtualization
matrix), what it cost (probe counts, simulated runtime), and enough
intermediate detail (per-sweep traces, filtered point sets) to reproduce the
paper's illustrative figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..strictjson import record
from .region import PixelPoint
from .virtualization import VirtualizationMatrix


@record
@dataclass(frozen=True)
class StageTelemetry:
    """Cost and outcome of one pipeline stage, as measured by the meter.

    Probe/request/cache/simulated-time numbers are snapshot *deltas* over
    the stage (see :meth:`~repro.instrument.measurement.ChargeSensorMeter.snapshot`),
    so summing a run's stage telemetry reproduces the run's
    :class:`ProbeStatistics` totals exactly.  ``wall_s`` is real compute
    time — useful for profiling, but nondeterministic; comparisons of
    seeded runs go through :meth:`normalized`.
    """

    stage: str
    outcome: str  # "ok" | "failed"
    n_probes: int = 0
    n_requests: int = 0
    cache_hits: int = 0
    sim_elapsed_s: float = 0.0
    wall_s: float = 0.0
    detail: str = ""

    def normalized(self, wall_s: float = 0.0) -> "StageTelemetry":
        """This telemetry with the wall clock pinned, for determinism checks."""
        return replace(self, wall_s=wall_s)


@dataclass(frozen=True)
class AnchorSearchResult:
    """Output of the anchor-point preprocessing (paper §4.4)."""

    steep_anchor: PixelPoint
    shallow_anchor: PixelPoint
    start_point: PixelPoint
    diagonal_pixels: tuple[tuple[int, int], ...]
    mask_x_responses: np.ndarray
    mask_y_responses: np.ndarray

    @property
    def anchors(self) -> tuple[PixelPoint, PixelPoint]:
        """``(steep_anchor, shallow_anchor)``."""
        return self.steep_anchor, self.shallow_anchor


@dataclass(frozen=True)
class SweepTrace:
    """Transition points located by one sweep (row-major or column-major)."""

    direction: str
    transition_points: tuple[tuple[int, int], ...]
    segment_lengths: tuple[int, ...]

    @property
    def n_points(self) -> int:
        """Number of transition points located."""
        return len(self.transition_points)

    @property
    def total_probed_segments(self) -> int:
        """Total number of candidate pixels examined across all segments."""
        return int(sum(self.segment_lengths))


@dataclass(frozen=True)
class TransitionPointSet:
    """Raw and filtered transition points from both sweeps."""

    row_sweep: SweepTrace
    column_sweep: SweepTrace
    filtered_points: tuple[tuple[int, int], ...]

    @property
    def raw_points(self) -> tuple[tuple[int, int], ...]:
        """All points located by the two sweeps, before filtering."""
        return self.row_sweep.transition_points + self.column_sweep.transition_points

    @property
    def n_filtered(self) -> int:
        """Number of points surviving the post-processing filter."""
        return len(self.filtered_points)


@dataclass(frozen=True)
class SlopeFitResult:
    """Output of the two-piece-wise linear fit (paper §4.3.3)."""

    intersection_voltage: tuple[float, float]
    slope_steep: float
    slope_shallow: float
    residual_rms: float
    n_points_used: int


@dataclass(frozen=True)
class ProbeStatistics:
    """Cost of an extraction run in probes and simulated seconds."""

    n_probes: int
    n_requests: int
    n_pixels: int
    elapsed_s: float

    @property
    def probe_fraction(self) -> float:
        """Fraction of the CSD grid that was physically measured."""
        if self.n_pixels == 0:
            return 0.0
        return self.n_probes / float(self.n_pixels)


@dataclass(frozen=True)
class ExtractionResult:
    """Complete outcome of one virtual gate extraction run."""

    success: bool
    method: str
    matrix: VirtualizationMatrix | None
    slopes: tuple[float, float] | None
    probe_stats: ProbeStatistics
    anchors: AnchorSearchResult | None = None
    points: TransitionPointSet | None = None
    fit: SlopeFitResult | None = None
    failure_reason: str = ""
    metadata: dict = field(default_factory=dict)
    stage_telemetry: tuple[StageTelemetry, ...] = ()

    @property
    def alpha_12(self) -> float | None:
        """Extracted ``alpha_12`` (None when extraction failed)."""
        return self.matrix.alpha_12 if self.matrix is not None else None

    @property
    def alpha_21(self) -> float | None:
        """Extracted ``alpha_21`` (None when extraction failed)."""
        return self.matrix.alpha_21 if self.matrix is not None else None

    def stage(self, name: str) -> StageTelemetry | None:
        """Telemetry of the named stage, or ``None`` when it never ran."""
        for telemetry in self.stage_telemetry:
            if telemetry.stage == name:
                return telemetry
        return None

    def summary(self) -> dict:
        """Flat summary, as an auto-tuning outcome's ``summary()`` embeds it."""
        return {
            "method": self.method,
            "success": self.success,
            "alpha_12": self.alpha_12,
            "alpha_21": self.alpha_21,
            "slope_steep": self.slopes[0] if self.slopes else None,
            "slope_shallow": self.slopes[1] if self.slopes else None,
            "n_probes": self.probe_stats.n_probes,
            "probe_fraction": self.probe_stats.probe_fraction,
            "elapsed_s": self.probe_stats.elapsed_s,
            "failure_reason": self.failure_reason,
        }
