"""Built-in stages: the paper's extraction steps as composable units.

Each stage wraps one of the existing probe-spending (or compute-only)
steps — anchor preprocessing, shrinking-triangle sweeps, point filtering,
the two-piece fit, validation, the coarse window search — behind the
:class:`~repro.pipeline.context.Stage` protocol, so named pipelines and
ablation variants are compositions instead of hand-written sequences.  The
stage bodies are the *same code paths* the monolithic extractors ran: a
seeded run through ``fast-extraction`` probes the device in exactly the
same order, and produces bit-identical results, as the pre-pipeline
``FastVirtualGateExtractor.extract``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.anchors import AnchorFinder
from ..core.extraction import gate_names_for
from ..core.fitting import TransitionLineFitter
from ..core.postprocess import build_point_set
from ..core.region import PixelPoint
from ..core.result import AnchorSearchResult
from ..core.sweeps import TransitionLineSweeper
from ..core.virtualization import VirtualizationMatrix
from ..core.window_search import TransitionWindowFinder, WindowSearchConfig
from ..exceptions import ConfigurationError, ExtractionError
from ..instrument.measurement import ChargeSensorMeter
from ..instrument.session import ExperimentSession
from ..instrument.timing import TimingModel
from ..reprs import ContentRepr
from .context import StageOutcome, TuneContext

__all__ = [
    "AnchorStage",
    "FilterStage",
    "FitStage",
    "FixedCornerAnchorStage",
    "OpenSessionStage",
    "StalenessCheck",
    "StalenessCheckStage",
    "SweepStage",
    "ValidateStage",
    "WindowSearchStage",
]


def _require_meter(ctx: TuneContext, stage: str) -> ChargeSensorMeter:
    if ctx.meter is None:
        raise ExtractionError(
            f"stage {stage!r} needs a measurement meter in the context; "
            "run it on a session, or compose an open-session stage first"
        )
    return ctx.meter


class AnchorStage(ContentRepr):
    """Anchor-point preprocessing (paper §4.4): diagonal probe + mask sweeps."""

    name = "anchors"

    def run(self, ctx: TuneContext) -> StageOutcome:
        meter = _require_meter(ctx, self.name)
        ctx.anchors = AnchorFinder(meter, ctx.config.anchors).find()
        return StageOutcome()


class FixedCornerAnchorStage(ContentRepr):
    """Ablation replacement for :class:`AnchorStage`: anchors without probing.

    Places the steep-line anchor at the right grid edge of the starting row
    and the shallow-line anchor at the top grid edge of the starting column
    (both at the configured margin), spanning the largest triangle the grid
    allows.  No probes are spent, but the sweeps start from an unshrunk
    triangle — this is the ``no-anchors`` variant that quantifies what the
    anchor preprocessing actually buys.
    """

    name = "anchors"

    def run(self, ctx: TuneContext) -> StageOutcome:
        meter = _require_meter(ctx, self.name)
        rows, cols = meter.shape
        cfg = ctx.config.anchors
        margin_row = int(round(cfg.start_margin_fraction * (rows - 1)))
        margin_col = int(round(cfg.start_margin_fraction * (cols - 1)))
        steep = PixelPoint(row=margin_row, col=cols - 2)
        shallow = PixelPoint(row=rows - 2, col=margin_col)
        if steep.col <= shallow.col or shallow.row <= steep.row:
            raise ExtractionError(
                f"grid {rows}x{cols} is too small for fixed-corner anchors"
            )
        ctx.anchors = AnchorSearchResult(
            steep_anchor=steep,
            shallow_anchor=shallow,
            start_point=PixelPoint(row=margin_row, col=margin_col),
            diagonal_pixels=(),
            mask_x_responses=np.zeros(0),
            mask_y_responses=np.zeros(0),
        )
        return StageOutcome(detail="fixed-corner anchors (no probes spent)")


class SweepStage(ContentRepr):
    """Shrinking-triangle row- and column-major sweeps (paper §4.3.2).

    ``run_row`` / ``run_column`` switch one sweep off for the
    ``row-sweep-only`` and ``column-sweep-only`` ablation pipelines.
    """

    name = "sweeps"

    def __init__(self, run_row: bool = True, run_column: bool = True) -> None:
        if not (run_row or run_column):
            raise ConfigurationError("at least one of the two sweeps must be enabled")
        self._run_row = run_row
        self._run_column = run_column

    def run(self, ctx: TuneContext) -> StageOutcome:
        meter = _require_meter(ctx, self.name)
        if ctx.anchors is None:
            raise ExtractionError(
                "sweeps stage needs anchor points; compose an anchor stage first"
            )
        sweeper = TransitionLineSweeper(meter, ctx.config.sweeps)
        row_trace, column_trace = sweeper.run(
            ctx.anchors.steep_anchor,
            ctx.anchors.shallow_anchor,
            run_row=self._run_row,
            run_column=self._run_column,
        )
        ctx.extras["sweep_traces"] = (row_trace, column_trace)
        return StageOutcome()


class FilterStage(ContentRepr):
    """Erroneous-point filtering: combine traces into the fit's point set.

    Compute-only (no probes).  The ``no-filter`` ablation passes
    ``apply_filter=False`` to measure what the post-processing filter
    contributes.
    """

    name = "filter"

    def __init__(self, apply_filter: bool = True) -> None:
        self._apply_filter = apply_filter

    def run(self, ctx: TuneContext) -> StageOutcome:
        traces = ctx.extras.get("sweep_traces")
        if traces is None:
            raise ExtractionError(
                "filter stage needs sweep traces; compose a sweep stage first"
            )
        ctx.points = build_point_set(
            traces[0], traces[1], apply_filter=self._apply_filter
        )
        return StageOutcome()


class FitStage(ContentRepr):
    """Two-piece-wise linear fit and slope → matrix conversion (§4.3.3, §2.3)."""

    name = "fit"

    def run(self, ctx: TuneContext) -> StageOutcome:
        meter = _require_meter(ctx, self.name)
        if ctx.anchors is None or ctx.points is None:
            raise ExtractionError(
                "fit stage needs anchors and a transition point set; "
                "compose anchor and sweep stages first"
            )
        if ctx.gate_x is None or ctx.gate_y is None:
            raise ExtractionError(
                "fit stage needs the context's gate names; the composer "
                "resolves them from the meter backend when unset"
            )
        xs = meter.x_voltages
        ys = meter.y_voltages
        filtered = ctx.points.filtered_points
        voltage_points = np.array(
            [[xs[col], ys[row]] for row, col in filtered], dtype=float
        )
        steep_anchor_v = (
            float(xs[ctx.anchors.steep_anchor.col]),
            float(ys[ctx.anchors.steep_anchor.row]),
        )
        shallow_anchor_v = (
            float(xs[ctx.anchors.shallow_anchor.col]),
            float(ys[ctx.anchors.shallow_anchor.row]),
        )
        fitter = TransitionLineFitter(ctx.config.fit)
        # The fit lands in the context *before* the matrix conversion, so a
        # conversion failure still leaves the fit visible for diagnosis
        # (mirroring the monolithic extractor's assignment order).
        ctx.fit = fitter.fit(voltage_points, steep_anchor_v, shallow_anchor_v)
        ctx.slopes = (ctx.fit.slope_steep, ctx.fit.slope_shallow)
        ctx.matrix = VirtualizationMatrix.from_slopes(
            slope_steep=ctx.fit.slope_steep,
            slope_shallow=ctx.fit.slope_shallow,
            gate_x=ctx.gate_x,
            gate_y=ctx.gate_y,
        )
        return StageOutcome()


def slope_bounds_reject_reason(
    slope_steep: float,
    slope_shallow: float,
    matrix,
    min_steep_slope_magnitude: float,
    max_shallow_slope_magnitude: float,
    max_alpha: float,
) -> str | None:
    """The physical-bounds checks shared by both methods' validators.

    Steep minimum, shallow maximum, and the alpha ranges are the same
    physics for the fast extraction and the dense-grid baseline — one
    implementation keeps their bounds and messages from diverging.  The
    steep check is skipped for a non-finite steep slope (a truly vertical
    Hough line), matching the baseline's historical behaviour; the fast
    validator rejects non-finite slopes before calling this.
    """
    if np.isfinite(slope_steep) and abs(slope_steep) < min_steep_slope_magnitude:
        return (
            f"steep slope magnitude {abs(slope_steep):.3f} below the physical "
            f"minimum {min_steep_slope_magnitude}"
        )
    if abs(slope_shallow) > max_shallow_slope_magnitude:
        return (
            f"shallow slope magnitude {abs(slope_shallow):.3f} above the physical "
            f"maximum {max_shallow_slope_magnitude}"
        )
    if not (0.0 <= matrix.alpha_12 <= max_alpha):
        return f"alpha_12 = {matrix.alpha_12:.3f} outside [0, {max_alpha}]"
    if not (0.0 <= matrix.alpha_21 <= max_alpha):
        return f"alpha_21 = {matrix.alpha_21:.3f} outside [0, {max_alpha}]"
    return None


class ValidateStage(ContentRepr):
    """Physical-plausibility validation of the fitted slopes and matrix.

    Completes with ``status="failed"`` (rather than raising) when the run
    is rejected, so the rejected matrix stays in the result for diagnosis —
    callers of a failed run need to see *what* was extracted alongside the
    reason it was rejected.
    """

    name = "validate"

    def run(self, ctx: TuneContext) -> StageOutcome:
        reason = self._reject_reason(ctx)
        if reason is not None:
            return StageOutcome(status="failed", detail=reason)
        return StageOutcome()

    @staticmethod
    def _reject_reason(ctx: TuneContext) -> str | None:
        fit, matrix = ctx.fit, ctx.matrix
        if fit is None or matrix is None:
            return "pipeline did not produce a fit"
        cfg = ctx.config.fit
        if not (np.isfinite(fit.slope_steep) and np.isfinite(fit.slope_shallow)):
            return "fitted slopes are not finite"
        if fit.slope_steep >= 0 or fit.slope_shallow >= 0:
            return (
                "fitted slopes must both be negative (device physics); got "
                f"steep={fit.slope_steep:.3f}, shallow={fit.slope_shallow:.3f}"
            )
        return slope_bounds_reject_reason(
            fit.slope_steep,
            fit.slope_shallow,
            matrix,
            min_steep_slope_magnitude=cfg.min_steep_slope_magnitude,
            max_shallow_slope_magnitude=cfg.max_shallow_slope_magnitude,
            max_alpha=cfg.max_alpha,
        )


# ---------------------------------------------------------------------------
# Workflow setup stages
# ---------------------------------------------------------------------------


class WindowSearchStage(ContentRepr):
    """Coarse transition-window search over the full safe gate range.

    Probes through a private coarse meter (the window search owns its own
    grid), so the stage reports its cost explicitly instead of relying on
    the composer's ``ctx.meter`` snapshot.  Sets ``ctx.window``.
    """

    name = "window-search"

    def __init__(
        self,
        device,
        gate_x: int | str = "P1",
        gate_y: int | str = "P2",
        x_range: tuple[float, float] | None = None,
        y_range: tuple[float, float] | None = None,
        noise=None,
        seed=None,
        timing: TimingModel | None = None,
        config: WindowSearchConfig | None = None,
        drift=None,
        time_dependent_noise: bool = False,
    ) -> None:
        self._finder = TransitionWindowFinder(
            device,
            gate_x=gate_x,
            gate_y=gate_y,
            x_range=x_range,
            y_range=y_range,
            noise=noise,
            seed=seed,
            timing=timing,
            config=config,
            drift=drift,
            time_dependent_noise=time_dependent_noise,
        )

    def run(self, ctx: TuneContext) -> StageOutcome:
        result = self._finder.find()
        ctx.window = result
        return StageOutcome(
            n_probes=result.n_probes,
            n_requests=result.n_probes,
            cache_hits=0,
            sim_elapsed_s=result.elapsed_s,
        )


class OpenSessionStage(ContentRepr):
    """Open the fine measurement session inside the found window.

    Cost-free (the session is opened, nothing is probed); installs the
    session, its meter, and its clock into the context so the extraction
    stages that follow probe the right grid.
    """

    name = "open-session"

    def __init__(
        self,
        device,
        resolution: int,
        gate_x: int | str = "P1",
        gate_y: int | str = "P2",
        dot_a: int = 0,
        dot_b: int = 1,
        noise=None,
        seed=None,
        timing: TimingModel | None = None,
        drift=None,
        time_dependent_noise: bool = False,
        label: str | None = None,
    ) -> None:
        self._device = device
        self._resolution = resolution
        self._gate_x = gate_x
        self._gate_y = gate_y
        self._dot_a = dot_a
        self._dot_b = dot_b
        self._noise = noise
        self._seed = seed
        self._timing = timing
        self._drift = drift
        self._time_dependent_noise = time_dependent_noise
        self._label = label

    def run(self, ctx: TuneContext) -> StageOutcome:
        if ctx.window is None:
            raise ExtractionError(
                "open-session stage needs a transition window; compose a "
                "window-search stage first (or set ctx.window directly)"
            )
        session = ExperimentSession.from_device(
            self._device,
            resolution=self._resolution,
            window=ctx.window.window,
            gate_x=self._gate_x,
            gate_y=self._gate_y,
            dot_a=self._dot_a,
            dot_b=self._dot_b,
            noise=self._noise,
            seed=self._seed,
            timing=self._timing,
            drift=self._drift,
            time_dependent_noise=self._time_dependent_noise,
            label=self._label or f"{self._device.name}:autotune",
        )
        ctx.session = session
        ctx.meter = session.meter
        ctx.clock = session.meter.clock
        if ctx.gate_x is None or ctx.gate_y is None:
            ctx.gate_x, ctx.gate_y = gate_names_for(session.meter)
        return StageOutcome()


@dataclass(frozen=True)
class StalenessCheck:
    """Outcome of one cheap re-probe of the reference pixels."""

    checked_at_s: float
    max_deviation_na: float
    threshold_na: float
    n_check_pixels: int

    @property
    def stale(self) -> bool:
        """Whether the device moved past the tolerance since last extraction."""
        return self.max_deviation_na > self.threshold_na


class StalenessCheckStage(ContentRepr):
    """Re-probe reference pixels at the device's current age (retuning mode).

    Probes through a fresh cache-off meter on the shared timeline clock —
    the whole point is paying for fresh values — and reports the outcome as
    a :class:`StalenessCheck` in
    ``ctx.extras["staleness_check"]``.  Costs are reported explicitly
    because the probe goes through the stage's private meter.
    """

    name = "staleness-check"

    def __init__(
        self,
        backend,
        clock,
        rows: np.ndarray,
        cols: np.ndarray,
        reference: np.ndarray,
        threshold_na: float,
    ) -> None:
        self._backend = backend
        self._clock = clock
        self._rows = rows
        self._cols = cols
        self._reference = reference
        self._threshold_na = threshold_na

    def run(self, ctx: TuneContext) -> StageOutcome:
        started_s = self._clock.elapsed_s
        check_meter = ChargeSensorMeter(self._backend, clock=self._clock, cache=False)
        fresh = check_meter.get_currents(self._rows, self._cols)
        deviation = float(np.max(np.abs(fresh - self._reference)))
        check = StalenessCheck(
            checked_at_s=self._clock.elapsed_s,
            max_deviation_na=deviation,
            threshold_na=self._threshold_na,
            n_check_pixels=int(self._rows.size),
        )
        ctx.extras["staleness_check"] = check
        return StageOutcome(
            detail="stale" if check.stale else "fresh",
            n_probes=check_meter.n_probes,
            n_requests=check_meter.n_requests,
            cache_hits=0,
            sim_elapsed_s=self._clock.elapsed_s - started_s,
        )
