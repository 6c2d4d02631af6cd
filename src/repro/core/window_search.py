"""Coarse search for the voltage window that contains the first transitions.

The paper (and its benchmark data) starts from CSD windows that have already
been cropped around the lowest charge states — on a real device someone has to
*find* that window first.  This module automates the step with the same
philosophy as the paper's extraction: spend as few probes as possible.

:class:`TransitionWindowFinder` is a core step over a meter, like
:class:`~repro.core.anchors.AnchorFinder`: it measures the meter's whole grid
once — a coarse scan (24x24 = 576 probes by default, independent of how fine
the final window will be sampled) over the full safe gate range — and
analyses the positively tilted gradient feature of the coarse image:

1. only pixels whose feature exceeds a fraction of the *maximum* feature count
   as transition pixels (charge-transition steps are by far the sharpest
   structure in a workable scan, so this is robust to the noise floor);
2. in every row, the first transition pixel from the left marks where the
   lowest nearly-vertical addition line crosses that row; the median over the
   bottom rows gives the x-coordinate of the (0,0) corner.  The transpose
   gives the y-coordinate from the left columns;
3. the median gap between the first and second transition pixels of those rows
   (columns) estimates the addition-voltage spacing, which sets the window
   size.

The found window stays inside the scanned range.  The coarse meter comes
from :meth:`~repro.instrument.session.SessionFactory.make` with the coarse
resolution, and the found window feeds the next ``make`` at the fine one;
the procedure that does both is
:class:`~repro.pipeline.workflow.AutoTuningWorkflow`, one layer up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ExtractionError
from ..instrument.measurement import ChargeSensorMeter


@dataclass(frozen=True)
class WindowSearchConfig:
    """Parameters of the coarse transition-window search.

    Attributes
    ----------
    coarse_resolution:
        Pixels per axis of the coarse scan, the resolution the workflow opens
        the coarse session at.  576 probes (24x24) cost ~29 s of dwell time —
        a small fraction of even one fast extraction — and locate the
        first-transition corner to about one coarse pixel.
    relative_threshold:
        Fraction of the maximum gradient feature a pixel must exceed to count
        as a transition pixel.
    edge_fraction:
        Fraction of the rows (from the bottom) and columns (from the left)
        whose first-transition positions are aggregated into the corner
        estimate.
    span_in_spacings:
        Full window span expressed in units of the estimated addition-voltage
        spacing; ~1.2 comfortably contains the four lowest charge regions.
    fallback_span_fraction:
        Window span as a fraction of the coarse scan range, used when no
        second transition is visible to estimate the spacing from.
    """

    coarse_resolution: int = 24
    relative_threshold: float = 0.4
    edge_fraction: float = 0.3
    span_in_spacings: float = 1.2
    fallback_span_fraction: float = 0.3
    min_peak_to_background: float = 5.0

    def __post_init__(self) -> None:
        if self.coarse_resolution < 8:
            raise ExtractionError("coarse_resolution must be at least 8")
        if not 0 < self.relative_threshold < 1:
            raise ExtractionError("relative_threshold must lie in (0, 1)")
        if self.min_peak_to_background <= 1:
            raise ExtractionError("min_peak_to_background must exceed 1")
        if not 0 < self.edge_fraction <= 1:
            raise ExtractionError("edge_fraction must lie in (0, 1]")
        if self.span_in_spacings <= 0:
            raise ExtractionError("span_in_spacings must be positive")
        if not 0 < self.fallback_span_fraction <= 1:
            raise ExtractionError("fallback_span_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class WindowSearchResult:
    """Outcome of the coarse window search."""

    window: tuple[tuple[float, float], tuple[float, float]]
    corner_voltage: tuple[float, float]
    estimated_spacing: tuple[float, float]
    n_probes: int
    elapsed_s: float
    coarse_image: np.ndarray

    @property
    def x_window(self) -> tuple[float, float]:
        """The x-axis (gate_x) voltage window."""
        return self.window[0]

    @property
    def y_window(self) -> tuple[float, float]:
        """The y-axis (gate_y) voltage window."""
        return self.window[1]

    def contains(self, vx: float, vy: float) -> bool:
        """Whether a voltage point lies inside the found window."""
        (x_min, x_max), (y_min, y_max) = self.window
        return x_min <= vx <= x_max and y_min <= vy <= y_max


def tilted_gradient_image(image: np.ndarray) -> np.ndarray:
    """Positively tilted gradient feature of a full image (vectorised Alg. 2).

    ``g[r, c] = (I[r, c] - I[r, c+1]) + (I[r, c] - I[r+1, c+1])`` with edge
    clamping, i.e. exactly the probe-level feature gradient evaluated on every
    pixel of an already measured image.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ExtractionError("tilted_gradient_image expects a 2-D image")
    right = np.empty_like(image)
    right[:, :-1] = image[:, 1:]
    right[:, -1] = image[:, -1]
    upper_right = np.empty_like(image)
    upper_right[:-1, :-1] = image[1:, 1:]
    upper_right[-1, :] = right[-1, :]
    upper_right[:-1, -1] = image[1:, -1]
    return (image - right) + (image - upper_right)


def _first_and_second_crossings(mask_line: np.ndarray) -> tuple[int | None, int | None]:
    """Indices of the first two separated transition pixels along one line.

    Consecutive above-threshold pixels belong to the same (coarsely sampled)
    transition line; the second crossing must be separated from the first by
    at least one below-threshold pixel.
    """
    indices = np.nonzero(mask_line)[0]
    if indices.size == 0:
        return None, None
    first = int(indices[0])
    rest = indices[indices > first + 1]
    second = int(rest[0]) if rest.size else None
    return first, second


class TransitionWindowFinder:
    """Locate a CSD window containing the lowest charge transitions.

    ``meter`` measures the coarse grid; its first and last voltages on each
    axis bound the search and the window it returns.  A grid without
    positive extent on either axis is refused before any probe.
    """

    def __init__(
        self, meter: ChargeSensorMeter, config: WindowSearchConfig | None = None
    ) -> None:
        xs = meter.x_voltages
        ys = meter.y_voltages
        if xs[-1] <= xs[0] or ys[-1] <= ys[0]:
            raise ExtractionError("search ranges must have positive extent")
        self._meter = meter
        self._x_range = (float(xs[0]), float(xs[-1]))
        self._y_range = (float(ys[0]), float(ys[-1]))
        self._config = config or WindowSearchConfig()

    @property
    def config(self) -> WindowSearchConfig:
        """The search configuration."""
        return self._config

    def find(self) -> WindowSearchResult:
        """Run the coarse scan and return the transition window."""
        meter = self._meter
        image = meter.acquire_full_grid()
        gradient = tilted_gradient_image(image)
        xs = meter.x_voltages
        ys = meter.y_voltages
        cfg = self._config

        peak = float(np.max(gradient))
        background = float(np.median(np.abs(gradient)))
        if peak <= 0 or peak < cfg.min_peak_to_background * max(background, 1e-15):
            raise ExtractionError(
                "the coarse scan shows no charge-transition feature that stands out "
                "from the background; the search range probably contains no charge "
                "transition (or the noise floor hides it)"
            )
        mask = gradient > cfg.relative_threshold * peak
        if not np.any(mask):
            raise ExtractionError("no charge transition feature found in the coarse scan")

        n_edge = max(2, int(round(cfg.edge_fraction * mask.shape[0])))
        pixel_x = float(xs[1] - xs[0])
        pixel_y = float(ys[1] - ys[0])

        # Corner x and spacing x from the bottom rows (they cross the nearly
        # vertical addition lines of the x-axis dot).
        first_cols: list[int] = []
        col_gaps: list[int] = []
        for row in range(n_edge):
            first, second = _first_and_second_crossings(mask[row, :])
            if first is None:
                continue
            first_cols.append(first)
            if second is not None:
                col_gaps.append(second - first)
        # Corner y and spacing y from the left columns.
        first_rows: list[int] = []
        row_gaps: list[int] = []
        for col in range(n_edge):
            first, second = _first_and_second_crossings(mask[:, col])
            if first is None:
                continue
            first_rows.append(first)
            if second is not None:
                row_gaps.append(second - first)
        if not first_cols or not first_rows:
            raise ExtractionError(
                "the coarse scan did not show a transition along both axes; widen "
                "the search range or increase coarse_resolution"
            )
        corner_vx = float(xs[int(np.median(first_cols))])
        corner_vy = float(ys[int(np.median(first_rows))])

        spacing_x = (
            float(np.median(col_gaps)) * pixel_x
            if col_gaps
            else cfg.fallback_span_fraction * float(xs[-1] - xs[0])
        )
        spacing_y = (
            float(np.median(row_gaps)) * pixel_y
            if row_gaps
            else cfg.fallback_span_fraction * float(ys[-1] - ys[0])
        )
        spacing_x = max(spacing_x, 2.0 * pixel_x)
        spacing_y = max(spacing_y, 2.0 * pixel_y)

        window = (
            self._centered_span(corner_vx, cfg.span_in_spacings * spacing_x, self._x_range),
            self._centered_span(corner_vy, cfg.span_in_spacings * spacing_y, self._y_range),
        )
        return WindowSearchResult(
            window=window,
            corner_voltage=(corner_vx, corner_vy),
            estimated_spacing=(spacing_x, spacing_y),
            n_probes=meter.n_probes,
            elapsed_s=meter.elapsed_s,
            coarse_image=image,
        )

    @staticmethod
    def _centered_span(
        center: float, span: float, allowed: tuple[float, float]
    ) -> tuple[float, float]:
        """A window of width ``span`` centred on ``center``, kept inside ``allowed``."""
        span = min(span, allowed[1] - allowed[0])
        low = center - 0.5 * span
        high = center + 0.5 * span
        if low < allowed[0]:
            high += allowed[0] - low
            low = allowed[0]
        if high > allowed[1]:
            low -= high - allowed[1]
            high = allowed[1]
        low = max(low, allowed[0])
        if high <= low:
            raise ExtractionError("window search produced a degenerate window")
        return low, high
