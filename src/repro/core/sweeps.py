"""Row-major and column-major sweeps inside the shrinking triangle (§4.3.2).

Starting from the two anchor points, the sweeps walk the triangular region one
row (respectively one column) at a time, probe only the pixels of that row
(column) that are still inside the region, keep the pixel with the largest
feature gradient as a transition point, and move the corresponding anchor to
it — shrinking the triangle so the next row's segment stays hugging the
transition line.

* The **row-major sweep** starts at the steep-line anchor and climbs towards
  the shallow-line anchor's row.  It is accurate on the steep (nearly
  vertical) line, which crosses each row at a well-defined column, and
  error-prone once it reaches the rows of the shallow line where segments get
  long (the paper's observation).
* The **column-major sweep** is the transpose: it starts at the shallow-line
  anchor and marches right towards the steep-line anchor's column, accurately
  tracking the shallow (nearly horizontal) line.

Both sweeps probe through the same cached meter, so pixels shared between the
anchor search, the two sweeps and the gradient finite differences are paid
for only once.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import SweepError
from ..instrument.measurement import ChargeSensorMeter
from .config import SweepConfig
from .gradient import FeatureGradient
from .region import PixelPoint, TriangularRegion
from .result import SweepTrace


class TransitionLineSweeper:
    """Run the two shrinking-triangle sweeps of the paper's Algorithm 3."""

    def __init__(
        self,
        meter: ChargeSensorMeter,
        config: SweepConfig | None = None,
    ) -> None:
        self._meter = meter
        self._config = config or SweepConfig()
        self._gradient = FeatureGradient(meter, delta_pixels=self._config.delta_pixels)

    @property
    def config(self) -> SweepConfig:
        """The sweep configuration."""
        return self._config

    @property
    def gradient(self) -> FeatureGradient:
        """The feature-gradient evaluator used by both sweeps."""
        return self._gradient

    # ------------------------------------------------------------------
    def row_major_sweep(
        self, steep_anchor: PixelPoint, shallow_anchor: PixelPoint
    ) -> SweepTrace:
        """Sweep rows bottom-to-top, tracking the steep transition line.

        The shallow-line anchor stays fixed; the steep-line anchor is moved to
        the best point of every row, shrinking the triangle as the sweep
        climbs.
        """
        region = TriangularRegion(steep_anchor=steep_anchor, shallow_anchor=shallow_anchor)
        transition_points: list[tuple[int, int]] = []
        segment_lengths: list[int] = []
        for row in range(steep_anchor.row + 1, shallow_anchor.row):
            segment = region.row_segment(row)
            segment_lengths.append(len(segment))
            if not segment:
                continue
            # A segment is a run of consecutive columns.
            columns = np.arange(segment[0], segment[-1] + 1)
            rows = np.empty(columns.size, dtype=np.int64)
            rows.fill(row)
            # One batched gradient evaluation serves the whole segment.
            gradients = self._gradient.values(rows, columns)
            best_col = segment[0] + int(gradients.argmax())
            transition_points.append((row, best_col))
            region = region.with_steep_anchor(PixelPoint(row=row, col=best_col))
        return SweepTrace(
            direction="row-major",
            transition_points=tuple(transition_points),
            segment_lengths=tuple(segment_lengths),
        )

    def column_major_sweep(
        self, steep_anchor: PixelPoint, shallow_anchor: PixelPoint
    ) -> SweepTrace:
        """Sweep columns left-to-right, tracking the shallow transition line.

        The steep-line anchor stays fixed; the shallow-line anchor is moved to
        the best point of every column.
        """
        region = TriangularRegion(steep_anchor=steep_anchor, shallow_anchor=shallow_anchor)
        transition_points: list[tuple[int, int]] = []
        segment_lengths: list[int] = []
        for col in range(shallow_anchor.col + 1, steep_anchor.col):
            segment = region.column_segment(col)
            segment_lengths.append(len(segment))
            if not segment:
                continue
            # A segment is a run of consecutive rows.
            rows = np.arange(segment[0], segment[-1] + 1)
            columns = np.empty(rows.size, dtype=np.int64)
            columns.fill(col)
            # One batched gradient evaluation serves the whole segment.
            gradients = self._gradient.values(rows, columns)
            best_row = segment[0] + int(gradients.argmax())
            transition_points.append((best_row, col))
            region = region.with_shallow_anchor(PixelPoint(row=best_row, col=col))
        return SweepTrace(
            direction="column-major",
            transition_points=tuple(transition_points),
            segment_lengths=tuple(segment_lengths),
        )

    # ------------------------------------------------------------------
    def run(
        self,
        steep_anchor: PixelPoint,
        shallow_anchor: PixelPoint,
        run_row: bool = True,
        run_column: bool = True,
    ) -> tuple[SweepTrace, SweepTrace]:
        """Run the enabled sweeps and return ``(row_trace, column_trace)``.

        A disabled sweep (the ``row-sweep-only`` and ``column-sweep-only``
        ablation pipelines) yields an empty trace.  Raises
        :class:`SweepError` when both enabled sweeps come back empty, since
        the fit cannot proceed without transition points.
        """
        empty_row = SweepTrace(direction="row-major", transition_points=(), segment_lengths=())
        empty_col = SweepTrace(
            direction="column-major", transition_points=(), segment_lengths=()
        )
        row_trace = (
            self.row_major_sweep(steep_anchor, shallow_anchor)
            if run_row
            else empty_row
        )
        column_trace = (
            self.column_major_sweep(steep_anchor, shallow_anchor)
            if run_column
            else empty_col
        )
        if row_trace.n_points == 0 and column_trace.n_points == 0:
            raise SweepError(
                "both sweeps returned no transition points; the anchor points "
                "probably do not bracket the transition lines"
            )
        return row_trace, column_trace
