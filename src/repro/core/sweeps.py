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

Each sweep moves only its own anchor, so the two never read each other's
results and run together: step k probes the row sweep's k-th segment, then
the column sweep's, in one batched gradient evaluation (one meter call), and
a sweep drops out when it runs out of lines.  On a static backend a pixel
reads the same whenever it is probed, so the probed pixels, probe counts and
simulated time are those of the two sweeps run one after the other.  A
time-dependent backend (drift, temporal noise, injected faults) sees the
probes at other timestamps, and a probe that runs out of fault retries stops
both sweeps.  Pixels shared between the anchor search, the two sweeps and the
gradient finite differences are probed once, through the meter's cache.

A step builds no region or pixel object: each sweep is a walker on plain
ints (the column sweep's transposed) taking its bounds from
:func:`~repro.core.region.segment_bounds`, and
:meth:`~repro.core.gradient.FeatureGradient.segment_values` writes the
step's stencil from templates into a buffer it reuses.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import SweepError
from ..instrument.measurement import ChargeSensorMeter
from .config import SweepConfig
from .gradient import FeatureGradient
from .region import PixelPoint, TriangularRegion, segment_bounds
from .result import SweepTrace


class _Walker:
    """One sweep: walks lines (rows, or columns with ``axis`` 1 and the
    anchors as ``(col, row)``) from its anchor ``(line, across)``, which it
    moves, towards the other anchor, ``far``.
    """

    def __init__(self, direction: str, axis: int, anchor: tuple, far: tuple) -> None:
        self.direction, self.axis, self.far = direction, axis, far
        self.line, self.across = anchor
        self.points: list[tuple[int, int]] = []
        self.lengths: list[int] = []

    def advance(self) -> bool:
        """Take the next line's segment; false when no line is left.

        A line strictly between the anchors' lines always holds a pixel.
        """
        if self.line + 1 >= self.far[0]:
            return False
        start, end = segment_bounds(self.line + 1, self.line, self.across, *self.far)
        self.segment = (self.axis, self.line + 1, start, end + 1 - start)
        self.lengths.append(end + 1 - start)
        return True

    def settle(self, gradients: np.ndarray, offset: int) -> int:
        """Move the anchor onto the segment's best pixel; return the segment's end."""
        _, self.line, start, size = self.segment
        self.across = start + int(gradients[offset : offset + size].argmax())
        self.points.append((self.line, self.across))
        return offset + size

    def trace(self) -> SweepTrace:
        points = [point[::-1] for point in self.points] if self.axis else self.points
        return SweepTrace(self.direction, tuple(points), tuple(self.lengths))

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
        # Raises SweepError unless the anchors span a triangle.
        TriangularRegion(steep_anchor=steep_anchor, shallow_anchor=shallow_anchor)
        steep, shallow = steep_anchor.as_tuple(), shallow_anchor.as_tuple()
        walkers = (
            _Walker("row-major", 0, steep, shallow),
            _Walker("column-major", 1, shallow[::-1], steep[::-1]),
        )
        live = [walker for walker, enabled in zip(walkers, (run_row, run_column)) if enabled]
        while live := [walker for walker in live if walker.advance()]:
            # One gradient evaluation per step: the row sweep's segment first.
            gradients = self._gradient.segment_values([walker.segment for walker in live])
            offset = 0
            for walker in live:
                offset = walker.settle(gradients, offset)
        row_trace, column_trace = (walker.trace() for walker in walkers)
        if row_trace.n_points == 0 and column_trace.n_points == 0:
            raise SweepError(
                "both sweeps returned no transition points; the anchor points "
                "probably do not bracket the transition lines"
            )
        return row_trace, column_trace
