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
probes at other timestamps, and a meter's ``max_probes`` budget cuts across
both sweeps.  Pixels shared between the anchor search, the two sweeps and the
gradient finite differences are probed once, through the meter's cache.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import SweepError
from ..instrument.measurement import ChargeSensorMeter
from .config import SweepConfig
from .gradient import FeatureGradient
from .region import PixelPoint, TriangularRegion
from .result import SweepTrace


class _Walker:
    """One sweep: walks its region's rows and moves the region's steep anchor.

    The column-major sweep walks the transposed region (``axis=1``: its rows
    are pixel columns), whose steep-role anchor is the shallow-line anchor.
    """

    def __init__(self, direction: str, region: TriangularRegion, axis: int = 0) -> None:
        self.direction = direction
        self.region = region
        self.axis = axis
        self.rows = iter(range(region.steep_anchor.row + 1, region.shallow_anchor.row))
        self.points: list[tuple[int, int]] = []
        self.lengths: list[int] = []

    def advance(self) -> bool:
        """Take the next row's segment bounds; false when no row is left.

        A row strictly between the anchors always holds a pixel.
        """
        self.row = next(self.rows, None)
        if self.row is None:
            return False
        self.start, end = self.region.row_bounds(self.row)
        self.size = end + 1 - self.start
        self.lengths.append(self.size)
        return True

    def place(self, pixels: np.ndarray, offset: int) -> int:
        """Write the segment's pixels into ``pixels`` from ``offset``; return its end."""
        self.where = slice(offset, offset + self.size)
        pixels[self.axis, self.where] = self.row
        pixels[1 - self.axis, self.where] = np.arange(self.start, self.start + self.size)
        return self.where.stop

    def settle(self, gradients: np.ndarray) -> None:
        """Keep the segment's best pixel and move the steep anchor onto it."""
        col = self.start + int(gradients[self.where].argmax())
        self.points.append((self.row, col))
        self.region = self.region.with_steep_anchor(PixelPoint(row=self.row, col=col))

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

    @property
    def gradient(self) -> FeatureGradient:
        """The feature-gradient evaluator used by both sweeps."""
        return self._gradient

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
        region = TriangularRegion(steep_anchor=steep_anchor, shallow_anchor=shallow_anchor)
        walkers = (
            _Walker("row-major", region),
            _Walker("column-major", region.transposed(), axis=1),
        )
        live = [walker for walker, enabled in zip(walkers, (run_row, run_column)) if enabled]
        while live := [walker for walker in live if walker.advance()]:
            # One gradient evaluation per step: the row sweep's segment first.
            pixels = np.empty((2, sum(walker.size for walker in live)), dtype=np.int64)
            end = 0
            for walker in live:
                end = walker.place(pixels, end)
            gradients = self._gradient.values(*pixels)
            for walker in live:
                walker.settle(gradients)
        row_trace, column_trace = (walker.trace() for walker in walkers)
        if row_trace.n_points == 0 and column_trace.n_points == 0:
            raise SweepError(
                "both sweeps returned no transition points; the anchor points "
                "probably do not bracket the transition lines"
            )
        return row_trace, column_trace
