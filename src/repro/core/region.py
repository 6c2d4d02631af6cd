"""The shrinking right-triangular search region of the paper's Section 4.2.

Both transition lines of the lowest charge states lie inside the right
triangle whose hypotenuse connects the two anchor points (one on each line)
and whose right-angle corner sits at the row of the shallow-line anchor and
the column of the steep-line anchor.  :class:`TriangularRegion` captures that
geometry, answers pixel-membership queries using pixel centres (as the paper
specifies), and yields the per-row / per-column probe segments.

Segment bounds come from one function on plain ints, :func:`segment_bounds`,
which :meth:`TriangularRegion.row_bounds` and both sweeps use (the column
sweep with the anchors transposed); :meth:`TriangularRegion.column_segment`
stays an independent reference computed from the other anchor.

Conventions: rows index the y-axis gate bottom-up, columns index the x-axis
gate left-to-right (DESIGN.md §2).  The steep-line anchor is the one at the
*lower right* (small row, large column); the shallow-line anchor at the
*upper left* (large row, small column).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import SweepError


@dataclass(frozen=True)
class PixelPoint:
    """A pixel on the measurement grid, addressed as ``(row, col)``."""

    row: int
    col: int

    def as_tuple(self) -> tuple[int, int]:
        """The ``(row, col)`` tuple."""
        return self.row, self.col


class TriangularRegion:
    """Right triangle spanned by the steep-line and shallow-line anchors."""

    def __init__(self, steep_anchor: PixelPoint, shallow_anchor: PixelPoint) -> None:
        if steep_anchor.row >= shallow_anchor.row:
            raise SweepError(
                "the steep-line anchor must lie below the shallow-line anchor "
                f"(got rows {steep_anchor.row} and {shallow_anchor.row})"
            )
        if steep_anchor.col <= shallow_anchor.col:
            raise SweepError(
                "the steep-line anchor must lie to the right of the shallow-line anchor "
                f"(got columns {steep_anchor.col} and {shallow_anchor.col})"
            )
        self._steep = steep_anchor
        self._shallow = shallow_anchor

    # ------------------------------------------------------------------
    @property
    def steep_anchor(self) -> PixelPoint:
        """Anchor on the steep (x-axis dot) transition line."""
        return self._steep

    @property
    def shallow_anchor(self) -> PixelPoint:
        """Anchor on the shallow (y-axis dot) transition line."""
        return self._shallow

    @property
    def corner(self) -> PixelPoint:
        """The right-angle corner (shallow anchor's row, steep anchor's column)."""
        return PixelPoint(row=self._shallow.row, col=self._steep.col)

    # ------------------------------------------------------------------
    def hypotenuse_col_at_row(self, row: float) -> float:
        """Column of the hypotenuse at a given (fractional) row."""
        rise = self._shallow.row - self._steep.row
        run = self._shallow.col - self._steep.col
        return self._steep.col + (row - self._steep.row) * run / rise

    def hypotenuse_row_at_col(self, col: float) -> float:
        """Row of the hypotenuse at a given (fractional) column."""
        rise = self._shallow.row - self._steep.row
        run = self._shallow.col - self._steep.col
        return self._steep.row + (col - self._steep.col) * rise / run

    def contains(self, row: int, col: int) -> bool:
        """Pixel-centre membership test."""
        if not (self._steep.row <= row <= self._shallow.row):
            return False
        if not (self._shallow.col <= col <= self._steep.col):
            return False
        return col >= self.hypotenuse_col_at_row(row) - 1e-9

    def row_bounds(self, row: int) -> tuple[int, int]:
        """First and last column inside the region at a row (first > last: none)."""
        if not (self._steep.row <= row <= self._shallow.row):
            return 0, -1
        steep, shallow = self._steep, self._shallow
        return segment_bounds(row, steep.row, steep.col, shallow.row, shallow.col)

    def row_segment(self, row: int) -> list[int]:
        """Columns inside the region at a given row, left to right."""
        start, end = self.row_bounds(row)
        return list(range(start, end + 1))

    def column_segment(self, col: int) -> list[int]:
        """Rows inside the region at a given column, bottom to top."""
        if not (self._shallow.col <= col <= self._steep.col):
            return []
        lower = self.hypotenuse_row_at_col(col)
        start = int(max(self._steep.row, _ceil(lower)))
        end = int(self._shallow.row)
        if start > end:
            return []
        return list(range(start, end + 1))

    def pixel_count(self) -> int:
        """Number of pixels inside the region (used by diagnostics/tests)."""
        return sum(
            len(self.row_segment(row))
            for row in range(self._steep.row, self._shallow.row + 1)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TriangularRegion(steep={self._steep.as_tuple()}, "
            f"shallow={self._shallow.as_tuple()})"
        )


def segment_bounds(
    row: int, steep_row: int, steep_col: int, shallow_row: int, shallow_col: int
) -> tuple[int, int]:
    """First and last column of the anchors' triangle at ``row`` (transposed: a column's rows).

    Strictly between the anchors' rows the segment always holds a pixel.
    """
    lower = steep_col + (row - steep_row) * (shallow_col - steep_col) / (shallow_row - steep_row)
    return int(max(shallow_col, _ceil(lower))), int(steep_col)


def _ceil(value: float) -> int:
    integer = int(value)
    return integer if value <= integer + 1e-9 else integer + 1
