"""Tests for the triangular search region geometry."""

from __future__ import annotations

import pytest

from repro.core import PixelPoint, TriangularRegion
from repro.exceptions import SweepError


@pytest.fixture()
def region() -> TriangularRegion:
    # Mirrors the worked example geometry: steep anchor bottom-right,
    # shallow anchor top-left.
    return TriangularRegion(
        steep_anchor=PixelPoint(row=1, col=12),
        shallow_anchor=PixelPoint(row=11, col=0),
    )


class TestConstruction:
    def test_anchor_arrangement_enforced(self):
        with pytest.raises(SweepError):
            TriangularRegion(
                steep_anchor=PixelPoint(row=11, col=12),
                shallow_anchor=PixelPoint(row=1, col=0),
            )
        with pytest.raises(SweepError):
            TriangularRegion(
                steep_anchor=PixelPoint(row=1, col=0),
                shallow_anchor=PixelPoint(row=11, col=12),
            )

    def test_corner_is_fixed_row_moving_col(self, region):
        corner = region.corner
        assert corner.row == 11
        assert corner.col == 12


class TestMembership:
    def test_anchors_and_corner_inside(self, region):
        assert region.contains(1, 12)
        assert region.contains(11, 0)
        assert region.contains(11, 12)

    def test_point_outside_bounding_box(self, region):
        assert not region.contains(0, 5)
        assert not region.contains(12, 5)
        assert not region.contains(5, 13)

    def test_point_below_hypotenuse_excluded(self, region):
        # At row 6 the hypotenuse sits at column 6; column 3 is on the wrong side.
        assert not region.contains(6, 3)
        assert region.contains(6, 7)

    def test_pixel_count_matches_segments(self, region):
        count = region.pixel_count()
        manual = sum(len(region.row_segment(row)) for row in range(1, 12))
        assert count == manual
        assert count > 0


class TestSegments:
    def test_row_segment_short_next_to_steep_anchor(self, region):
        # The row adjacent to the steep anchor only contains the two pixels
        # hugging the transition line — the paper's worked example (Fig. 5a).
        segment = region.row_segment(2)
        assert segment == [11, 12]

    def test_row_segment_long_in_shallow_region(self, region):
        # Near the shallow anchor's row the in-region segment is long; this is
        # exactly the error-prone regime the column sweep and the filter fix.
        segment = region.row_segment(10)
        assert segment[-1] == 12
        assert len(segment) > 5

    def test_row_segment_outside_rows_empty(self, region):
        assert region.row_segment(0) == []
        assert region.row_segment(12) == []

    def test_column_segment_outside_cols_empty(self, region):
        assert region.column_segment(13) == []

    def test_column_segment_short_next_to_shallow_anchor(self, region):
        segment = region.column_segment(1)
        assert segment == [11]

    def test_segments_shrink_after_anchor_update(self, region):
        wide = region.row_segment(9)
        shrunk = TriangularRegion(
            steep_anchor=PixelPoint(row=8, col=9), shallow_anchor=region.shallow_anchor
        ).row_segment(9)
        assert len(wide) >= len(shrunk) or shrunk == []

    def test_hypotenuse_endpoints(self, region):
        assert region.hypotenuse_col_at_row(1) == pytest.approx(12.0)
        assert region.hypotenuse_col_at_row(11) == pytest.approx(0.0)
        assert region.hypotenuse_row_at_col(12) == pytest.approx(1.0)
        assert region.hypotenuse_row_at_col(0) == pytest.approx(11.0)
