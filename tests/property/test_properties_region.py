"""Property-based tests (hypothesis) for the triangular region and filters."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PixelPoint,
    TriangularRegion,
    filter_transition_points,
    leftmost_point_per_row,
    lowest_point_per_column,
)
from repro.core.region import segment_bounds


@st.composite
def anchors(draw, extent=60):
    steep_row = draw(st.integers(min_value=0, max_value=extent // 3))
    shallow_row = draw(st.integers(min_value=steep_row + 2, max_value=extent))
    shallow_col = draw(st.integers(min_value=0, max_value=extent // 3))
    steep_col = draw(st.integers(min_value=shallow_col + 2, max_value=extent))
    return PixelPoint(row=steep_row, col=steep_col), PixelPoint(row=shallow_row, col=shallow_col)


def transposed(region: TriangularRegion) -> TriangularRegion:
    """The region with rows and columns swapped (its rows are the region's columns)."""
    steep, shallow = region.steep_anchor, region.shallow_anchor
    return TriangularRegion(
        steep_anchor=PixelPoint(row=shallow.col, col=shallow.row),
        shallow_anchor=PixelPoint(row=steep.col, col=steep.row),
    )


points_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40)),
    min_size=0,
    max_size=60,
)


class TestTriangularRegionProperties:
    @given(data=anchors())
    @settings(max_examples=100, deadline=None)
    def test_anchors_and_corner_always_inside(self, data):
        steep, shallow = data
        region = TriangularRegion(steep_anchor=steep, shallow_anchor=shallow)
        assert region.contains(steep.row, steep.col)
        assert region.contains(shallow.row, shallow.col)
        assert region.contains(region.corner.row, region.corner.col)

    @given(data=anchors())
    @settings(max_examples=100, deadline=None)
    def test_segments_consistent_with_membership(self, data):
        steep, shallow = data
        region = TriangularRegion(steep_anchor=steep, shallow_anchor=shallow)
        for row in range(steep.row, shallow.row + 1):
            segment = region.row_segment(row)
            for col in segment:
                assert region.contains(row, col)
            # Pixels immediately outside the segment are not inside the region.
            if segment:
                assert not region.contains(row, segment[0] - 1) or segment[0] - 1 < shallow.col

    @given(data=anchors())
    @settings(max_examples=100, deadline=None)
    def test_row_and_column_pixel_counts_agree(self, data):
        steep, shallow = data
        region = TriangularRegion(steep_anchor=steep, shallow_anchor=shallow)
        by_rows = sum(len(region.row_segment(r)) for r in range(steep.row, shallow.row + 1))
        by_cols = sum(
            len(region.column_segment(c)) for c in range(shallow.col, steep.col + 1)
        )
        assert by_rows == by_cols == region.pixel_count()

    @given(data=anchors(extent=400))
    @settings(max_examples=100, deadline=None)
    def test_transposed_rows_are_column_segments(self, data):
        # The column-major sweep takes its bounds from segment_bounds with
        # both anchors transposed: the transposed region's rows.
        steep, shallow = data
        region = TriangularRegion(steep_anchor=steep, shallow_anchor=shallow)
        flipped = transposed(region)
        for col in range(shallow.col - 1, steep.col + 2):
            assert flipped.row_segment(col) == region.column_segment(col)
        for col in range(shallow.col + 1, steep.col):
            start, end = segment_bounds(col, shallow.col, shallow.row, steep.col, steep.row)
            assert list(range(start, end + 1)) == region.column_segment(col)
        assert transposed(flipped).steep_anchor == steep

    @given(data=anchors(extent=400))
    @settings(max_examples=100, deadline=None)
    def test_rows_between_the_anchors_hold_a_pixel(self, data):
        # Every row a sweep walks has a segment to probe.
        steep, shallow = data
        region = TriangularRegion(steep_anchor=steep, shallow_anchor=shallow)
        for row in range(steep.row + 1, shallow.row):
            start, end = region.row_bounds(row)
            assert shallow.col < start <= end == steep.col

    @given(data=anchors())
    @settings(max_examples=60, deadline=None)
    def test_shrinking_never_grows(self, data):
        steep, shallow = data
        region = TriangularRegion(steep_anchor=steep, shallow_anchor=shallow)
        mid_row = (steep.row + shallow.row) // 2
        segment = region.row_segment(mid_row)
        if not segment:
            return
        new_anchor = PixelPoint(row=mid_row, col=segment[len(segment) // 2])
        if new_anchor.row <= steep.row or new_anchor.col <= shallow.col:
            return
        shrunk = TriangularRegion(steep_anchor=new_anchor, shallow_anchor=shallow)
        assert shrunk.pixel_count() <= region.pixel_count()


class TestFilterProperties:
    @given(points=points_strategy)
    @settings(max_examples=150, deadline=None)
    def test_filtered_is_subset_of_input(self, points):
        filtered = filter_transition_points(points)
        assert set(filtered).issubset(set(points))

    @given(points=points_strategy)
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, points):
        once = filter_transition_points(points)
        twice = filter_transition_points(list(once))
        assert set(once) == set(twice)

    @given(points=points_strategy)
    @settings(max_examples=150, deadline=None)
    def test_covers_every_row_and_column_present(self, points):
        filtered = set(filter_transition_points(points))
        rows_in = {row for row, _ in points}
        cols_in = {col for _, col in points}
        assert {row for row, _ in filtered} == rows_in or not points
        # Every column that appears in the input keeps at least one point
        # via the lowest-per-column filter.
        assert {col for _, col in filtered} == cols_in or not points

    @given(points=points_strategy)
    @settings(max_examples=100, deadline=None)
    def test_elementary_filters_pick_extremes(self, points):
        for row, col in lowest_point_per_column(points):
            assert all(row <= other_row for other_row, other_col in points if other_col == col)
        for row, col in leftmost_point_per_row(points):
            assert all(col <= other_col for other_row, other_col in points if other_row == row)
