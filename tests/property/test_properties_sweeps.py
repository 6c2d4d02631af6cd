"""Property-based tests (hypothesis): the sweeps probe Algorithm 2 as written.

`TransitionLineSweeper.run` builds each step's stencil from templates into
a reused probe buffer.  Here a test-local reference walks
`TriangularRegion.row_segment` / `column_segment`, scores every candidate
with the per-pixel `FeatureGradient.value` (centre, right, upper-right,
clamped at the grid edges) and moves each sweep's anchor onto its best
pixel, one step at a time, the row sweep first.  Traces and the meter's
counts, measured image and probed pixels must match it: the probed pixels
are in first-probe order, so they also catch a meter that kept a view of
the reused buffer.
"""

from __future__ import annotations

from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FeatureGradient,
    PixelPoint,
    SweepConfig,
    SweepTrace,
    TransitionLineSweeper,
    TriangularRegion,
)
from repro.exceptions import SweepError
from repro.instrument import ChargeSensorMeter, DatasetBackend
from repro.physics import ChargeStabilityDiagram

MODES = [(True, True), (True, False), (False, True)]


def reference_sweeps(meter, delta_pixels, steep, shallow, run_row, run_column):
    """Algorithm 3 with Algorithm 2 per pixel, steps in lockstep, row sweep first."""
    gradient = FeatureGradient(meter, delta_pixels=delta_pixels)
    anchors = {"row-major": steep, "column-major": shallow}
    points = {"row-major": [], "column-major": []}
    lengths = {"row-major": [], "column-major": []}
    rows = range(steep.row + 1, shallow.row) if run_row else ()
    cols = range(shallow.col + 1, steep.col) if run_column else ()
    for row, col in zip_longest(rows, cols):
        if row is not None:
            region = TriangularRegion(steep_anchor=anchors["row-major"], shallow_anchor=shallow)
            candidates = [(row, c) for c in region.row_segment(row)]
            _settle("row-major", gradient, candidates, anchors, points, lengths)
        if col is not None:
            region = TriangularRegion(steep_anchor=steep, shallow_anchor=anchors["column-major"])
            candidates = [(r, col) for r in region.column_segment(col)]
            _settle("column-major", gradient, candidates, anchors, points, lengths)
    return tuple(
        SweepTrace(direction, tuple(points[direction]), tuple(lengths[direction]))
        for direction in ("row-major", "column-major")
    )


def _settle(direction, gradient, candidates, anchors, points, lengths):
    scores = [gradient.value(row, col) for row, col in candidates]
    best = candidates[int(np.argmax(scores))]
    anchors[direction] = PixelPoint(row=best[0], col=best[1])
    points[direction].append(best)
    lengths[direction].append(len(candidates))


def _edge_or_any(draw, low, high, edge):
    """An index in [low, high], often exactly ``edge`` (a grid edge)."""
    if low <= edge <= high and draw(st.booleans()):
        return edge
    return draw(st.integers(min_value=low, max_value=high))


@st.composite
def sweep_cases(draw):
    n_rows = draw(st.integers(min_value=4, max_value=40))
    n_cols = draw(st.integers(min_value=4, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    data = np.random.default_rng(seed).normal(size=(n_rows, n_cols))
    if draw(st.booleans()):
        data = np.round(data)  # ties between candidates
    # Steep anchor below and right of the shallow one; the top row and the
    # right column are favoured so that the stencil clamps.
    steep_row = draw(st.integers(min_value=0, max_value=n_rows - 2))
    shallow_row = _edge_or_any(draw, steep_row + 1, n_rows - 1, n_rows - 1)
    shallow_col = draw(st.integers(min_value=0, max_value=n_cols - 2))
    steep_col = _edge_or_any(draw, shallow_col + 1, n_cols - 1, n_cols - 1)
    return (
        data,
        PixelPoint(row=steep_row, col=steep_col),
        PixelPoint(row=shallow_row, col=shallow_col),
        draw(st.integers(min_value=1, max_value=3)),
        draw(st.sampled_from(MODES)),
    )


def _meter(data):
    n_rows, n_cols = data.shape
    csd = ChargeStabilityDiagram(
        data=data,
        x_voltages=np.linspace(0.0, 1.0, n_cols),
        y_voltages=np.linspace(0.0, 1.0, n_rows),
    )
    return ChargeSensorMeter(DatasetBackend(csd))


class TestSweepsFollowAlgorithm2:
    @given(case=sweep_cases())
    @settings(max_examples=150, deadline=None)
    def test_traces_and_probes_equal_the_per_pixel_reference(self, case):
        data, steep, shallow, delta, (run_row, run_column) = case
        meter, reference_meter = _meter(data), _meter(data)
        expected = reference_sweeps(reference_meter, delta, steep, shallow, run_row, run_column)
        sweeper = TransitionLineSweeper(meter, SweepConfig(delta_pixels=delta))
        if expected[0].n_points == 0 and expected[1].n_points == 0:
            with pytest.raises(SweepError):
                sweeper.run(steep, shallow, run_row=run_row, run_column=run_column)
        else:
            traces = sweeper.run(steep, shallow, run_row=run_row, run_column=run_column)
            assert traces == expected
        assert meter.snapshot() == reference_meter.snapshot()
        for axis, reference_axis in zip(meter.probed_pixels(), reference_meter.probed_pixels()):
            assert np.array_equal(axis, reference_axis)
        assert np.array_equal(
            meter.measured_image(), reference_meter.measured_image(), equal_nan=True
        )
