"""Tests for the shrinking-triangle row/column sweeps."""

from __future__ import annotations

from itertools import zip_longest

import numpy as np
import pytest

from repro.core import (
    AnchorFinder,
    PixelPoint,
    TransitionLineSweeper,
)
from repro.exceptions import SweepError
from repro.instrument import ChargeSensorMeter, DatasetBackend, ExperimentSession
from repro.physics import ChargeStabilityDiagram


def line_distance_pixels(csd, points, slope, crossing_x, crossing_y) -> np.ndarray:
    """Perpendicular pixel distance of (row, col) points from a ground-truth line."""
    distances = []
    x_step, y_step = csd.x_step, csd.y_step
    for row, col in points:
        vx = csd.x_voltages[col]
        vy = csd.y_voltages[row]
        # Line through the crossing point with the given slope.
        residual_v = vy - (crossing_y + slope * (vx - crossing_x))
        # Convert the vertical voltage residual to pixels and project.
        residual_rows = residual_v / y_step
        slope_pixels = slope * x_step / y_step
        distances.append(abs(residual_rows) / np.sqrt(1.0 + slope_pixels**2))
    return np.array(distances)


@pytest.fixture()
def anchors_and_meter(clean_csd):
    session = ExperimentSession.from_csd(clean_csd)
    anchors = AnchorFinder(session.meter).find()
    return anchors, session.meter


class TestRowSweep:
    def test_tracks_steep_line(self, clean_csd, anchors_and_meter):
        anchors, meter = anchors_and_meter
        sweeper = TransitionLineSweeper(meter)
        trace, _ = sweeper.run(anchors.steep_anchor, anchors.shallow_anchor, run_column=False)
        assert trace.direction == "row-major"
        assert trace.n_points > 10
        geometry = clean_csd.geometry
        # Points found below the crossing row should hug the steep line.
        crossing_row = int(
            np.argmin(np.abs(clean_csd.y_voltages - geometry.crossing_y))
        )
        steep_points = [p for p in trace.transition_points if p[0] < crossing_row - 2]
        assert len(steep_points) > 5
        distances = line_distance_pixels(
            clean_csd,
            steep_points,
            geometry.slope_steep,
            geometry.crossing_x,
            geometry.crossing_y,
        )
        assert np.median(distances) < 2.5

    def test_one_point_per_swept_row(self, anchors_and_meter):
        anchors, meter = anchors_and_meter
        trace, _ = TransitionLineSweeper(meter).run(
            anchors.steep_anchor, anchors.shallow_anchor, run_column=False
        )
        rows = [p[0] for p in trace.transition_points]
        assert len(rows) == len(set(rows))

    def test_segments_stay_small_near_steep_line(self, anchors_and_meter):
        anchors, meter = anchors_and_meter
        trace, _ = TransitionLineSweeper(meter).run(
            anchors.steep_anchor, anchors.shallow_anchor, run_column=False
        )
        # The shrinking triangle keeps early segments short (a few pixels).
        early = trace.segment_lengths[: max(3, len(trace.segment_lengths) // 4)]
        assert np.median(early) <= 6


class TestColumnSweep:
    def test_tracks_shallow_line(self, clean_csd, anchors_and_meter):
        anchors, meter = anchors_and_meter
        _, trace = TransitionLineSweeper(meter).run(
            anchors.steep_anchor, anchors.shallow_anchor, run_row=False
        )
        assert trace.direction == "column-major"
        assert trace.n_points > 10
        geometry = clean_csd.geometry
        crossing_col = int(
            np.argmin(np.abs(clean_csd.x_voltages - geometry.crossing_x))
        )
        shallow_points = [p for p in trace.transition_points if p[1] < crossing_col - 2]
        assert len(shallow_points) > 5
        distances = line_distance_pixels(
            clean_csd,
            shallow_points,
            geometry.slope_shallow,
            geometry.crossing_x,
            geometry.crossing_y,
        )
        assert np.median(distances) < 2.5

    def test_one_point_per_swept_column(self, anchors_and_meter):
        anchors, meter = anchors_and_meter
        _, trace = TransitionLineSweeper(meter).run(
            anchors.steep_anchor, anchors.shallow_anchor, run_row=False
        )
        cols = [p[1] for p in trace.transition_points]
        assert len(cols) == len(set(cols))


class TestRunBoth:
    def test_run_returns_both_traces(self, anchors_and_meter):
        anchors, meter = anchors_and_meter
        row_trace, column_trace = TransitionLineSweeper(meter).run(
            anchors.steep_anchor, anchors.shallow_anchor
        )
        assert row_trace.n_points > 0
        assert column_trace.n_points > 0

    def test_disabled_sweep_yields_empty_trace(self, anchors_and_meter):
        anchors, meter = anchors_and_meter
        row_trace, column_trace = TransitionLineSweeper(meter).run(
            anchors.steep_anchor, anchors.shallow_anchor, run_column=False
        )
        assert row_trace.n_points > 0
        assert column_trace.n_points == 0

    def test_degenerate_anchors_raise(self):
        flat = ChargeStabilityDiagram(
            data=np.ones((20, 20)),
            x_voltages=np.linspace(0, 1, 20),
            y_voltages=np.linspace(0, 1, 20),
        )
        meter = ChargeSensorMeter(DatasetBackend(flat))
        sweeper = TransitionLineSweeper(meter)
        with pytest.raises(SweepError):
            # Anchors adjacent to each other leave no rows/columns to sweep.
            sweeper.run(PixelPoint(row=0, col=2), PixelPoint(row=1, col=1))

    def test_probe_fraction_stays_low(self, clean_csd, anchors_and_meter):
        anchors, meter = anchors_and_meter
        TransitionLineSweeper(meter).run(anchors.steep_anchor, anchors.shallow_anchor)
        assert meter.probe_fraction < 0.25


class TestSweepsInLockstep:
    """Both sweeps step together: one meter call per step serves both."""

    def test_two_walkers_equal_two_single_sweeps(self, noisy_csd):
        anchors = AnchorFinder(ExperimentSession.from_csd(noisy_csd).meter).find()
        meters = [ChargeSensorMeter(DatasetBackend(noisy_csd)) for _ in range(3)]
        both, row_only, column_only = (
            TransitionLineSweeper(meter).run(
                anchors.steep_anchor,
                anchors.shallow_anchor,
                run_row=run_row,
                run_column=run_column,
            )
            for meter, (run_row, run_column) in zip(
                meters, ((True, True), (True, False), (False, True))
            )
        )
        assert both == (row_only[0], column_only[1])
        both_pixels, row_pixels, column_pixels = (
            set(zip(*meter.probed_pixels())) for meter in meters
        )
        assert row_pixels - column_pixels and column_pixels - row_pixels
        assert both_pixels == row_pixels | column_pixels
        assert meters[0].n_probes == len(both_pixels)

    @pytest.mark.parametrize(
        ("run_row", "run_column"), [(True, True), (True, False), (False, True)]
    )
    def test_one_meter_call_per_step(self, monkeypatch, anchors_and_meter, run_row, run_column):
        anchors, meter = anchors_and_meter
        requests = []
        get_currents = meter.get_currents

        def counting_get_currents(rows, cols):
            requests.append(len(rows))
            return get_currents(rows, cols)

        monkeypatch.setattr(meter, "get_currents", counting_get_currents)
        row_trace, column_trace = TransitionLineSweeper(meter).run(
            anchors.steep_anchor,
            anchors.shallow_anchor,
            run_row=run_row,
            run_column=run_column,
        )
        steps = list(
            zip_longest(row_trace.segment_lengths, column_trace.segment_lengths, fillvalue=0)
        )
        assert len(steps) == max(row_trace.n_points, column_trace.n_points) > 10
        # Each step with a segment to probe is one call of three probes (the
        # gradient's centre, right and upper-right) per candidate pixel.
        assert requests == [3 * (row + column) for row, column in steps if row + column]
