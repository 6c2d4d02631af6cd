"""Tests for the two-piece-wise linear transition-line fit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FitConfig, TransitionLineFitter, piecewise_transition_model
from repro.exceptions import FitError


STEEP_ANCHOR = (0.030, 0.000)  # (vx, vy): bottom-right, on the steep line
SHALLOW_ANCHOR = (0.000, 0.024)  # top-left, on the shallow line
TRUE_INTERSECTION = (0.026, 0.020)


def synthetic_points(n_per_line: int = 15, noise: float = 0.0, seed: int = 0) -> np.ndarray:
    """Points sampled from the two ground-truth line segments."""
    rng = np.random.default_rng(seed)
    x0, y0 = TRUE_INTERSECTION
    steep_x = np.linspace(x0, STEEP_ANCHOR[0], n_per_line)
    steep_slope = (STEEP_ANCHOR[1] - y0) / (STEEP_ANCHOR[0] - x0)
    steep_y = y0 + steep_slope * (steep_x - x0)
    shallow_x = np.linspace(SHALLOW_ANCHOR[0], x0, n_per_line)
    shallow_slope = (y0 - SHALLOW_ANCHOR[1]) / (x0 - SHALLOW_ANCHOR[0])
    shallow_y = SHALLOW_ANCHOR[1] + shallow_slope * (shallow_x - SHALLOW_ANCHOR[0])
    xs = np.concatenate([steep_x, shallow_x])
    ys = np.concatenate([steep_y, shallow_y]) + rng.normal(0.0, noise, size=2 * n_per_line)
    return np.column_stack([xs, ys])


class TestPiecewiseModel:
    def test_passes_through_anchors_and_intersection(self):
        x0, y0 = TRUE_INTERSECTION
        for x, expected in [
            (STEEP_ANCHOR[0], STEEP_ANCHOR[1]),
            (SHALLOW_ANCHOR[0], SHALLOW_ANCHOR[1]),
            (x0, y0),
        ]:
            value = piecewise_transition_model(
                np.array([x]), x0, y0, STEEP_ANCHOR, SHALLOW_ANCHOR
            )
            assert value[0] == pytest.approx(expected, abs=1e-12)

    def test_branches_are_linear(self):
        x0, y0 = TRUE_INTERSECTION
        xs = np.linspace(0.0, x0, 10)
        values = piecewise_transition_model(xs, x0, y0, STEEP_ANCHOR, SHALLOW_ANCHOR)
        slopes = np.diff(values) / np.diff(xs)
        assert np.allclose(slopes, slopes[0])


class TestFitter:
    def test_recovers_exact_intersection_without_noise(self):
        fitter = TransitionLineFitter()
        result = fitter.fit(synthetic_points(), STEEP_ANCHOR, SHALLOW_ANCHOR)
        assert result.intersection_voltage[0] == pytest.approx(TRUE_INTERSECTION[0], abs=2e-4)
        assert result.intersection_voltage[1] == pytest.approx(TRUE_INTERSECTION[1], abs=2e-4)
        assert result.residual_rms < 1e-4

    def test_recovers_slopes_with_noise(self):
        fitter = TransitionLineFitter()
        result = fitter.fit(
            synthetic_points(noise=3e-4, seed=3), STEEP_ANCHOR, SHALLOW_ANCHOR
        )
        true_steep = (STEEP_ANCHOR[1] - TRUE_INTERSECTION[1]) / (
            STEEP_ANCHOR[0] - TRUE_INTERSECTION[0]
        )
        true_shallow = (TRUE_INTERSECTION[1] - SHALLOW_ANCHOR[1]) / (
            TRUE_INTERSECTION[0] - SHALLOW_ANCHOR[0]
        )
        assert result.slope_steep == pytest.approx(true_steep, rel=0.25)
        assert result.slope_shallow == pytest.approx(true_shallow, rel=0.25)

    def test_slopes_have_expected_signs(self):
        result = TransitionLineFitter().fit(synthetic_points(), STEEP_ANCHOR, SHALLOW_ANCHOR)
        assert result.slope_steep < 0
        assert result.slope_shallow < 0
        assert abs(result.slope_steep) > abs(result.slope_shallow)

    def test_n_points_recorded(self):
        points = synthetic_points(n_per_line=8)
        result = TransitionLineFitter().fit(points, STEEP_ANCHOR, SHALLOW_ANCHOR)
        assert result.n_points_used == len(points)

    def test_too_few_points_rejected(self):
        with pytest.raises(FitError):
            TransitionLineFitter(FitConfig(min_points=5)).fit(
                synthetic_points()[:3], STEEP_ANCHOR, SHALLOW_ANCHOR
            )

    def test_bad_anchor_arrangement_rejected(self):
        with pytest.raises(FitError):
            TransitionLineFitter().fit(synthetic_points(), SHALLOW_ANCHOR, STEEP_ANCHOR)

    def test_wrong_point_shape_rejected(self):
        with pytest.raises(FitError):
            TransitionLineFitter().fit(np.zeros((5, 3)), STEEP_ANCHOR, SHALLOW_ANCHOR)

    def test_non_finite_point_rejected(self):
        points = synthetic_points()
        points[3, 1] = np.nan
        with pytest.raises(FitError, match="did not converge: array must not contain"):
            TransitionLineFitter().fit(points, STEEP_ANCHOR, SHALLOW_ANCHOR)

    def test_evaluation_budget_exhaustion_rejected(self):
        # Points scattered over the anchors' box, with no line to find,
        # outlast the smallest evaluation budget.
        rng = np.random.default_rng(1)
        points = np.column_stack([rng.uniform(0, 0.030, 20), rng.uniform(0, 0.024, 20)])
        fitter = TransitionLineFitter(FitConfig(max_function_evaluations=10))
        with pytest.raises(FitError, match="did not converge: The maximum number"):
            fitter.fit(points, STEEP_ANCHOR, SHALLOW_ANCHOR)
