"""Tests for the two-piece-wise linear transition-line fit.

The fit solves its bounded least-squares problem exactly.  SciPy's bounded
``least_squares``, called as the fitter called it before the exact solve
replaced it (TRF, a 2-point Jacobian, the start point at 85 % of the
anchors' span, the same bounds), is kept here as the oracle: on every input
the exact fit's sum of squares must be no more than the oracle's times
``1 + 1e-9``, and its intersection must lie inside the bounds.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.campaign import CampaignGrid, classify_failure, run_campaign_job
from repro.core import FitConfig, TransitionLineFitter, piecewise_transition_model
from repro.datasets import load_suite
from repro.exceptions import FitError
from repro.instrument import ExperimentSession
from repro.pipeline import FastVirtualGateExtractor
from repro.scenarios import DeviceSpec

STEEP_ANCHOR = (0.030, 0.000)  # (vx, vy): bottom-right, on the steep line
SHALLOW_ANCHOR = (0.000, 0.024)  # top-left, on the shallow line
TRUE_INTERSECTION = (0.026, 0.020)

#: Slack on the oracle's sum of squares, relative and absolute: the second
#: is the rounding floor of squared residuals of values of order one.
SSE_RTOL = 1e-9
SSE_ATOL = 1e-28


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


def bounds_of(steep, shallow) -> tuple[tuple[float, float], tuple[float, float]]:
    """``((x_lo, y_lo), (x_hi, y_hi))`` of the intersection, as the fit sets them."""
    span_x = steep[0] - shallow[0]
    span_y = shallow[1] - steep[1]
    eps_x, eps_y = 1e-6 * span_x, 1e-6 * span_y
    return (shallow[0] + eps_x, steep[1] + eps_y), (steep[0] - eps_x, shallow[1] - eps_y)


def least_squares_oracle(points, steep, shallow) -> tuple[float, float]:
    """The intersection SciPy's bounded TRF finds from the old start point."""
    x, y = points[:, 0], points[:, 1]
    span_x = steep[0] - shallow[0]
    span_y = shallow[1] - steep[1]
    p0 = (shallow[0] + 0.85 * span_x, steep[1] + 0.85 * span_y)
    result = optimize.least_squares(
        lambda p: piecewise_transition_model(x, p[0], p[1], steep, shallow) - y,
        p0,
        jac="2-point",
        bounds=bounds_of(steep, shallow),
        method="trf",
        max_nfev=2000,
    )
    return float(result.x[0]), float(result.x[1])


def sum_squares(points, steep, shallow, intersection) -> float:
    residuals = points[:, 1] - piecewise_transition_model(
        points[:, 0], *intersection, steep, shallow
    )
    return float(residuals @ residuals)


def assert_no_worse_than_oracle(points, steep, shallow) -> float:
    """Fit, check the bounds and the oracle; return the relative SSE change."""
    fit = TransitionLineFitter().fit(points, steep, shallow)
    (x_lo, y_lo), (x_hi, y_hi) = bounds_of(steep, shallow)
    x0, y0 = fit.intersection_voltage
    assert x_lo <= x0 <= x_hi and y_lo <= y0 <= y_hi
    exact = sum_squares(points, steep, shallow, fit.intersection_voltage)
    oracle = sum_squares(points, steep, shallow, least_squares_oracle(points, steep, shallow))
    assert exact <= oracle * (1 + SSE_RTOL) + SSE_ATOL
    return (exact - oracle) / oracle if oracle > 0 else 0.0


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

    def test_broadcasts_one_intersection_per_row(self):
        xs = np.linspace(-0.005, 0.035, 17)
        x0s = np.array([0.001, 0.026, 0.029])
        y0s = np.array([0.023, 0.020, 0.001])
        rows = piecewise_transition_model(
            xs, x0s[:, None], y0s[:, None], STEEP_ANCHOR, SHALLOW_ANCHOR
        )
        for row, x0, y0 in zip(rows, x0s, y0s):
            expected = piecewise_transition_model(xs, x0, y0, STEEP_ANCHOR, SHALLOW_ANCHOR)
            assert np.array_equal(row, expected)


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

    def test_points_on_anchor_abscissae_rejected(self):
        # Every residual is then independent of the intersection; the
        # iterative solver used to stop at its start point and report it.
        points = np.array(
            [[0.0, 0.024], [0.0, 0.020], [0.030, 0.0], [0.030, 0.003], [0.0, 0.022]]
        )
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="every point lies on an anchor's abscissa") as exc:
                TransitionLineFitter().fit(points, STEEP_ANCHOR, SHALLOW_ANCHOR)
        assert classify_failure(str(exc.value), False, False) == "too-few-points"

    def test_one_point_off_the_anchor_abscissae_is_enough(self):
        points = np.array(
            [[0.0, 0.024], [0.0, 0.020], [0.030, 0.0], [0.030, 0.003], [0.028, 0.010]]
        )
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            result = TransitionLineFitter().fit(points, STEEP_ANCHOR, SHALLOW_ANCHOR)
        assert np.isfinite(result.slope_steep) and np.isfinite(result.slope_shallow)
        assert_no_worse_than_oracle(points, STEEP_ANCHOR, SHALLOW_ANCHOR)


#: The seed-1 fast-method job list of perfbench's ``grid-fast-serial``.
GRID = CampaignGrid(
    devices=(
        DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),
        DeviceSpec.of("double_dot", cross_coupling=(0.32, 0.27)),
        DeviceSpec.of("linear_array", n_dots=4),
    ),
    resolutions=(63,),
    noise_scales=(0.0, 1.0),
    methods=("fast",),
    n_repeats=10,
    seed=1,
)


@pytest.fixture(scope="module")
def recorded_inputs() -> dict[str, list]:
    """Every fitter input of the 12 Table-1 CSDs and of the grid's jobs."""
    recorded: dict[str, list] = {"table1": [], "grid": []}
    fit = TransitionLineFitter.fit
    target = recorded["table1"]

    def recording_fit(self, points, steep, shallow):
        target.append((np.array(points, dtype=float), tuple(steep), tuple(shallow)))
        return fit(self, points, steep, shallow)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TransitionLineFitter, "fit", recording_fit)
        for csd in load_suite():
            FastVirtualGateExtractor().extract(ExperimentSession.from_csd(csd))
        target = recorded["grid"]
        for job in GRID.expand():
            run_campaign_job(job)
    return recorded


class TestAgainstLeastSquares:
    @pytest.mark.parametrize("source, minimum", [("table1", 12), ("grid", 90)])
    def test_recorded_inputs(self, recorded_inputs, source, minimum):
        inputs = recorded_inputs[source]
        assert len(inputs) >= minimum
        for fit_input in inputs:
            assert_no_worse_than_oracle(*fit_input)

    def test_lower_minimum_on_table1_csd1(self, recorded_inputs):
        # The oracle stops in a local minimum on the pathological CSD 1.
        change = assert_no_worse_than_oracle(*recorded_inputs["table1"][0])
        assert change < -1e-3

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_scattered_points(self, data):
        fit_or_refuse(*data.draw(point_sets("scattered")))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_duplicate_abscissae(self, data):
        fit_or_refuse(*data.draw(point_sets("duplicates")))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_points_on_anchor_abscissae_or_outside_the_span(self, data):
        fit_or_refuse(*data.draw(point_sets("anchors")))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bound_hugging_points(self, data):
        # Every point above the shallow anchor's level or below the steep
        # anchor's: the minimum often sits on a y0 bound between two data
        # abscissae, which only the stationarity-quartic candidates reach.
        fit_or_refuse(*data.draw(point_sets("hugging")))


def fit_or_refuse(points, steep, shallow) -> None:
    """The oracle check, or FitError when no point is off the anchors' abscissae."""
    if np.all((points[:, 0] == shallow[0]) | (points[:, 0] == steep[0])):
        with pytest.raises(FitError, match="anchor's abscissa"):
            TransitionLineFitter().fit(points, steep, shallow)
    else:
        assert_no_worse_than_oracle(points, steep, shallow)


@st.composite
def point_sets(draw, kind: str):
    """Anchors in the expected arrangement and 4-80 points of one ``kind``."""
    x_origin = draw(st.floats(-1.0, 1.0))
    y_origin = draw(st.floats(-1.0, 1.0))
    span_x = draw(st.floats(0.01, 2.0))
    span_y = draw(st.floats(0.01, 2.0))
    steep = (x_origin + span_x, y_origin)
    shallow = (x_origin, y_origin + span_y)
    n = draw(st.integers(4, 80))
    unit = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
    fx, fy = np.array(draw(unit)), np.array(draw(unit))
    x = x_origin + span_x * (1.2 * fx - 0.1)
    y = y_origin + span_y * (1.4 * fy - 0.2)
    if kind == "duplicates":
        pool = np.array(draw(st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=4)))
        x = x_origin + span_x * pool[(fx * (pool.size - 1)).round().astype(int)]
    elif kind == "anchors":
        where = np.array(draw(st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n)))
        x = np.where(where == 0, shallow[0], np.where(where == 1, steep[0], x))
    elif kind == "hugging":
        above = draw(st.booleans())
        y = shallow[1] + 0.5 * span_y * fy if above else steep[1] - 0.5 * span_y * fy
    return np.column_stack([x, y]), steep, shallow
