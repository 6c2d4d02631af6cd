"""Tests for success-rate surfaces and the Wilson interval beneath them."""

from __future__ import annotations

import json
import math
import time

import pytest

from repro.analysis.metrics import wilson_interval
from repro.analysis.reporting import format_surface_table
from repro.exceptions import ConfigurationError
from repro.scenarios import DeviceSpec
from repro.scenariospace import (
    Choice,
    Fixed,
    LogUniform,
    ScenarioSpace,
    SurfaceCell,
    SurfaceReport,
    Uniform,
    success_surface,
)
from repro.scenariospace.surface import _bin_edges, _bin_index


class TestWilsonInterval:
    def test_empty_sample_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_the_point_estimate(self):
        low, high = wilson_interval(7, 10)
        assert low < 0.7 < high

    def test_never_leaves_unit_interval(self):
        assert wilson_interval(10, 10)[1] == 1.0
        assert wilson_interval(0, 10)[0] == 0.0

    def test_all_failures_still_has_width(self):
        low, high = wilson_interval(0, 10)
        assert low == 0.0
        assert 0.0 < high < 0.5

    def test_narrows_with_more_data(self):
        narrow = wilson_interval(70, 100)
        wide = wilson_interval(7, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_known_value(self):
        # Classic textbook case: 8/10 at z=1.96.
        low, high = wilson_interval(8, 10)
        assert low == pytest.approx(0.4901, abs=1e-3)
        assert high == pytest.approx(0.9433, abs=1e-3)

    def test_rejects_inconsistent_counts(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 3)
        with pytest.raises(ConfigurationError):
            wilson_interval(-1, 3)
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 3, z=0.0)


class TestBinning:
    def test_edges_span_sampler_support(self):
        space = ScenarioSpace(name="s", drift_mv_per_hour=Uniform(0.0, 30.0))
        edges = _bin_edges(space, "drift_mv_per_hour", 3)
        assert list(edges) == [0.0, 10.0, 20.0, 30.0]

    def test_degenerate_axis_collapses_to_one_cell(self):
        space = ScenarioSpace(name="s", fault_rate=Fixed(0.0))
        edges = _bin_edges(space, "fault_rate", 3)
        assert list(edges) == [0.0, 0.0]
        assert _bin_index(edges, 0.0) == 0

    def test_top_edge_belongs_to_last_cell(self):
        space = ScenarioSpace(name="s", drift_mv_per_hour=Uniform(0.0, 30.0))
        edges = _bin_edges(space, "drift_mv_per_hour", 3)
        assert _bin_index(edges, 30.0) == 2
        assert _bin_index(edges, 0.0) == 0
        assert _bin_index(edges, 10.0) == 1


class TestSurfaceCell:
    def test_empty_cell_rate_is_nan(self):
        cell = SurfaceCell(0, 1, 0, 1, 0, 0, 0.0, 1.0)
        assert math.isnan(cell.success_rate)

    def test_round_trip(self):
        cell = SurfaceCell(0.0, 1.0, 0.0, 0.5, 4, 3, 0.3, 0.95)
        assert SurfaceCell.from_dict(cell.as_dict()) == cell


class TestSuccessSurface:
    @pytest.fixture(scope="class")
    def report(self):
        space = ScenarioSpace(
            name="surf",
            noise_scale=Uniform(0.5, 2.0),
            drift_mv_per_hour=Uniform(0.0, 20.0),
            fault_rate=Fixed(0.0),
        )
        return success_surface(
            space,
            n_draws=6,
            seed=2,
            axes=("noise_scale", "drift_mv_per_hour"),
            bins=2,
            resolution=16,
        )

    def test_every_job_lands_in_exactly_one_cell(self, report):
        assert report.n_jobs == 6
        assert len(report.cells) == 4

    def test_cells_carry_wilson_intervals(self, report):
        for cell in report.cells:
            if cell.n_jobs == 0:
                continue
            low, high = wilson_interval(cell.n_succeeded, cell.n_jobs)
            assert (cell.ci_low, cell.ci_high) == (low, high)

    def test_worst_cell_is_populated_minimum(self, report):
        worst = report.worst_cell()
        assert worst is not None
        rates = [c.success_rate for c in report.cells if c.n_jobs > 0]
        assert worst.success_rate == min(rates)

    def test_report_round_trips_strict_json(self, report):
        payload = json.dumps(report.as_dict(), allow_nan=False)
        assert SurfaceReport.from_dict(json.loads(payload)) == report

    def test_format_renders_bounds_and_counts(self, report):
        text = report.format()
        assert "Success surface: surf" in text
        assert "95% CI" in text
        assert "noise_scale" in text

    def test_degenerate_axis_makes_single_column(self):
        space = ScenarioSpace(
            name="flat",
            noise_scale=Uniform(0.5, 2.0),
            drift_mv_per_hour=Fixed(0.0),
            fault_rate=Fixed(0.0),
        )
        report = success_surface(
            space,
            n_draws=4,
            seed=1,
            axes=("noise_scale", "fault_rate"),
            bins=2,
            resolution=16,
        )
        # x has 2 bins; the Fixed y axis collapses to one column.
        assert len(report.cells) == 2
        assert report.n_jobs == 4

    def test_same_seed_same_surface(self):
        space = ScenarioSpace(
            name="det",
            noise_scale=Uniform(0.5, 2.0),
            fault_rate=Fixed(0.0),
        )
        kwargs = dict(
            n_draws=4,
            seed=9,
            axes=("noise_scale", "drift_mv_per_hour"),
            bins=2,
            resolution=16,
        )
        assert success_surface(space, **kwargs) == success_surface(
            space, **kwargs
        )

    def test_rejects_bad_axes(self):
        space = ScenarioSpace(name="s")
        with pytest.raises(ConfigurationError):
            success_surface(space, axes=("noise_scale", "noise_scale"))
        with pytest.raises(ConfigurationError):
            success_surface(space, axes=("noise_scale", "resolution"))
        with pytest.raises(ConfigurationError):
            success_surface(space, bins=0)


class TestThreeDeviceSurface:
    """A surface over three device families, every axis random, pinned."""

    @pytest.fixture(scope="class")
    def space(self):
        return ScenarioSpace(
            name="three-devices",
            device=Choice(
                options=(
                    DeviceSpec.of("double_dot"),
                    DeviceSpec.of("linear_array", n_dots=6),
                    DeviceSpec.of("grid_array", rows=2, cols=3),
                )
            ),
            noise_scale=LogUniform(0.25, 4.0),
            drift_mv_per_hour=Uniform(0.0, 30.0),
            fault_rate=Uniform(0.0, 0.2),
        )

    def test_surface_outcome_is_pinned(self, space):
        report = success_surface(
            space,
            n_draws=8,
            seed=1,
            axes=("noise_scale", "drift_mv_per_hour"),
            bins=2,
            resolution=24,
        )
        assert report.n_jobs == 8
        assert report.n_succeeded == 4

    def test_sampling_keeps_fifty_draws_per_second(self, space):
        # A floor two orders of magnitude under the usual rate: it trips
        # only if sampling stops being cheap next to running a draw.
        started = time.perf_counter()
        draws = space.sample(200, seed=3)
        assert time.perf_counter() - started < 4.0
        assert len(draws) == 200


class TestFormatSurfaceTable:
    def test_degenerate_bounds_render_as_equality(self):
        text = format_surface_table(
            "noise_scale",
            "fault_rate",
            [
                {
                    "x_low": 0.5,
                    "x_high": 2.0,
                    "y_low": 0.0,
                    "y_high": 0.0,
                    "n_jobs": 3,
                    "n_succeeded": 2,
                    "ci_low": 0.2,
                    "ci_high": 0.9,
                }
            ],
        )
        assert "fault_rate=0" in text
        assert "noise_scale [0.5, 2)" in text

    def test_empty_cell_renders_dashes(self):
        text = format_surface_table(
            "noise_scale",
            "fault_rate",
            [
                {
                    "x_low": 0.0,
                    "x_high": 1.0,
                    "y_low": 0.0,
                    "y_high": 1.0,
                    "n_jobs": 0,
                    "n_succeeded": 0,
                    "ci_low": 0.0,
                    "ci_high": 1.0,
                }
            ],
        )
        assert "-" in text
