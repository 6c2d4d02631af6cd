"""Tests for success criteria and accuracy metrics."""

from __future__ import annotations

import math

import pytest

from repro.analysis import SuccessCriterion, accuracy_metrics, probe_reduction, speedup
from repro.core.result import ExtractionResult, ProbeStatistics
from repro.core.virtualization import VirtualizationMatrix
from repro.physics.csd import TransitionLineGeometry
from repro.pipeline import FastVirtualGateExtractor


GEOMETRY = TransitionLineGeometry(
    slope_steep=-2.5,
    slope_shallow=-0.35,
    crossing_x=0.02,
    crossing_y=0.02,
    alpha_12=0.4,
    alpha_21=0.35,
)


def make_result(alpha_12, alpha_21, success=True) -> ExtractionResult:
    matrix = VirtualizationMatrix(alpha_12=alpha_12, alpha_21=alpha_21)
    return ExtractionResult(
        success=success,
        method="fast-extraction",
        matrix=matrix,
        slopes=(matrix.slope_steep, matrix.slope_shallow),
        probe_stats=ProbeStatistics(n_probes=100, n_requests=120, n_pixels=1000, elapsed_s=5.0),
    )


class TestSuccessCriterion:
    def test_exact_match_succeeds(self):
        criterion = SuccessCriterion()
        assert criterion.evaluate(make_result(0.4, 0.35), GEOMETRY)

    def test_small_error_within_absolute_tolerance(self):
        criterion = SuccessCriterion(max_alpha_abs_error=0.08)
        assert criterion.evaluate(make_result(0.45, 0.30), GEOMETRY)

    def test_large_error_fails(self):
        criterion = SuccessCriterion(max_alpha_abs_error=0.05, max_alpha_rel_error=0.1)
        assert not criterion.evaluate(make_result(0.8, 0.35), GEOMETRY)

    def test_internal_failure_fails_regardless(self):
        criterion = SuccessCriterion()
        assert not criterion.evaluate(make_result(0.4, 0.35, success=False), GEOMETRY)

    def test_no_geometry_falls_back_to_internal_verdict(self):
        criterion = SuccessCriterion()
        assert criterion.evaluate(make_result(0.9, 0.9), None)
        assert not criterion.evaluate(make_result(0.9, 0.9, success=False), None)

    def test_relative_tolerance_path(self):
        criterion = SuccessCriterion(max_alpha_abs_error=0.001, max_alpha_rel_error=0.5)
        assert criterion.alpha_matches(0.5, 0.4)
        assert not criterion.alpha_matches(0.9, 0.4)

    def test_non_finite_extraction_rejected(self):
        criterion = SuccessCriterion()
        assert not criterion.alpha_matches(float("nan"), 0.4)

    def test_zero_truth_judged_by_absolute_branch(self):
        criterion = SuccessCriterion(max_alpha_abs_error=0.08, max_alpha_rel_error=0.35)
        assert criterion.alpha_matches(0.05, 0.0)
        assert not criterion.alpha_matches(0.2, 0.0)

    def test_near_zero_truth_does_not_explode_relative_branch(self):
        # Regression: a denormal-scale truth used to hit the relative branch
        # with a near-zero denominator; the floor routes it to the absolute
        # branch like an exact zero.
        criterion = SuccessCriterion(max_alpha_abs_error=0.08, max_alpha_rel_error=0.35)
        assert criterion.alpha_matches(0.05, 1e-300)
        assert not criterion.alpha_matches(0.2, 1e-300)
        assert not criterion.alpha_matches(0.2, 1e-7)

    def test_denominator_floor_boundary(self):
        # Absolute tolerance tightened so only the relative branch can match.
        criterion = SuccessCriterion(
            max_alpha_abs_error=1e-9,
            max_alpha_rel_error=0.5,
            rel_error_denominator_floor=1e-6,
        )
        # Just above the floor the relative branch applies (40% error ok).
        assert criterion.alpha_matches(1.4e-6, 1.0e-6)
        # Just below it the relative branch is disabled, even though the
        # relative error (~41%) would have been within tolerance.
        assert not criterion.alpha_matches(1.4e-6, 9.9e-7)


class TestAccuracyMetrics:
    def test_perfect_extraction_has_zero_errors(self):
        metrics = accuracy_metrics(make_result(0.4, 0.35), GEOMETRY)
        assert metrics.alpha_12_error == pytest.approx(0.0)
        assert metrics.alpha_21_error == pytest.approx(0.0)
        assert metrics.orthogonality_error_deg == pytest.approx(0.0, abs=1e-9)
        assert metrics.max_alpha_error == 0.0

    def test_failed_extraction_has_infinite_errors(self):
        failed = ExtractionResult(
            success=False,
            method="fast-extraction",
            matrix=None,
            slopes=None,
            probe_stats=ProbeStatistics(0, 0, 100, 0.0),
        )
        metrics = accuracy_metrics(failed, GEOMETRY)
        assert metrics.max_alpha_error == float("inf")

    def test_errors_scale_with_deviation(self):
        small = accuracy_metrics(make_result(0.42, 0.36), GEOMETRY)
        large = accuracy_metrics(make_result(0.55, 0.45), GEOMETRY)
        assert large.max_alpha_error > small.max_alpha_error
        assert large.orthogonality_error_deg > small.orthogonality_error_deg


class TestRatios:
    def test_speedup(self):
        assert speedup(500.0, 50.0) == pytest.approx(10.0)
        assert speedup(100.0, 0.0) == float("inf")

    def test_probe_reduction(self):
        assert probe_reduction(10000, 1000) == pytest.approx(10.0)
        assert probe_reduction(10, 0) == float("inf")

    def test_empty_runs_have_undefined_ratios(self):
        # Both costs zero means "nothing ran": nan, not an infinite speedup
        # that would poison campaign aggregate tables.
        assert math.isnan(speedup(0.0, 0.0))
        assert math.isnan(probe_reduction(0, 0))

    def test_zero_baseline_with_real_fast_cost(self):
        assert speedup(0.0, 2.0) == 0.0
        assert probe_reduction(0, 5) == 0.0


class TestEndToEndConsistency:
    def test_extractor_result_passes_criterion_on_clean_data(self, clean_csd, clean_session):
        result = FastVirtualGateExtractor().extract(clean_session)
        assert SuccessCriterion().evaluate(result, clean_csd.geometry)
