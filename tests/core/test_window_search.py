"""Tests for the experimental transition-window search and auto-tune workflow."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    TransitionWindowFinder,
    WindowSearchConfig,
    tilted_gradient_image,
)
from repro.core.window_search import _first_and_second_crossings
from repro.exceptions import ExtractionError
from repro.physics import CSDSimulator, DotArrayDevice, standard_lab_noise
from repro.pipeline import AutoTuningWorkflow


class TestTiltedGradientImage:
    def test_matches_probe_level_feature(self, clean_csd):
        from repro.core import FeatureGradient
        from repro.instrument import ChargeSensorMeter, DatasetBackend

        image_gradient = tilted_gradient_image(clean_csd.data)
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        probe_gradient = FeatureGradient(meter)
        for row, col in [(5, 5), (20, 40), (0, 0), (30, 10)]:
            assert image_gradient[row, col] == pytest.approx(
                probe_gradient.value(row, col), abs=1e-12
            )

    def test_rejects_non_2d(self):
        with pytest.raises(ExtractionError):
            tilted_gradient_image(np.zeros(5))

    def test_zero_on_flat_image(self):
        assert np.allclose(tilted_gradient_image(np.full((8, 8), 1.3)), 0.0)


class TestFirstAndSecondCrossings:
    def test_two_separated_features(self):
        mask = np.array([0, 0, 1, 1, 0, 0, 0, 1, 0], dtype=bool)
        assert _first_and_second_crossings(mask) == (2, 7)

    def test_adjacent_pixels_are_one_feature(self):
        mask = np.array([0, 1, 1, 0, 0], dtype=bool)
        assert _first_and_second_crossings(mask) == (1, None)

    def test_empty(self):
        assert _first_and_second_crossings(np.zeros(6, dtype=bool)) == (None, None)


class TestWindowSearchConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coarse_resolution": 4},
            {"relative_threshold": 0.0},
            {"edge_fraction": 0.0},
            {"span_in_spacings": 0.0},
            {"fallback_span_fraction": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ExtractionError):
            WindowSearchConfig(**kwargs)


class TestTransitionWindowFinder:
    def test_window_contains_first_crossing(self):
        device = DotArrayDevice.double_dot(
            cross_coupling=(0.25, 0.22), voltage_range=(0.0, 0.05)
        )
        finder = TransitionWindowFinder(device, noise=standard_lab_noise(), seed=3)
        result = finder.find()
        crossing = CSDSimulator(device).first_transition_crossing()
        assert result.contains(*crossing)
        # The window is a small part of the searched range, found with a
        # coarse-scan budget only.
        (x_min, x_max), (y_min, y_max) = result.window
        assert (x_max - x_min) < 0.05
        assert (y_max - y_min) < 0.05
        assert result.n_probes == finder.config.coarse_resolution**2

    def test_spacing_estimate_has_the_right_scale(self):
        device = DotArrayDevice.double_dot(
            cross_coupling=(0.3, 0.2), voltage_range=(0.0, 0.07)
        )
        result = TransitionWindowFinder(device, seed=1).find()
        true_spans = CSDSimulator(device).addition_voltage_spans()
        assert result.estimated_spacing[0] == pytest.approx(true_spans[0], rel=0.6)
        assert result.estimated_spacing[1] == pytest.approx(true_spans[1], rel=0.6)

    def test_no_transitions_in_range_raises(self):
        device = DotArrayDevice.double_dot(voltage_range=(0.0, 1.0))
        finder = TransitionWindowFinder(
            device, x_range=(0.0, 0.004), y_range=(0.0, 0.004), seed=0
        )
        with pytest.raises(ExtractionError):
            finder.find()

    def test_invalid_range_rejected(self):
        device = DotArrayDevice.double_dot()
        with pytest.raises(ExtractionError):
            TransitionWindowFinder(device, x_range=(0.1, 0.1))

    def test_centered_span_respects_bounds(self):
        low, high = TransitionWindowFinder._centered_span(0.01, 0.04, (0.0, 0.1))
        assert low == pytest.approx(0.0)
        assert high == pytest.approx(0.04)
        low, high = TransitionWindowFinder._centered_span(0.09, 0.04, (0.0, 0.1))
        assert high == pytest.approx(0.1)
        assert low == pytest.approx(0.06)


class TestAutoTuningWorkflow:
    def test_end_to_end_recovers_alphas(self):
        device = DotArrayDevice.double_dot(
            cross_coupling=(0.35, 0.30), voltage_range=(0.0, 0.06)
        )
        workflow = AutoTuningWorkflow(
            resolution=100, noise=standard_lab_noise(), seed=6
        )
        outcome = workflow.run(device)
        assert outcome.success
        truth = device.ground_truth_alphas(0, 1, "P1", "P2")
        assert outcome.extraction.alpha_12 == pytest.approx(truth[0], abs=0.08)
        assert outcome.extraction.alpha_21 == pytest.approx(truth[1], abs=0.08)
        # Cost accounting covers both stages.
        assert outcome.total_probes == (
            outcome.window_search.n_probes + outcome.extraction.probe_stats.n_probes
        )
        assert outcome.total_elapsed_s == pytest.approx(
            outcome.window_search.elapsed_s + outcome.extraction.probe_stats.elapsed_s
        )
        # The combined budget is still a fraction of one full 100x100 scan.
        assert outcome.total_probes < 0.3 * 100 * 100
        summary = outcome.summary()
        assert summary["total_probes"] == outcome.total_probes
        assert summary["window_probes"] == outcome.window_search.n_probes

    def test_second_verified_device(self):
        device = DotArrayDevice.double_dot(
            cross_coupling=(0.30, 0.20), voltage_range=(0.0, 0.07)
        )
        workflow = AutoTuningWorkflow(
            resolution=100, noise=standard_lab_noise(), seed=13
        )
        outcome = workflow.run(device)
        assert outcome.success
        truth = device.ground_truth_alphas(0, 1, "P1", "P2")
        assert outcome.extraction.alpha_12 == pytest.approx(truth[0], abs=0.08)
        assert outcome.extraction.alpha_21 == pytest.approx(truth[1], abs=0.08)

    def test_invalid_resolution(self):
        with pytest.raises(ExtractionError):
            AutoTuningWorkflow(resolution=4)
