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
from repro.instrument import SessionFactory
from repro.physics import CSDSimulator, DotArrayDevice, standard_lab_noise
from repro.pipeline import AutoTuningWorkflow
from repro.seeding import spawn_seeds


def _coarse_meter(device, seed, noise=None, window=None):
    """A 24x24 meter over ``window``, by default the P1/P2 safe ranges."""
    if window is None:
        window = tuple(
            (spec.min_voltage, spec.max_voltage) for spec in device.gate_specs[:2]
        )
    factory = SessionFactory(device, resolution=24, noise=noise)
    return factory.make(window=window, seed=seed).meter


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
        meter = _coarse_meter(device, seed=3, noise=standard_lab_noise())
        result = TransitionWindowFinder(meter).find()
        crossing = CSDSimulator(device).first_transition_crossing()
        assert result.contains(*crossing)
        # The window is a small part of the searched range, found with a
        # coarse-scan budget only.
        (x_min, x_max), (y_min, y_max) = result.window
        assert (x_max - x_min) < 0.05
        assert (y_max - y_min) < 0.05
        assert result.n_probes == 24 * 24 == meter.n_probes

    def test_spacing_estimate_has_the_right_scale(self):
        device = DotArrayDevice.double_dot(
            cross_coupling=(0.3, 0.2), voltage_range=(0.0, 0.07)
        )
        result = TransitionWindowFinder(_coarse_meter(device, seed=1)).find()
        true_spans = CSDSimulator(device).addition_voltage_spans()
        assert result.estimated_spacing[0] == pytest.approx(true_spans[0], rel=0.6)
        assert result.estimated_spacing[1] == pytest.approx(true_spans[1], rel=0.6)

    def test_no_transitions_in_range_raises(self):
        device = DotArrayDevice.double_dot(voltage_range=(0.0, 1.0))
        meter = _coarse_meter(device, seed=0, window=((0.0, 0.004), (0.0, 0.004)))
        with pytest.raises(ExtractionError):
            TransitionWindowFinder(meter).find()

    def test_invalid_range_rejected(self):
        device = DotArrayDevice.double_dot()
        meter = _coarse_meter(device, seed=0, window=((0.1, 0.1), (0.0, 0.1)))
        with pytest.raises(ExtractionError, match="positive extent"):
            TransitionWindowFinder(meter)
        assert meter.n_probes == 0
        workflow = AutoTuningWorkflow(SessionFactory(device, resolution=32), seed=0)
        with pytest.raises(ExtractionError, match="positive extent"):
            workflow.run(x_range=(0.1, 0.1))

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
        factory = SessionFactory(device, resolution=100, noise=standard_lab_noise())
        outcome = AutoTuningWorkflow(factory, seed=6).run()
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
        factory = SessionFactory(device, resolution=100, noise=standard_lab_noise())
        outcome = AutoTuningWorkflow(factory, seed=13).run()
        assert outcome.success
        truth = device.ground_truth_alphas(0, 1, "P1", "P2")
        assert outcome.extraction.alpha_12 == pytest.approx(truth[0], abs=0.08)
        assert outcome.extraction.alpha_21 == pytest.approx(truth[1], abs=0.08)

    @pytest.mark.parametrize(
        "ranges",
        [None, ((0.005, 0.055), (0.0, 0.05))],
        ids=["gate-safe-ranges", "given-ranges"],
    )
    def test_coarse_scan_is_the_factory_lab_at_the_coarse_resolution(self, ranges):
        device = DotArrayDevice.double_dot(
            cross_coupling=(0.35, 0.30), voltage_range=(0.0, 0.06)
        )
        config = WindowSearchConfig(coarse_resolution=20)
        factory = SessionFactory(device, resolution=48, noise=standard_lab_noise())
        workflow = AutoTuningWorkflow(factory, window_config=config, seed=6)
        if ranges is None:
            searched = workflow.run().window_search
            ranges = ((0.0, 0.06), (0.0, 0.06))
        else:
            searched = workflow.run(x_range=ranges[0], y_range=ranges[1]).window_search
        # The same search opened by hand: the factory's lab at the window
        # config's resolution, on the run's first child seed, over the
        # gates' safe ranges unless the caller gives others.
        window_seed, _ = spawn_seeds(6, 2)
        coarse = SessionFactory(device, resolution=20, noise=standard_lab_noise())
        meter = coarse.make(window=ranges, seed=window_seed).meter
        expected = TransitionWindowFinder(meter, config).find()
        assert searched.window == expected.window
        assert searched.corner_voltage == expected.corner_voltage
        assert searched.estimated_spacing == expected.estimated_spacing
        assert searched.n_probes == expected.n_probes == 20 * 20
        assert searched.elapsed_s == expected.elapsed_s
        np.testing.assert_array_equal(searched.coarse_image, expected.coarse_image)

    @pytest.mark.parametrize("resolution", [4, 15, (15, 64), (64, 8)])
    def test_invalid_resolution(self, resolution):
        device = DotArrayDevice.double_dot()
        with pytest.raises(ExtractionError, match="at least 16"):
            AutoTuningWorkflow(SessionFactory(device, resolution=resolution))
