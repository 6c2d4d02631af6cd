"""End-to-end tests of the Canny + Hough baseline extractor."""

from __future__ import annotations

import pytest

from repro.baseline import BaselineConfig
from repro.exceptions import BaselineError
from repro.instrument import ExperimentSession
from repro.physics import CSDSimulator, WhiteNoise
from repro.pipeline import HoughBaselineExtractor


class TestOnCleanData:
    def test_recovers_ground_truth_alphas(self, clean_csd, clean_session):
        result = HoughBaselineExtractor().extract(clean_session)
        assert result.success
        geometry = clean_csd.geometry
        assert result.matrix.alpha_12 == pytest.approx(geometry.alpha_12, abs=0.08)
        assert result.matrix.alpha_21 == pytest.approx(geometry.alpha_21, abs=0.08)

    def test_probes_every_pixel(self, clean_csd, clean_session):
        result = HoughBaselineExtractor().extract(clean_session)
        assert result.probe_stats.n_probes == clean_csd.n_pixels
        assert result.probe_stats.probe_fraction == pytest.approx(1.0)
        assert result.probe_stats.elapsed_s == pytest.approx(0.05 * clean_csd.n_pixels)

    def test_method_name_and_metadata(self, clean_session):
        result = HoughBaselineExtractor().extract(clean_session)
        assert result.method == "hough-baseline"
        assert result.metadata["n_edge_pixels"] > 0
        assert result.metadata["n_hough_lines"] >= 2

    def test_gate_names_propagate(self, clean_session):
        result = HoughBaselineExtractor().extract(clean_session)
        assert result.matrix.gate_x == "P1"
        assert result.matrix.gate_y == "P2"


class TestOnNoisyData:
    def test_succeeds_with_lab_noise(self, noisy_csd, noisy_session):
        result = HoughBaselineExtractor().extract(noisy_session)
        assert result.success
        geometry = noisy_csd.geometry
        assert result.matrix.alpha_12 == pytest.approx(geometry.alpha_12, abs=0.10)

    def test_fails_gracefully_on_extreme_noise(self, double_dot_device):
        csd = CSDSimulator(double_dot_device).simulate(48, noise=WhiteNoise(2.0), seed=4)
        session = ExperimentSession.from_csd(csd)
        result = HoughBaselineExtractor().extract(session)
        assert result.probe_stats.n_probes == csd.n_pixels
        if not result.success:
            assert result.failure_reason != ""

    def test_flat_image_reports_failure(self, double_dot_device):
        # A window far inside one charge region has no transition lines at all.
        simulator = CSDSimulator(double_dot_device)
        csd = simulator.simulate(
            48, window=((0.0, 0.004), (0.0, 0.004)), seed=1
        )
        session = ExperimentSession.from_csd(csd)
        result = HoughBaselineExtractor().extract(session)
        assert not result.success
        assert result.failure_reason != ""


class TestConfig:
    def test_invalid_theta_split(self):
        with pytest.raises(BaselineError):
            BaselineConfig(steep_theta_max_deg=95.0)

    def test_invalid_min_edge_pixels(self):
        with pytest.raises(BaselineError):
            BaselineConfig(min_edge_pixels=0)

    def test_stricter_alpha_bound_can_reject(self, clean_session):
        config = BaselineConfig(max_alpha=1e-6)
        result = HoughBaselineExtractor(config).extract(clean_session)
        assert not result.success
