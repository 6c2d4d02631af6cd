"""Tests for the extraction configuration objects."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import AnchorConfig, ExtractionConfig, FitConfig, SweepConfig
from repro.core.config import PAPER_MASK_X, PAPER_MASK_Y
from repro.exceptions import ConfigurationError


class TestPaperMasks:
    def test_mask_shapes_match_paper(self):
        assert np.asarray(PAPER_MASK_X).shape == (3, 5)
        assert np.asarray(PAPER_MASK_Y).shape == (5, 3)

    def test_mask_x_values_match_paper(self):
        assert PAPER_MASK_X[0] == (1, 1, -3, -4, -4)
        assert PAPER_MASK_X[2] == (4, 4, 3, -1, -1)

    def test_mask_y_values_match_paper(self):
        assert PAPER_MASK_Y[0] == (-1, -2, -4)
        assert PAPER_MASK_Y[4] == (4, 2, 1)


class TestAnchorConfig:
    def test_defaults_match_paper(self):
        config = AnchorConfig()
        assert config.n_diagonal_points == 10
        assert config.start_margin_fraction == pytest.approx(0.10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_diagonal_points": 1},
            {"start_margin_fraction": 0.6},
            {"gaussian_sigma_fraction": 0.0},
            {"gaussian_center_fraction": 1.5},
            {"mask_x": ((),)},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AnchorConfig(**kwargs)

    def test_mask_arrays(self):
        config = AnchorConfig()
        assert config.mask_x_array().shape == (3, 5)
        assert config.mask_y_array().shape == (5, 3)


class TestSweepConfig:
    def test_defaults(self):
        config = SweepConfig()
        assert config.delta_pixels == 1

    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            SweepConfig(delta_pixels=0)


class TestFitConfig:
    def test_defaults(self):
        config = FitConfig()
        assert config.min_points >= 3
        assert config.min_steep_slope_magnitude == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_points": 2},
            {"min_steep_slope_magnitude": 0.0},
            {"max_shallow_slope_magnitude": -1.0},
            {"max_alpha": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FitConfig(**kwargs)


class TestExtractionConfig:
    def test_paper_defaults(self):
        config = ExtractionConfig.paper_defaults()
        assert isinstance(config.anchors, AnchorConfig)
        assert isinstance(config.sweeps, SweepConfig)
        assert isinstance(config.fit, FitConfig)

    def test_replace_single_section(self):
        config = ExtractionConfig.paper_defaults()
        updated = config.replace(sweeps=SweepConfig(delta_pixels=2))
        assert updated.sweeps.delta_pixels == 2
        assert updated.anchors is config.anchors
        # Original untouched (frozen dataclasses).
        assert config.sweeps.delta_pixels == 1

    def test_replace_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            ExtractionConfig.paper_defaults().replace(bogus=1)
