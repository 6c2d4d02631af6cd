"""Tests for the measurement-noise models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.physics import (
    CompositeNoise,
    DriftNoise,
    NoNoise,
    PinkNoise,
    TelegraphNoise,
    WhiteNoise,
    standard_lab_noise,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


SHAPE = (64, 48)


class TestNoNoise:
    def test_zero_field(self, rng):
        field = NoNoise().sample_grid(SHAPE, rng)
        assert field.shape == SHAPE
        assert np.all(field == 0)


class TestWhiteNoise:
    def test_shape_and_amplitude(self, rng):
        field = WhiteNoise(sigma_na=0.05).sample_grid(SHAPE, rng)
        assert field.shape == SHAPE
        assert np.std(field) == pytest.approx(0.05, rel=0.15)

    def test_zero_sigma(self, rng):
        field = WhiteNoise(sigma_na=0.0).sample_grid(SHAPE, rng)
        assert np.all(field == 0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            WhiteNoise(sigma_na=-0.1)

    def test_deterministic_given_seed(self):
        a = WhiteNoise(0.02).sample_grid(SHAPE, np.random.default_rng(3))
        b = WhiteNoise(0.02).sample_grid(SHAPE, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestPinkNoise:
    def test_rms_matches_request(self, rng):
        field = PinkNoise(sigma_na=0.04).sample_grid(SHAPE, rng)
        assert np.sqrt(np.mean(field**2)) == pytest.approx(0.04, rel=1e-6)

    def test_spatial_correlation_exceeds_white(self, rng):
        # 1/f noise is spatially correlated: neighbouring pixels of the pink
        # field are strongly correlated while white-noise neighbours are not.
        pink = PinkNoise(sigma_na=0.05).sample_grid((128, 128), np.random.default_rng(1))
        white = WhiteNoise(sigma_na=0.05).sample_grid((128, 128), np.random.default_rng(1))

        def lag1_correlation(field: np.ndarray) -> float:
            return float(np.corrcoef(field[:, :-1].ravel(), field[:, 1:].ravel())[0, 1])

        assert lag1_correlation(pink) > 0.15
        assert abs(lag1_correlation(white)) < 0.1

    def test_zero_sigma(self, rng):
        assert np.all(PinkNoise(sigma_na=0.0).sample_grid(SHAPE, rng) == 0)

    def test_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            PinkNoise(exponent=0.0)


def _argsort_pink_field(noise, shape, rng):
    """PinkNoise.sample_grid as it was written with a full sort of the radii."""
    rows, cols = shape
    white = rng.normal(0.0, 1.0, size=shape)
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.fftfreq(cols)[None, :]
    radius = np.sqrt(fy * fy + fx * fx)
    radius[0, 0] = radius.flat[np.argsort(radius.flat)[1]]
    spectrum = np.fft.fft2(white) / np.power(radius, noise.exponent / 2.0)
    spectrum[0, 0] = 0.0
    field = np.real(np.fft.ifft2(spectrum))
    return field * (noise.sigma_na / float(np.sqrt(np.mean(field**2))))


class TestPinkFilterFloor:
    @pytest.mark.parametrize("shape", [(1, 2), (2, 2), (40, 63), (63, 63)])
    @pytest.mark.parametrize("exponent", [1.0, 2.0])
    def test_field_bit_identical_to_full_sort(self, shape, exponent):
        noise = PinkNoise(sigma_na=0.05, exponent=exponent)
        field = noise.sample_grid(shape, np.random.default_rng(11))
        expected = _argsort_pink_field(noise, shape, np.random.default_rng(11))
        assert np.array_equal(field, expected)


class TestTelegraphNoise:
    def test_two_level_structure(self, rng):
        field = TelegraphNoise(amplitude_na=0.1, mean_dwell_pixels=50).sample_grid(SHAPE, rng)
        unique = np.unique(np.round(field, 9))
        assert len(unique) == 2
        assert np.ptp(unique) == pytest.approx(0.1, rel=1e-9)

    def test_zero_mean(self, rng):
        field = TelegraphNoise(amplitude_na=0.2, mean_dwell_pixels=10).sample_grid(SHAPE, rng)
        assert abs(np.mean(field)) < 1e-12

    def test_zero_amplitude(self, rng):
        assert np.all(TelegraphNoise(amplitude_na=0.0).sample_grid(SHAPE, rng) == 0)

    def test_invalid_dwell(self):
        with pytest.raises(ConfigurationError):
            TelegraphNoise(mean_dwell_pixels=0.0)


class TestDriftNoise:
    def test_ramp_along_rows(self, rng):
        field = DriftNoise(ramp_na=0.1, sine_amplitude_na=0.0).sample_grid(SHAPE, rng)
        # Bottom row sits half a ramp below the top row.
        assert field[-1, 0] - field[0, 0] == pytest.approx(0.1, rel=1e-9)
        # Constant within a row.
        assert np.allclose(field[10, :], field[10, 0])

    def test_sine_component(self, rng):
        field = DriftNoise(ramp_na=0.0, sine_amplitude_na=0.05).sample_grid(SHAPE, rng)
        assert np.max(np.abs(field)) <= 0.05 + 1e-12
        assert np.max(np.abs(field)) > 0.0

    def test_invalid_periods(self):
        with pytest.raises(ConfigurationError):
            DriftNoise(sine_periods=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_ramp_rejected(self, bad):
        # Regression: ramp_na/sine_amplitude_na used to accept NaN/inf while
        # the sibling models validated their amplitudes in __post_init__.
        with pytest.raises(ConfigurationError):
            DriftNoise(ramp_na=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_sine_amplitude_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            DriftNoise(sine_amplitude_na=bad)

    def test_negative_ramp_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftNoise(ramp_na=-0.01)

    def test_negative_sine_amplitude_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftNoise(sine_amplitude_na=-0.01)

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("nan"), float("inf")])
    def test_invalid_timescale_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            DriftNoise(timescale_s=bad)

    def test_non_finite_periods_rejected(self):
        with pytest.raises(ConfigurationError):
            DriftNoise(sine_periods=float("nan"))


class TestSiblingFinitenessValidation:
    """The finiteness gap is closed across the whole family, not just drift."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_white_sigma(self, bad):
        with pytest.raises(ConfigurationError):
            WhiteNoise(sigma_na=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_pink_sigma_and_exponent(self, bad):
        with pytest.raises(ConfigurationError):
            PinkNoise(sigma_na=bad)
        with pytest.raises(ConfigurationError):
            PinkNoise(exponent=bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_telegraph_amplitude_and_dwell(self, bad):
        with pytest.raises(ConfigurationError):
            TelegraphNoise(amplitude_na=bad)
        with pytest.raises(ConfigurationError):
            TelegraphNoise(mean_dwell_pixels=bad)


class TestCompositeNoise:
    def test_sum_of_components(self):
        composite = CompositeNoise([WhiteNoise(0.0), DriftNoise(ramp_na=0.1, sine_amplitude_na=0.0)])
        field = composite.sample_grid(SHAPE, np.random.default_rng(0))
        pure_drift = DriftNoise(ramp_na=0.1, sine_amplitude_na=0.0).sample_grid(
            SHAPE, np.random.default_rng(0)
        )
        assert np.allclose(field, pure_drift)

    def test_empty_components_rejected(self):
        with pytest.raises(ConfigurationError):
            CompositeNoise([])

    def test_describe_mentions_components(self):
        composite = standard_lab_noise(telegraph_amplitude_na=0.05)
        description = composite.describe()
        assert "white" in description
        assert "pink" in description
        assert "telegraph" in description

    def test_standard_lab_noise_shape(self, rng):
        field = standard_lab_noise().sample_grid(SHAPE, rng)
        assert field.shape == SHAPE
        assert np.isfinite(field).all()
