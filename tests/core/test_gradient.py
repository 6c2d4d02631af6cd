"""Tests for the feature gradient, anchor masks, and Gaussian window."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FeatureGradient, MaskResponse, gaussian_window, oriented_mask
from repro.core.config import PAPER_MASK_X, PAPER_MASK_Y
from repro.exceptions import ConfigurationError, InstrumentFault
from repro.faults import FaultyBackend, TransientReadFault
from repro.instrument import (
    ChargeSensorMeter,
    DatasetBackend,
    DeviceBackend,
    ProbeRetryPolicy,
)
from repro.physics import ChargeStabilityDiagram, DeviceDrift, standard_lab_noise


def make_step_csd(step_col: int = 10, size: int = 20, high: float = 1.0, low: float = 0.2):
    """A synthetic diagram with a vertical current step at ``step_col``."""
    data = np.full((size, size), high)
    data[:, step_col:] = low
    return ChargeStabilityDiagram(
        data=data,
        x_voltages=np.linspace(0.0, 1.0, size),
        y_voltages=np.linspace(0.0, 1.0, size),
    )


def make_horizontal_step_csd(step_row: int = 10, size: int = 20):
    data = np.full((size, size), 1.0)
    data[step_row:, :] = 0.2
    return ChargeStabilityDiagram(
        data=data,
        x_voltages=np.linspace(0.0, 1.0, size),
        y_voltages=np.linspace(0.0, 1.0, size),
    )


def meter_for(csd) -> ChargeSensorMeter:
    return ChargeSensorMeter(DatasetBackend(csd))


class TestFeatureGradient:
    def test_peaks_just_before_vertical_step(self):
        csd = make_step_csd(step_col=10)
        gradient = FeatureGradient(meter_for(csd))
        values = [gradient.value(5, col) for col in range(3, 17)]
        best_col = 3 + int(np.argmax(values))
        assert best_col == 9  # last bright pixel before the step

    def test_peaks_just_before_horizontal_step(self):
        csd = make_horizontal_step_csd(step_row=12)
        gradient = FeatureGradient(meter_for(csd))
        values = [gradient.value(row, 5) for row in range(5, 18)]
        best_row = 5 + int(np.argmax(values))
        assert best_row == 11

    def test_zero_on_flat_region(self):
        csd = make_step_csd(step_col=15)
        gradient = FeatureGradient(meter_for(csd))
        assert gradient.value(5, 2) == pytest.approx(0.0)

    def test_edge_pixels_clamped(self):
        csd = make_step_csd()
        gradient = FeatureGradient(meter_for(csd))
        # Should not raise at the top-right corner.
        value = gradient.value(csd.shape[0] - 1, csd.shape[1] - 1)
        assert np.isfinite(value)

    def test_probes_are_logged(self):
        csd = make_step_csd()
        meter = meter_for(csd)
        FeatureGradient(meter).value(5, 5)
        assert meter.n_probes == 3  # centre, right, upper-right

    def test_delta_validation(self):
        csd = make_step_csd()
        with pytest.raises(ConfigurationError):
            FeatureGradient(meter_for(csd), delta_pixels=0)

    def test_larger_delta_spans_wider(self):
        csd = make_step_csd(step_col=10)
        gradient = FeatureGradient(meter_for(csd), delta_pixels=3)
        # With delta 3 the feature already sees the step from 3 pixels away.
        assert gradient.value(5, 8) > 0


class TestOrientedMask:
    def test_flips_vertically(self):
        mask = oriented_mask(PAPER_MASK_X)
        assert np.allclose(mask[0], PAPER_MASK_X[2])
        assert np.allclose(mask[-1], PAPER_MASK_X[0])

    def test_shape_preserved(self):
        assert oriented_mask(PAPER_MASK_Y).shape == (5, 3)


class TestMaskResponse:
    def test_mask_x_sweep_peaks_at_vertical_edge(self):
        csd = make_step_csd(step_col=12, size=24)
        meter = meter_for(csd)
        response = MaskResponse(meter, PAPER_MASK_X)
        responses = response.sweep_along_columns(start_col=2, end_col=17, center_row=8)
        best_start = 2 + int(np.argmax(responses))
        # Mask centre = start + 2 should land near the bright side of the edge.
        assert abs((best_start + 2) - 11) <= 1

    def test_mask_y_sweep_peaks_at_horizontal_edge(self):
        csd = make_horizontal_step_csd(step_row=13)
        meter = meter_for(csd)
        response = MaskResponse(meter, PAPER_MASK_Y)
        responses = response.sweep_along_rows(start_row=2, end_row=14, center_col=8)
        best_start = 2 + int(np.argmax(responses))
        assert abs((best_start + 2) - 12) <= 1

    def test_response_probes_mask_footprint(self):
        csd = make_step_csd()
        meter = meter_for(csd)
        MaskResponse(meter, PAPER_MASK_X).response(5, 5)
        assert meter.n_probes == 15  # 3x5 patch


def _drifting_backend(device):
    axis = np.linspace(0.0, 0.04, 40)
    return DeviceBackend(
        device,
        axis,
        axis,
        noise=standard_lab_noise(telegraph_amplitude_na=0.03),
        seed=11,
        drift=DeviceDrift(operating_point_mv_per_hour=40.0, charge_jumps_per_hour=900.0),
        time_dependent_noise=True,
    )


def _scalar_mask_sweep(meter, mask, row0s, col0s):
    """Reference: every kernel position probed pixel by pixel."""
    kernel = oriented_mask(mask)
    grid_rows, grid_cols = meter.shape
    responses = []
    for row0, col0 in zip(row0s, col0s):
        patch = np.zeros(kernel.shape)
        for dr in range(kernel.shape[0]):
            for dc in range(kernel.shape[1]):
                row = min(max(row0 + dr, 0), grid_rows - 1)
                col = min(max(col0 + dc, 0), grid_cols - 1)
                patch[dr, dc] = meter.get_current(row, col)
        responses.append(float(np.sum(kernel * patch)))
    return np.array(responses)


def _both_sweeps(meter, batched):
    """Mask_x along row 0 then Mask_y along column 1, both crossing the grid
    edges, so the kernels clamp and the second sweep hits the first's cache."""
    rows, cols = meter.shape
    if batched:
        along_cols = MaskResponse(meter, PAPER_MASK_X).sweep_along_columns(-2, cols - 3, 0)
        along_rows = MaskResponse(meter, PAPER_MASK_Y).sweep_along_rows(-1, rows - 2, 1)
    else:
        col0s = range(-2, cols - 2)
        along_cols = _scalar_mask_sweep(meter, PAPER_MASK_X, [-1] * len(col0s), col0s)
        row0s = range(-1, rows - 1)
        along_rows = _scalar_mask_sweep(meter, PAPER_MASK_Y, row0s, [0] * len(row0s))
    return along_cols, along_rows


class TestMaskSweepMatchesScalarReference:
    @pytest.mark.parametrize("case", ["dataset", "drifting", "faulty"])
    def test_sweeps(self, case, clean_csd, double_dot_device):
        def make_meter():
            if case == "dataset":
                return ChargeSensorMeter(DatasetBackend(clean_csd))
            if case == "drifting":
                return ChargeSensorMeter(_drifting_backend(double_dot_device))
            backend = FaultyBackend(
                DatasetBackend(clean_csd), (TransientReadFault(rate=0.2),), seed=5
            )
            policy = ProbeRetryPolicy(max_attempts=2, breaker_failures=0)
            return ChargeSensorMeter(backend, retry=policy)

        outcomes = []
        for batched in (True, False):
            meter = make_meter()
            try:
                result = _both_sweeps(meter, batched)
            except InstrumentFault as exc:
                result = type(exc)
            outcomes.append((meter, result))
        (batch_meter, batch_result), (scalar_meter, scalar_result) = outcomes
        if case == "faulty":
            # The run stops mid-sweep, after some probes were committed.
            assert isinstance(batch_result, type)
            assert scalar_meter.n_probes > 0
            assert batch_meter.n_probes_exhausted == scalar_meter.n_probes_exhausted == 1
            assert batch_meter.n_probe_retries == scalar_meter.n_probe_retries > 0
            assert batch_meter.fault_delay_s == scalar_meter.fault_delay_s
        if isinstance(batch_result, type):
            assert batch_result is scalar_result
        else:
            for batch, scalar in zip(batch_result, scalar_result):
                assert np.array_equal(batch, scalar)
        assert batch_meter.elapsed_s == scalar_meter.elapsed_s
        assert batch_meter.n_probes == scalar_meter.n_probes
        assert batch_meter.n_cache_hits == scalar_meter.n_cache_hits > 0
        assert batch_meter.n_requests == scalar_meter.n_requests
        for batch, scalar in zip(batch_meter.probed_pixels(), scalar_meter.probed_pixels()):
            assert np.array_equal(batch, scalar)
        assert np.array_equal(
            batch_meter.measured_image(), scalar_meter.measured_image(), equal_nan=True
        )


class TestGaussianWindow:
    def test_length_and_peak_position(self):
        window = gaussian_window(21, center_fraction=0.5, sigma_fraction=0.2)
        assert window.shape == (21,)
        assert int(np.argmax(window)) == 10
        assert window.max() == pytest.approx(1.0)

    def test_single_sample(self):
        assert np.allclose(gaussian_window(1), [1.0])

    def test_off_center(self):
        window = gaussian_window(11, center_fraction=0.0)
        assert int(np.argmax(window)) == 0

    def test_invalid_length(self):
        with pytest.raises(ConfigurationError):
            gaussian_window(0)
