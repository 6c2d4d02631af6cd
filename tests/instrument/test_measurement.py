"""Tests for the measurement backends and the charge-sensor meter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MeasurementError, ProbeBudgetExceededError
from repro.instrument import (
    ChargeSensorMeter,
    DatasetBackend,
    DeviceBackend,
    TimingModel,
    VirtualClock,
)
from repro.physics import WhiteNoise


class TestDatasetBackend:
    def test_replays_pixels(self, clean_csd):
        backend = DatasetBackend(clean_csd)
        assert backend.shape == clean_csd.shape
        assert backend.currents([5], [7])[0] == pytest.approx(clean_csd.data[5, 7])

    def test_off_grid_rejected(self, clean_csd):
        backend = DatasetBackend(clean_csd)
        with pytest.raises(MeasurementError):
            backend.currents([1000], [0])

    def test_pixel_at_voltage(self, clean_csd):
        backend = DatasetBackend(clean_csd)
        vx, vy = backend.voltage_at(3, 9)
        assert backend.pixel_at(vx, vy) == (3, 9)


class TestDeviceBackend:
    def test_matches_device_physics_without_noise(self, double_dot_device):
        xs = np.linspace(0.0, 0.03, 20)
        ys = np.linspace(0.0, 0.03, 20)
        backend = DeviceBackend(double_dot_device, xs, ys)
        vg = np.array([xs[4], ys[11]])
        assert backend.currents([11], [4])[0] == pytest.approx(
            double_dot_device.sensor_current(vg)
        )

    def test_noise_is_reproducible_per_seed(self, double_dot_device):
        xs = np.linspace(0.0, 0.03, 10)
        ys = np.linspace(0.0, 0.03, 10)
        a = DeviceBackend(double_dot_device, xs, ys, noise=WhiteNoise(0.1), seed=5)
        b = DeviceBackend(double_dot_device, xs, ys, noise=WhiteNoise(0.1), seed=5)
        assert a.currents([3], [3])[0] == pytest.approx(b.currents([3], [3])[0])

    def test_value_cached_between_calls(self, double_dot_device):
        xs = np.linspace(0.0, 0.03, 10)
        ys = np.linspace(0.0, 0.03, 10)
        backend = DeviceBackend(double_dot_device, xs, ys, noise=WhiteNoise(0.1), seed=1)
        assert backend.currents([2], [2])[0] == backend.currents([2], [2])[0]

    def test_grid_validation(self, double_dot_device):
        with pytest.raises(MeasurementError):
            DeviceBackend(double_dot_device, np.array([0.0]), np.linspace(0, 1, 5))


class TestChargeSensorMeter:
    def test_probe_charges_dwell_time(self, clean_csd):
        meter = ChargeSensorMeter(
            DatasetBackend(clean_csd), clock=VirtualClock(TimingModel(dwell_time_s=0.05))
        )
        meter.get_current(0, 0)
        meter.get_current(0, 1)
        assert meter.elapsed_s == pytest.approx(0.10)
        assert meter.n_probes == 2
        assert meter.n_requests == 2

    def test_cache_hit_costs_nothing(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        first = meter.get_current(3, 3)
        second = meter.get_current(3, 3)
        assert first == second
        assert meter.n_probes == 1
        assert meter.n_requests == 2
        assert meter.elapsed_s == pytest.approx(0.05)
        assert meter.log.records[-1].cached is True

    def test_cache_disabled_charges_every_request(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd), cache=False)
        meter.get_current(3, 3)
        meter.get_current(3, 3)
        assert meter.elapsed_s == pytest.approx(0.10)

    def test_probe_budget_enforced(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd), max_probes=3)
        for i in range(3):
            meter.get_current(0, i)
        with pytest.raises(ProbeBudgetExceededError):
            meter.get_current(0, 3)
        # Cached pixels are still allowed after the budget is exhausted.
        assert meter.get_current(0, 0) == pytest.approx(clean_csd.data[0, 0])

    def test_get_current_at_voltage(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        vx, vy = clean_csd.voltage_at(8, 12)
        assert meter.get_current_at_voltage(vx, vy) == pytest.approx(clean_csd.data[8, 12])

    def test_acquire_full_grid(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        image = meter.acquire_full_grid()
        assert np.allclose(image, clean_csd.data)
        assert meter.n_probes == clean_csd.n_pixels
        assert meter.probe_fraction == pytest.approx(1.0)
        assert meter.elapsed_s == pytest.approx(0.05 * clean_csd.n_pixels)

    def test_measured_image_marks_unprobed_as_nan(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        meter.get_current(1, 1)
        image = meter.measured_image()
        assert image[1, 1] == pytest.approx(clean_csd.data[1, 1])
        assert np.isnan(image[0, 0])

    def test_reset_clears_everything(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        meter.get_current(0, 0)
        meter.reset()
        assert meter.n_probes == 0
        assert meter.elapsed_s == 0.0
        assert len(meter.log) == 0


class TestProbeLog:
    def test_unique_pixels_order_and_mask(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        meter.get_current(2, 2)
        meter.get_current(4, 4)
        meter.get_current(2, 2)
        log = meter.log
        assert log.unique_pixels() == [(2, 2), (4, 4)]
        mask = log.probe_mask(clean_csd.shape)
        assert mask.sum() == 2
        assert mask[2, 2] and mask[4, 4]

    def test_as_arrays_columns(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        meter.get_current(0, 0)
        meter.get_current(0, 0)
        arrays = meter.log.as_arrays()
        assert arrays["row"].shape == (2,)
        assert arrays["cached"].tolist() == [False, True]

    def test_empty_log_arrays(self):
        from repro.instrument import ProbeLog

        arrays = ProbeLog().as_arrays()
        assert arrays["row"].size == 0
        assert arrays["cached"].size == 0
