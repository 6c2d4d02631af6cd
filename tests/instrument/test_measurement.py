"""Tests for the measurement backends and the charge-sensor meter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import MeasurementError
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
        assert backend.currents([5 * 63 + 7])[0] == pytest.approx(clean_csd.data[5, 7])

    def test_off_grid_rejected(self, clean_csd):
        backend = DatasetBackend(clean_csd)
        with pytest.raises(MeasurementError):
            backend.currents([1000 * 63])


class TestDeviceBackend:
    def test_matches_device_physics_without_noise(self, double_dot_device):
        xs = np.linspace(0.0, 0.03, 20)
        ys = np.linspace(0.0, 0.03, 20)
        backend = DeviceBackend(double_dot_device, xs, ys)
        vg = np.array([xs[4], ys[11]])
        assert backend.currents([11 * 20 + 4])[0] == pytest.approx(
            double_dot_device.sensor_current(vg)
        )

    def test_noise_is_reproducible_per_seed(self, double_dot_device):
        xs = np.linspace(0.0, 0.03, 10)
        ys = np.linspace(0.0, 0.03, 10)
        a = DeviceBackend(double_dot_device, xs, ys, noise=WhiteNoise(0.1), seed=5)
        b = DeviceBackend(double_dot_device, xs, ys, noise=WhiteNoise(0.1), seed=5)
        assert a.currents([33])[0] == pytest.approx(b.currents([33])[0])

    def test_value_cached_between_calls(self, double_dot_device):
        xs = np.linspace(0.0, 0.03, 10)
        ys = np.linspace(0.0, 0.03, 10)
        backend = DeviceBackend(double_dot_device, xs, ys, noise=WhiteNoise(0.1), seed=1)
        assert backend.currents([22])[0] == backend.currents([22])[0]

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
        assert meter.n_cache_hits == 1

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
        meter.get_current(0, 0)
        meter.reset()
        assert meter.n_probes == meter.n_requests == meter.n_cache_hits == 0
        assert meter.elapsed_s == 0.0
        assert not meter.probe_mask().any()
        rows, cols = meter.probed_pixels()
        assert rows.shape == cols.shape == (0,)
        assert rows.dtype == cols.dtype == np.int64


class TestMeasuredPixels:
    def test_probed_pixels_order_and_mask(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        meter.get_current(4, 4)
        meter.get_current(2, 2)
        meter.get_current(4, 4)
        rows, cols = meter.probed_pixels()
        assert (rows.tolist(), cols.tolist()) == ([4, 2], [4, 2])
        mask = meter.probe_mask()
        assert mask.shape == clean_csd.shape
        assert mask.sum() == 2
        assert mask[2, 2] and mask[4, 4]

    def test_reads_are_copies_of_the_cache(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        meter.get_currents([1, 2], [1, 2])
        meter.probe_mask()[...] = True
        meter.measured_image()[...] = 0.0
        meter.probed_pixels()[0][:] = 7
        assert meter.probe_mask().sum() == 2
        assert meter.measured_image()[1, 1] == clean_csd.data[1, 1]
        assert meter.probed_pixels()[0].tolist() == [1, 2]
        # The cache still holds (1, 1): its next request is a hit.
        meter.get_current(1, 1)
        assert (meter.n_probes, meter.n_cache_hits) == (2, 1)
