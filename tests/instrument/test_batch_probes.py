"""Batch-split invariance of the probe path.

A batch (`MeasurementBackend.currents`, `ChargeSensorMeter.get_currents`,
`FeatureGradient.values`, `acquire_full_grid`) must be request-by-request
indistinguishable from the same requests made one pixel at a time: same
values (bit-identical), same probe counts, same cache hits, same clock
charges, same log contents, and the same budget-exhaustion point.
`get_current` is a one-pixel `get_currents`; `test_reference_meter.py`
checks the meter against an independent per-pixel implementation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gradient import FeatureGradient
from repro.exceptions import MeasurementError, ProbeBudgetExceededError
from repro.instrument import (
    ChargeSensorMeter,
    DatasetBackend,
    DeviceBackend,
    TimingModel,
    VirtualClock,
)
from repro.physics import DeviceDrift, WhiteNoise, standard_lab_noise


def _device_backend(device, noise=True):
    xs = np.linspace(0.0, 0.04, 40)
    ys = np.linspace(0.0, 0.04, 40)
    return DeviceBackend(
        device,
        xs,
        ys,
        noise=WhiteNoise(0.05) if noise else None,
        seed=7,
    )


def _meter_pair(backend_factory, **meter_kwargs):
    """Two meters over identically configured backends."""
    return (
        ChargeSensorMeter(backend_factory(), **meter_kwargs),
        ChargeSensorMeter(backend_factory(), **meter_kwargs),
    )


def _request_pattern(rng, shape, n):
    """Random request pattern with plenty of duplicates."""
    rows = rng.integers(0, shape[0], size=n)
    cols = rng.integers(0, shape[1], size=n)
    # Repeat a slice so the batch contains guaranteed duplicates.
    rows[n // 2 : n // 2 + n // 4] = rows[: n // 4]
    cols[n // 2 : n // 2 + n // 4] = cols[: n // 4]
    return rows, cols


def _assert_meters_identical(batch_meter, scalar_meter):
    assert batch_meter.n_probes == scalar_meter.n_probes
    assert batch_meter.n_requests == scalar_meter.n_requests
    assert batch_meter.elapsed_s == scalar_meter.elapsed_s
    batch_arrays = batch_meter.log.as_arrays()
    scalar_arrays = scalar_meter.log.as_arrays()
    for key in batch_arrays:
        assert np.array_equal(batch_arrays[key], scalar_arrays[key]), key


class TestBackendCurrents:
    def test_dataset_backend_matches_scalar(self, clean_csd, rng):
        backend = DatasetBackend(clean_csd)
        rows, cols = _request_pattern(rng, backend.shape, 200)
        batch = backend.currents(rows, cols)
        assert np.array_equal(batch, clean_csd.data[rows, cols])
        single = np.array([backend.currents([r], [c])[0] for r, c in zip(rows, cols)])
        assert np.array_equal(batch, single)

    def test_device_backend_matches_scalar(self, double_dot_device, rng):
        backend = _device_backend(double_dot_device)
        rows, cols = _request_pattern(rng, backend.shape, 200)
        batch = backend.currents(rows, cols)
        single = np.array([backend.currents([r], [c])[0] for r, c in zip(rows, cols)])
        assert np.array_equal(batch, single)

    def test_device_backend_batch_split_invariance(self, double_dot_device, rng):
        """The same requests give the same bits regardless of batching."""
        backend = _device_backend(double_dot_device)
        rows, cols = _request_pattern(rng, backend.shape, 500)
        whole = backend.currents(rows, cols)
        parts = np.concatenate(
            [backend.currents(rows[i : i + 37], cols[i : i + 37]) for i in range(0, 500, 37)]
        )
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize(
        "pixel", [(1000, 0), (63, 0), (0, 63), (-1, 0), (0, -1), (63, 63)]
    )
    def test_off_grid_batch_rejected(self, clean_csd, pixel):
        backend = DatasetBackend(clean_csd)
        meter = ChargeSensorMeter(backend)
        rows, cols = [0, pixel[0]], [0, pixel[1]]
        with pytest.raises(MeasurementError, match="outside"):
            backend.currents(rows, cols)
        with pytest.raises(MeasurementError, match="outside"):
            meter.get_currents(rows, cols)
        assert meter.n_requests == 0
        assert np.array_equal(backend.currents([62, 0], [0, 62]), clean_csd.data[[62, 0], [0, 62]])

    def test_shape_mismatch_rejected(self, clean_csd):
        backend = DatasetBackend(clean_csd)
        with pytest.raises(MeasurementError):
            backend.currents([0, 1], [0])

    def test_non_integer_indices_rejected(self, clean_csd):
        backend = DatasetBackend(clean_csd)
        meter = ChargeSensorMeter(backend)
        boolean = np.array([True, False])
        for rows, cols in [
            ([0.5, 1.5], [0.0, 1.0]),
            (boolean, np.array([0, 1])),
            (np.array([0, 1]), boolean),
            (boolean, boolean),
        ]:
            with pytest.raises(MeasurementError):
                backend.currents(rows, cols)
            with pytest.raises(MeasurementError):
                meter.get_currents(rows, cols)
        assert meter.n_requests == 0

    def test_empty_batch(self, clean_csd):
        backend = DatasetBackend(clean_csd)
        assert backend.currents([], []).shape == (0,)


class TestGetCurrentsEquivalence:
    @pytest.mark.parametrize("cache", [True, False])
    def test_dataset_backend(self, clean_csd, rng, cache):
        batch_meter, scalar_meter = _meter_pair(
            lambda: DatasetBackend(clean_csd), cache=cache
        )
        rows, cols = _request_pattern(rng, clean_csd.shape, 300)
        batch = batch_meter.get_currents(rows, cols)
        scalar = np.array(
            [scalar_meter.get_current(int(r), int(c)) for r, c in zip(rows, cols)]
        )
        assert np.array_equal(batch, scalar)
        _assert_meters_identical(batch_meter, scalar_meter)

    @pytest.mark.parametrize("cache", [True, False])
    def test_device_backend(self, double_dot_device, rng, cache):
        batch_meter, scalar_meter = _meter_pair(
            lambda: _device_backend(double_dot_device), cache=cache
        )
        rows, cols = _request_pattern(rng, batch_meter.shape, 300)
        batch = batch_meter.get_currents(rows, cols)
        scalar = np.array(
            [scalar_meter.get_current(int(r), int(c)) for r, c in zip(rows, cols)]
        )
        assert np.array_equal(batch, scalar)
        _assert_meters_identical(batch_meter, scalar_meter)

    def test_mixed_scalar_and_batch_calls(self, clean_csd, rng):
        """Interleaving scalar and batched requests shares one cache."""
        batch_meter, scalar_meter = _meter_pair(lambda: DatasetBackend(clean_csd))
        rows, cols = _request_pattern(rng, clean_csd.shape, 60)
        batch_meter.get_current(int(rows[0]), int(cols[0]))
        batch_meter.get_currents(rows, cols)
        batch_meter.get_current(int(rows[1]), int(cols[1]))
        scalar_meter.get_current(int(rows[0]), int(cols[0]))
        for r, c in zip(rows, cols):
            scalar_meter.get_current(int(r), int(c))
        scalar_meter.get_current(int(rows[1]), int(cols[1]))
        _assert_meters_identical(batch_meter, scalar_meter)

    def test_empty_batch_is_a_no_op(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        values = meter.get_currents([], [])
        assert values.shape == (0,)
        assert meter.n_requests == 0
        assert meter.elapsed_s == 0.0

    def test_acquire_full_grid_matches_scalar_loop(self, double_dot_device):
        batch_meter, scalar_meter = _meter_pair(
            lambda: _device_backend(double_dot_device)
        )
        image_batch = batch_meter.acquire_full_grid()
        rows, cols = scalar_meter.shape
        image_scalar = np.array(
            [[scalar_meter.get_current(r, c) for c in range(cols)] for r in range(rows)]
        )
        assert np.array_equal(image_batch, image_scalar)
        _assert_meters_identical(batch_meter, scalar_meter)


class TestGetCurrentsBudget:
    def _run_scalar(self, meter, rows, cols):
        values = []
        for r, c in zip(rows, cols):
            values.append(meter.get_current(int(r), int(c)))
        return values

    @pytest.mark.parametrize("cache", [True, False])
    def test_budget_exhaustion_point_matches(self, clean_csd, rng, cache):
        rows, cols = _request_pattern(rng, clean_csd.shape, 120)
        batch_meter, scalar_meter = _meter_pair(
            lambda: DatasetBackend(clean_csd), cache=cache, max_probes=40
        )
        with pytest.raises(ProbeBudgetExceededError):
            batch_meter.get_currents(rows, cols)
        with pytest.raises(ProbeBudgetExceededError):
            self._run_scalar(scalar_meter, rows, cols)
        # Everything before the violating request was committed identically.
        _assert_meters_identical(batch_meter, scalar_meter)
        assert batch_meter.n_probes == 40

    def test_cached_requests_allowed_after_exhaustion(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd), max_probes=3)
        meter.get_currents([0, 0, 0], [0, 1, 2])
        # Re-requesting measured pixels is free and still allowed.
        values = meter.get_currents([0, 0], [1, 2])
        assert np.array_equal(values, clean_csd.data[0, 1:3])
        with pytest.raises(ProbeBudgetExceededError):
            meter.get_currents([0], [3])

    def test_budget_hit_on_first_request_commits_nothing(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd), max_probes=2)
        meter.get_currents([0, 0], [0, 1])
        with pytest.raises(ProbeBudgetExceededError):
            meter.get_currents([1, 2], [0, 0])
        assert meter.n_probes == 2
        assert meter.n_requests == 2


def _time_dependent_backend(device):
    """A backend whose noise AND device evolve with the probe timestamps."""
    xs = np.linspace(0.0, 0.04, 40)
    ys = np.linspace(0.0, 0.04, 40)
    return DeviceBackend(
        device,
        xs,
        ys,
        noise=standard_lab_noise(telegraph_amplitude_na=0.03),
        seed=11,
        drift=DeviceDrift(
            operating_point_mv_per_hour=40.0,
            charge_jumps_per_hour=900.0,
            charge_jump_mv=0.3,
            interference_mv=0.2,
            interference_period_s=0.7,
            lever_arm_fraction_per_hour=0.05,
        ),
        time_dependent_noise=True,
    )


class TestTimeDependentEquivalence:
    """Batched and scalar probe paths stay bit-identical when the noise (and
    the device itself) depend on the per-probe simulated timestamps."""

    @pytest.mark.parametrize("cache", [True, False])
    def test_get_currents_matches_scalar_loop(self, double_dot_device, rng, cache):
        batch_meter, scalar_meter = _meter_pair(
            lambda: _time_dependent_backend(double_dot_device), cache=cache
        )
        rows, cols = _request_pattern(rng, batch_meter.shape, 300)
        batch = batch_meter.get_currents(rows, cols)
        scalar = np.array(
            [scalar_meter.get_current(int(r), int(c)) for r, c in zip(rows, cols)]
        )
        assert np.array_equal(batch, scalar)
        _assert_meters_identical(batch_meter, scalar_meter)

    def test_batch_split_invariance_through_meter(self, double_dot_device, rng):
        """Splitting one batch into many cannot change values, log, or clock."""
        whole_meter, split_meter = _meter_pair(
            lambda: _time_dependent_backend(double_dot_device)
        )
        rows, cols = _request_pattern(rng, whole_meter.shape, 400)
        whole = whole_meter.get_currents(rows, cols)
        parts = np.concatenate(
            [
                split_meter.get_currents(rows[i : i + 29], cols[i : i + 29])
                for i in range(0, 400, 29)
            ]
        )
        assert np.array_equal(whole, parts)
        _assert_meters_identical(whole_meter, split_meter)

    def test_revisiting_a_pixel_later_sees_an_evolved_device(self, double_dot_device):
        backend = _time_dependent_backend(double_dot_device)
        meter = ChargeSensorMeter(backend, cache=False)
        first = meter.get_current(7, 9)
        meter.clock.advance(3600.0)  # an hour of drift
        second = meter.get_current(7, 9)
        assert first != second

    def test_direct_probe_without_timestamps_is_refused(self, double_dot_device):
        backend = _time_dependent_backend(double_dot_device)
        assert backend.is_time_dependent
        with pytest.raises(MeasurementError):
            backend.currents(np.array([0]), np.array([0]))

    def test_static_backend_ignores_timestamps(self, double_dot_device):
        backend = _device_backend(double_dot_device)
        assert not backend.is_time_dependent
        plain = backend.currents(np.array([3, 4]), np.array([5, 6]))
        timed = backend.currents(
            np.array([3, 4]), np.array([5, 6]), times_s=np.array([0.05, 0.10])
        )
        assert np.array_equal(plain, timed)

    def test_shared_seed_sequence_not_mutated(self, double_dot_device):
        """Two backends seeded with the same SeedSequence object agree.

        Regression: child streams used to be derived via SeedSequence.spawn,
        which mutates the caller's object, so the second backend silently
        got different noise/drift realisations.
        """
        root = np.random.SeedSequence(7)
        xs = np.linspace(0.0, 0.04, 40)
        make = lambda: DeviceBackend(  # noqa: E731 - local factory
            double_dot_device,
            xs,
            xs,
            noise=WhiteNoise(0.05),
            seed=root,
            drift=DeviceDrift(charge_jumps_per_hour=600.0, charge_jump_mv=0.4),
            time_dependent_noise=True,
        )
        first, second = make(), make()
        rows = np.arange(20)
        times = (rows + 1) * 0.05
        assert np.array_equal(
            first.currents(rows, rows, times_s=times),
            second.currents(rows, rows, times_s=times),
        )
        assert root.n_children_spawned == 0

    def test_zero_probe_cost_with_time_dependent_noise_rejected(self, double_dot_device):
        xs = np.linspace(0.0, 0.04, 40)
        with pytest.raises(MeasurementError):
            DeviceBackend(
                double_dot_device,
                xs,
                xs,
                noise=WhiteNoise(0.05),
                seed=1,
                time_dependent_noise=True,
                probe_interval_s=0.0,
            )

    def test_timestamp_count_mismatch_rejected(self, double_dot_device):
        backend = _time_dependent_backend(double_dot_device)
        with pytest.raises(MeasurementError):
            backend.currents(
                np.array([0, 1]), np.array([0, 1]), times_s=np.array([0.05])
            )

    def test_acquire_full_grid_matches_scalar_loop(self, double_dot_device):
        batch_meter, scalar_meter = _meter_pair(
            lambda: _time_dependent_backend(double_dot_device)
        )
        image_batch = batch_meter.acquire_full_grid()
        rows, cols = scalar_meter.shape
        image_scalar = np.array(
            [[scalar_meter.get_current(r, c) for c in range(cols)] for r in range(rows)]
        )
        assert np.array_equal(image_batch, image_scalar)
        _assert_meters_identical(batch_meter, scalar_meter)

    @pytest.mark.parametrize("cache", [True, False])
    def test_budget_exhaustion_point_matches(self, double_dot_device, rng, cache):
        rows, cols = _request_pattern(rng, (40, 40), 120)
        batch_meter, scalar_meter = _meter_pair(
            lambda: _time_dependent_backend(double_dot_device),
            cache=cache,
            max_probes=40,
        )
        with pytest.raises(ProbeBudgetExceededError):
            batch_meter.get_currents(rows, cols)
        with pytest.raises(ProbeBudgetExceededError):
            for r, c in zip(rows, cols):
                scalar_meter.get_current(int(r), int(c))
        _assert_meters_identical(batch_meter, scalar_meter)
        assert batch_meter.n_probes == 40


class TestVirtualClockBatch:
    def test_charge_probes_bit_identical_to_loop(self):
        a = VirtualClock(TimingModel(dwell_time_s=0.05, readout_s=0.001))
        b = VirtualClock(TimingModel(dwell_time_s=0.05, readout_s=0.001))
        a.advance(0.123)
        b.advance(0.123)
        times = a.charge_probes(500)
        expected = []
        for _ in range(500):
            b.charge_probe()
            expected.append(b.elapsed_s)
        assert np.array_equal(times, np.array(expected))
        assert a.elapsed_s == b.elapsed_s

    def test_charge_probes_zero_and_negative(self):
        clock = VirtualClock()
        assert clock.charge_probes(0).shape == (0,)
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            clock.charge_probes(-1)


class TestFeatureGradientBatch:
    def test_values_matches_scalar_loop(self, clean_csd, rng):
        batch_meter, scalar_meter = _meter_pair(lambda: DatasetBackend(clean_csd))
        batch_gradient = FeatureGradient(batch_meter, delta_pixels=2)
        scalar_gradient = FeatureGradient(scalar_meter, delta_pixels=2)
        rows = rng.integers(-1, clean_csd.shape[0] + 1, size=50)
        cols = rng.integers(-1, clean_csd.shape[1] + 1, size=50)
        batch = batch_gradient.values(rows, cols)
        scalar = np.array(
            [scalar_gradient.value(int(r), int(c)) for r, c in zip(rows, cols)]
        )
        assert np.array_equal(batch, scalar)
        _assert_meters_identical(batch_meter, scalar_meter)


class TestProbeLogColumnar:
    def test_empty_log_arrays_are_independent(self):
        from repro.instrument import ProbeLog

        arrays = ProbeLog().as_arrays()
        assert all(column.size == 0 for column in arrays.values())
        # Regression: the float columns of an empty log used to be the same
        # array object, so in-place mutation of one corrupted the others.
        float_keys = ["voltage_x", "voltage_y", "current_na", "time_s"]
        for i, first in enumerate(float_keys):
            for second in float_keys[i + 1 :]:
                assert arrays[first] is not arrays[second]

    def test_record_view_round_trip(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        meter.get_current(2, 3)
        meter.get_current(2, 3)
        log = meter.log
        assert len(log) == 2
        assert log.records[0].cached is False
        assert log[-1].cached is True
        assert [record.row for record in log] == [2, 2]
        with pytest.raises(IndexError):
            log[2]

    def test_growth_beyond_initial_capacity(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        meter.acquire_full_grid()
        assert meter.log.n_requests == clean_csd.n_pixels
        assert meter.log.n_unique_pixels == clean_csd.n_pixels
        mask = meter.log.probe_mask(clean_csd.shape)
        assert mask.all()


class TestPixelAtFastPath:
    def test_uniform_axis_matches_argmin(self, clean_csd, rng):
        backend = DatasetBackend(clean_csd)
        for _ in range(100):
            vx = float(rng.uniform(clean_csd.x_voltages[0] - 0.01, clean_csd.x_voltages[-1] + 0.01))
            vy = float(rng.uniform(clean_csd.y_voltages[0] - 0.01, clean_csd.y_voltages[-1] + 0.01))
            expected = (
                int(np.argmin(np.abs(clean_csd.y_voltages - vy))),
                int(np.argmin(np.abs(clean_csd.x_voltages - vx))),
            )
            assert backend.pixel_at(vx, vy) == expected
            assert clean_csd.pixel_at(vx, vy) == expected

    def test_non_uniform_axis_falls_back_to_argmin(self, double_dot_device):
        xs = np.array([0.0, 0.01, 0.03, 0.07, 0.15])
        ys = np.array([0.0, 0.02, 0.03, 0.08, 0.20])
        backend = DeviceBackend(double_dot_device, xs, ys)
        for vx, vy in [(0.02, 0.05), (0.069, 0.001), (0.5, -0.5)]:
            expected = (
                int(np.argmin(np.abs(ys - vy))),
                int(np.argmin(np.abs(xs - vx))),
            )
            assert backend.pixel_at(vx, vy) == expected

    def test_round_trip_through_voltage_at(self, clean_csd):
        backend = DatasetBackend(clean_csd)
        for row, col in [(0, 0), (31, 17), (62, 62)]:
            vx, vy = backend.voltage_at(row, col)
            assert backend.pixel_at(vx, vy) == (row, col)

    def test_midpoint_ties_match_argmin_path(self, clean_csd):
        """Exact and ulp-perturbed midpoints resolve like the argmin scan."""
        from repro.physics.csd import nearest_axis_index, uniform_axis_step

        axis = clean_csd.x_voltages
        step = uniform_axis_step(axis)
        assert step is not None
        for i in range(axis.size - 1):
            midpoint = 0.5 * (axis[i] + axis[i + 1])
            for value in (
                midpoint,
                np.nextafter(midpoint, -np.inf),
                np.nextafter(midpoint, np.inf),
            ):
                expected = int(np.argmin(np.abs(axis - value)))
                assert nearest_axis_index(axis, float(value), step) == expected

    def test_non_finite_voltage_matches_argmin_path(self, clean_csd):
        backend = DatasetBackend(clean_csd)
        for value in [float("nan"), float("inf"), float("-inf")]:
            expected = (
                int(np.argmin(np.abs(clean_csd.y_voltages - value))),
                int(np.argmin(np.abs(clean_csd.x_voltages - value))),
            )
            assert backend.pixel_at(value, value) == expected
            assert clean_csd.pixel_at(value, value) == expected
