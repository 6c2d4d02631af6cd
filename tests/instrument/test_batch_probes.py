"""Batch-split invariance of the probe path.

A batch (`MeasurementBackend.currents`, `ChargeSensorMeter.get_currents`,
`FeatureGradient.segment_values`, `acquire_full_grid`) must be request-by-request
indistinguishable from the same requests made one pixel at a time: same
values (bit-identical), same probe counts, same cache hits, same clock
charges, and the same measured pixels, probed in the same order.  The
meter takes rows and columns and checks them at its boundary; a backend
takes flat pixel keys (`row * n_cols + col`) and checks those.
`get_current` is a one-pixel `get_currents`; `test_reference_meter.py`
checks the meter against an independent per-pixel implementation.
"""

from __future__ import annotations

import contextlib
from collections import Counter

import numpy as np
import pytest

import repro.instrument.measurement as measurement
import repro.kernelcache as kernelcache
from repro.campaign import CampaignGrid
from repro.campaign.worker import run_campaign_job
from repro.core.gradient import FeatureGradient
from repro.exceptions import MeasurementError
from repro.instrument import (
    ChargeSensorMeter,
    DatasetBackend,
    DeviceBackend,
    TimingModel,
    VirtualClock,
)
from repro.physics import DeviceDrift, WhiteNoise, standard_lab_noise
from repro.scenarios import DeviceSpec


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


def _meter_pair(backend_factory):
    """Two meters over identically configured backends."""
    return ChargeSensorMeter(backend_factory()), ChargeSensorMeter(backend_factory())


def _request_pattern(rng, shape, n):
    """Random request pattern with plenty of duplicates."""
    rows = rng.integers(0, shape[0], size=n)
    cols = rng.integers(0, shape[1], size=n)
    # Repeat a slice so the batch contains guaranteed duplicates.
    rows[n // 2 : n // 2 + n // 4] = rows[: n // 4]
    cols[n // 2 : n // 2 + n // 4] = cols[: n // 4]
    return rows, cols


def _key_pattern(rng, shape, n):
    """The flat pixel keys of a random request pattern."""
    rows, cols = _request_pattern(rng, shape, n)
    return rows * shape[1] + cols


def _pixel_form(indices: list[int], form: str):
    """One axis of a pixel batch as a caller might send it."""
    if form == "list":
        return list(indices)
    if form == "2-D":
        return np.array(indices, dtype=np.int64).reshape(-1, 1)
    if form == "0-d":
        (index,) = indices
        return np.array(index, dtype=np.int64)
    return np.array(indices, dtype=form)


def _meter_state(meter):
    """Everything a meter reports, as one comparable tuple."""
    rows, cols = meter.probed_pixels()
    return (
        meter.snapshot(),
        rows.tolist(),
        cols.tolist(),
        meter.probe_mask().tolist(),
        meter.measured_image(fill_value=-1.0).tolist(),
    )


@contextlib.contextmanager
def _refusal_leaves_meter_untouched(meter, match):
    """The body must raise MeasurementError and change nothing on ``meter``."""
    meter.get_currents([3, 4], [5, 6])
    before = _meter_state(meter)
    with pytest.raises(MeasurementError, match=match):
        yield
    assert _meter_state(meter) == before


def _assert_meters_identical(batch_meter, scalar_meter):
    assert _meter_state(batch_meter) == _meter_state(scalar_meter)


class TestBackendCurrents:
    """Key cases test a backend; row and column cases test the meter's
    boundary, the only place rows and columns are taken."""

    def test_dataset_backend_matches_scalar(self, clean_csd, rng):
        backend = DatasetBackend(clean_csd)
        keys = _key_pattern(rng, backend.shape, 200)
        batch = backend.currents(keys)
        assert np.array_equal(batch, clean_csd.data.ravel()[keys])
        single = np.array([backend.currents([key])[0] for key in keys])
        assert np.array_equal(batch, single)

    def test_device_backend_matches_scalar(self, double_dot_device, rng):
        backend = _device_backend(double_dot_device)
        keys = _key_pattern(rng, backend.shape, 200)
        batch = backend.currents(keys)
        single = np.array([backend.currents([key])[0] for key in keys])
        assert np.array_equal(batch, single)

    def test_device_backend_batch_split_invariance(self, double_dot_device, rng):
        """The same requests give the same bits regardless of batching."""
        backend = _device_backend(double_dot_device)
        keys = _key_pattern(rng, backend.shape, 500)
        whole = backend.currents(keys)
        parts = np.concatenate([backend.currents(keys[i : i + 37]) for i in range(0, 500, 37)])
        assert np.array_equal(whole, parts)

    @pytest.mark.parametrize(
        "pixel, form",
        [
            pytest.param(pixel, form, id=f"{pixel[0]},{pixel[1]}-{form}")
            for pixel in [(1000, 0), (63, 0), (0, 63), (-1, 0), (0, -1), (63, 63)]
            for form in ["list", "int64", "int32", "uint64", "2-D"]
            # uint64 cannot hold a negative index.
            if not (form == "uint64" and min(pixel) < 0)
        ],
    )
    def test_off_grid_batch_rejected(self, clean_csd, pixel, form):
        backend = DatasetBackend(clean_csd)
        meter = ChargeSensorMeter(backend)
        rows, cols = _pixel_form([0, pixel[0]], form), _pixel_form([0, pixel[1]], form)
        with _refusal_leaves_meter_untouched(meter, "outside"):
            meter.get_currents(rows, cols)

    @pytest.mark.parametrize(
        "keys",
        [
            [0, 63 * 63],
            [0, 10**6],
            [-1, 0],
            [0, -63 * 63],
            np.array([0, 63 * 63], dtype=np.uint64),
            np.array([[5], [63 * 63]], dtype=np.int32),
            np.array([0, 2**63], dtype=np.uint64),
        ],
        ids=["past-end", "far", "negative", "very-negative", "uint64", "2-D-int32", "2**63"],
    )
    def test_off_grid_keys_rejected(self, clean_csd, double_dot_device, keys):
        for backend in (DatasetBackend(clean_csd), _device_backend(double_dot_device)):
            with pytest.raises(MeasurementError, match="outside"):
                backend.currents(keys)
        assert np.array_equal(
            DatasetBackend(clean_csd).currents([62 * 63, 62]), clean_csd.data[[62, 0], [0, 62]]
        )

    @pytest.mark.parametrize(
        "keys",
        [[0.5, 1.5], np.array([0.0, 1.0]), np.array([True, False]), np.array(1.0)],
        ids=["list", "float", "bool", "0-d-float"],
    )
    def test_non_integer_keys_rejected(self, clean_csd, double_dot_device, keys):
        for backend in (DatasetBackend(clean_csd), _device_backend(double_dot_device)):
            with pytest.raises(MeasurementError, match="integers"):
                backend.currents(keys)

    @pytest.mark.parametrize("form", ["list", "int64", "int32", "uint64", "2-D", "0-d"])
    def test_array_forms_match_list_form(self, clean_csd, form):
        pixels = ([5, 62, 5], [0, 7, 0]) if form != "0-d" else ([5], [0])
        listed, shaped = _meter_pair(lambda: DatasetBackend(clean_csd))
        expected = listed.get_currents(*pixels)
        rows, cols = (_pixel_form(axis, form) for axis in pixels)
        assert np.array_equal(shaped.get_currents(rows, cols), expected)
        keys = _pixel_form([row * 63 + col for row, col in zip(*pixels)], form)
        assert np.array_equal(DatasetBackend(clean_csd).currents(keys), expected)
        _assert_meters_identical(shaped, listed)

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([0, 1], [0]),
            (np.array([0, 1]), np.array([0])),
            (np.array([[0], [1]]), np.array([[0, 1]])),
            (np.array(0), np.array([0, 1])),
        ],
        ids=["list", "int64", "2-D", "0-d"],
    )
    def test_shape_mismatch_rejected(self, clean_csd, rows, cols):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        with _refusal_leaves_meter_untouched(meter, "matching shapes"):
            meter.get_currents(rows, cols)

    @pytest.mark.parametrize(
        "rows, cols",
        [
            ([0.5, 1.5], [0.0, 1.0]),
            (np.array([0.0, 1.0]), np.array([0, 1])),
            (np.array([0, 1]), np.array([0.0, 1.0])),
            (np.array([True, False]), np.array([0, 1])),
            (np.array([0, 1]), np.array([True, False])),
            (np.array([True, False]), np.array([True, False])),
            (np.array(1.0), np.array(1)),
        ],
        ids=["list", "float-rows", "float-cols", "bool-rows", "bool-cols", "bool", "0-d-float"],
    )
    def test_non_integer_indices_rejected(self, clean_csd, rows, cols):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        with _refusal_leaves_meter_untouched(meter, "integers"):
            meter.get_currents(rows, cols)

    def test_empty_batch(self, clean_csd):
        backend = DatasetBackend(clean_csd)
        assert backend.currents([]).shape == (0,)

    def test_meter_hands_the_backend_only_first_requests(self, clean_csd):
        # The backend sees the first request of each never-measured pixel,
        # as a flat key, at its probe's timestamp; a batch of cache hits
        # reaches no backend at all.
        calls = []

        class Recording(DatasetBackend):
            def currents(self, keys, times_s=None):
                calls.append((np.array(keys).tolist(), np.array(times_s).tolist()))
                return super().currents(keys, times_s)

        clock = VirtualClock(TimingModel(dwell_time_s=0.5))
        meter = ChargeSensorMeter(Recording(clean_csd), clock=clock)
        meter.get_currents([1, 2], [1, 2])
        meter.get_currents([1, 4, 2, 4, 0], [1, 3, 2, 3, 7])
        meter.get_currents([4, 1], [3, 1])
        n_cols = meter.shape[1]
        assert calls == [
            ([n_cols + 1, 2 * n_cols + 2], [0.5, 1.0]),
            ([4 * n_cols + 3, 7], [1.5, 2.0]),
        ]
        assert (meter.n_probes, meter.n_requests, meter.elapsed_s) == (4, 9, 2.0)


class TestGetCurrentsEquivalence:
    def test_dataset_backend(self, clean_csd, rng):
        batch_meter, scalar_meter = _meter_pair(lambda: DatasetBackend(clean_csd))
        rows, cols = _request_pattern(rng, clean_csd.shape, 300)
        batch = batch_meter.get_currents(rows, cols)
        scalar = np.array(
            [scalar_meter.get_current(int(r), int(c)) for r, c in zip(rows, cols)]
        )
        assert np.array_equal(batch, scalar)
        _assert_meters_identical(batch_meter, scalar_meter)

    def test_device_backend(self, double_dot_device, rng):
        batch_meter, scalar_meter = _meter_pair(lambda: _device_backend(double_dot_device))
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

    def test_get_currents_matches_scalar_loop(self, double_dot_device, rng):
        batch_meter, scalar_meter = _meter_pair(
            lambda: _time_dependent_backend(double_dot_device)
        )
        rows, cols = _request_pattern(rng, batch_meter.shape, 300)
        batch = batch_meter.get_currents(rows, cols)
        scalar = np.array(
            [scalar_meter.get_current(int(r), int(c)) for r, c in zip(rows, cols)]
        )
        assert np.array_equal(batch, scalar)
        _assert_meters_identical(batch_meter, scalar_meter)

    def test_batch_split_invariance_through_meter(self, double_dot_device, rng):
        """Splitting one batch into many cannot change values, probes, or clock."""
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
        # A fresh meter per re-probe on one shared clock, as the workflow's
        # staleness check re-probes its reference pixels.
        backend = _time_dependent_backend(double_dot_device)
        clock = VirtualClock()
        first = ChargeSensorMeter(backend, clock=clock).get_current(7, 9)
        clock.advance(3600.0)  # an hour of drift
        second = ChargeSensorMeter(backend, clock=clock).get_current(7, 9)
        assert first != second

    def test_direct_probe_without_timestamps_is_refused(self, double_dot_device):
        backend = _time_dependent_backend(double_dot_device)
        assert backend.is_time_dependent
        with pytest.raises(MeasurementError):
            backend.currents(np.array([0]))

    def test_static_backend_ignores_timestamps(self, double_dot_device):
        backend = _device_backend(double_dot_device)
        assert not backend.is_time_dependent
        plain = backend.currents(np.array([125, 166]))
        timed = backend.currents(np.array([125, 166]), times_s=np.array([0.05, 0.10]))
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
        keys = np.arange(20) * 41
        times = np.arange(1, 21) * 0.05
        assert np.array_equal(
            first.currents(keys, times_s=times), second.currents(keys, times_s=times)
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

    def test_timestamp_count_mismatch_rejected(self, double_dot_device, clean_csd):
        for backend in (
            _time_dependent_backend(double_dot_device),
            _device_backend(double_dot_device),
            DatasetBackend(clean_csd),
        ):
            with pytest.raises(MeasurementError, match="expected 2 probe timestamps"):
                backend.currents(np.array([0, 41]), times_s=np.array([0.05]))
            assert backend.currents([0, 41], times_s=[0.05, 0.1]).shape == (2,)

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


def _segment_pixels(axis, line, start, size):
    """The ``(row, col)`` pixels of a gradient segment, in request order."""
    along = range(start, start + size)
    return [(line, k) if axis == 0 else (k, line) for k in along]


class TestFeatureGradientBatch:
    def test_segment_values_match_scalar_loop(self, clean_csd, rng):
        batch_meter, scalar_meter = _meter_pair(lambda: DatasetBackend(clean_csd))
        batch_gradient = FeatureGradient(batch_meter, delta_pixels=2)
        scalar_gradient = FeatureGradient(scalar_meter, delta_pixels=2)
        n_rows, n_cols = clean_csd.shape
        # Segments on the top row and in the right column, and segments that
        # end within delta of those edges, make the stencil clamp.
        calls = [
            [(0, n_rows - 1, 0, n_cols), (1, n_cols - 1, 0, n_rows)],
            [(0, n_rows - 2, n_cols - 5, 5), (1, n_cols - 2, n_rows - 3, 3)],
            [(1, 0, 0, 1), (0, 0, 0, 1)],
            # Four full lines outgrow the buffer sized for one row and one column.
            [(0, row, 0, n_cols) for row in (3, 30, 3, n_rows - 1)],
        ]
        for _ in range(40):
            segments = []
            for axis in rng.integers(0, 2, size=rng.integers(1, 4)):
                n_lines, n_along = (n_rows, n_cols) if axis == 0 else (n_cols, n_rows)
                line = int(rng.integers(0, n_lines))
                start = int(rng.integers(0, n_along))
                size = int(rng.integers(1, n_along - start + 1))
                segments.append((int(axis), line, start, size))
            calls.append(segments)
        for segments in calls:
            batch = batch_gradient.segment_values(segments)
            scalar = np.array(
                [
                    scalar_gradient.value(row, col)
                    for segment in segments
                    for row, col in _segment_pixels(*segment)
                ]
            )
            assert np.array_equal(batch, scalar)
        _assert_meters_identical(batch_meter, scalar_meter)

    @pytest.mark.parametrize(
        "segment",
        [(0, -1, 0, 3), (0, 63, 0, 3), (0, 5, -1, 3), (0, 5, 61, 3), (1, 63, 5, 2), (1, 5, 62, 2)],
    )
    def test_off_grid_segment_refused_before_measuring(self, clean_csd, segment):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        gradient = FeatureGradient(meter)
        with pytest.raises(MeasurementError, match="is off the grid"):
            gradient.segment_values([(0, 10, 10, 4), segment])
        assert meter.n_requests == 0


class TestMeasuredPixels:
    def test_full_grid_probes_every_pixel_in_row_major_order(self, clean_csd):
        meter = ChargeSensorMeter(DatasetBackend(clean_csd))
        meter.acquire_full_grid()
        assert meter.n_requests == clean_csd.n_pixels
        assert meter.probe_mask().all()
        rows, cols = meter.probed_pixels()
        assert np.array_equal(rows * clean_csd.shape[1] + cols, np.arange(clean_csd.n_pixels))


class TestPixelAtFastPath:
    def test_uniform_axis_matches_argmin(self, clean_csd, rng):
        for _ in range(100):
            vx = float(rng.uniform(clean_csd.x_voltages[0] - 0.01, clean_csd.x_voltages[-1] + 0.01))
            vy = float(rng.uniform(clean_csd.y_voltages[0] - 0.01, clean_csd.y_voltages[-1] + 0.01))
            expected = (
                int(np.argmin(np.abs(clean_csd.y_voltages - vy))),
                int(np.argmin(np.abs(clean_csd.x_voltages - vx))),
            )
            assert clean_csd.pixel_at(vx, vy) == expected

    def test_non_uniform_axis_falls_back_to_argmin(self):
        from repro.physics.csd import nearest_axis_index, uniform_axis_step

        axis = np.array([0.0, 0.01, 0.03, 0.07, 0.15])
        assert uniform_axis_step(axis) is None
        for value in (0.02, 0.05, 0.069, 0.001, 0.5, -0.5):
            expected = int(np.argmin(np.abs(axis - value)))
            assert nearest_axis_index(axis, value, None) == expected

    def test_round_trip_through_voltage_at(self, clean_csd):
        for row, col in [(0, 0), (31, 17), (62, 62)]:
            vx, vy = clean_csd.voltage_at(row, col)
            assert clean_csd.pixel_at(vx, vy) == (row, col)

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
        for value in [float("nan"), float("inf"), float("-inf")]:
            expected = (
                int(np.argmin(np.abs(clean_csd.y_voltages - value))),
                int(np.argmin(np.abs(clean_csd.x_voltages - value))),
            )
            assert clean_csd.pixel_at(value, value) == expected


class TestOnePassPerBatch:
    """A meter batch validates, keys and deduplicates its pixels once, and
    the backend checks the keys it is handed with one unsigned max per call.

    The job is the first fast-method job of perfbench's seed-1
    ``grid-fast-serial`` grid (double dot P1-P2, noise-free), run twice on a
    fresh kernel cache: cold, then with its kernel cached, as most of that
    grid's ten repeats per gate pair run.
    """

    JOB = CampaignGrid(
        devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
        resolutions=(63,),
        noise_scales=(0.0,),
        methods=("fast",),
        seed=1,
    ).expand()[0]

    def test_recorded_grid_job(self, monkeypatch):
        counts = Counter()

        def count(owner, name, note=None):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                if note is not None:
                    note(*args)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        def note_fetch(entry, keys, solve):
            # Only a batch with two or more unsolved pixels can repeat one.
            counts["fetch_2plus_unsolved"] += int((~entry.solved.ravel()[keys]).sum() >= 2)

        count(measurement.ChargeSensorMeter, "get_currents")
        count(measurement, "_validated_pixels")
        count(measurement.MeasurementBackend, "validate_keys")
        count(measurement, "first_requests")
        count(kernelcache, "first_requests")
        count(kernelcache.KernelCacheEntry, "fetch", note_fetch)
        count(measurement.DeviceBackend, "currents")
        monkeypatch.setattr(kernelcache, "_default_cache", kernelcache.KernelCache())

        cold = run_campaign_job(self.JOB)
        cold_counts, counts = counts, Counter()
        warm = run_campaign_job(self.JOB)
        assert cold.success and cold.n_probes == warm.n_probes == 556
        assert cold_counts == {
            "get_currents": 37,
            # Rows and columns once per batch, at the meter's boundary.
            "_validated_pixels": 37,
            "currents": 37,
            # The handed-over keys once per backend call.
            "validate_keys": 37,
            "fetch": 37,
            # The meter's dedup on every batch, the kernel cache's only
            # where it has two or more pixels to solve.
            "fetch_2plus_unsolved": 36,
            "first_requests": 37 + 36,
        }
        assert counts == {
            "get_currents": 37,
            "_validated_pixels": 37,
            "currents": 37,
            "validate_keys": 37,
            "fetch": 37,
            "fetch_2plus_unsolved": 0,
            "first_requests": 37,
        }
