"""The meter against an independent per-pixel reference, and its deferred log.

`ChargeSensorMeter.get_current` is a one-pixel `get_currents`, so comparing
the two no longer checks the batch path against anything independent.
`ReferenceMeter` below is the meter written the plain way, one request at a
time: validate the pixel, check the cache, check the budget, charge the
clock, then read one pixel through `backend.currents`, logging each request
as it goes.  Hypothesis draws request sequences (repeats within and across
batches, cache on and off, budgets running out mid-batch) and every one must
leave both meters with equal values, log columns, clock, probe count and
cache hits.

The meter's probe log queues each batch and expands it only when read; the
second half of this file reads the log mid-run and after `reset()`, and
mutates what a caller got back or passed in, against the reference's
eagerly built records.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import MeasurementError, ProbeBudgetExceededError
from repro.faults import FaultyBackend, ProbeHangFault, TransientReadFault
from repro.instrument import (
    ChargeSensorMeter,
    DatasetBackend,
    DeviceBackend,
    MeasurementBackend,
    ProbeRecord,
    TimingModel,
    VirtualClock,
)
from repro.physics import (
    CSDSimulator,
    DeviceDrift,
    DotArrayDevice,
    WhiteNoise,
    standard_lab_noise,
)

GRID = 12
TIMING = TimingModel(dwell_time_s=0.05, readout_s=0.003)
DEVICE = DotArrayDevice.double_dot(cross_coupling=(0.25, 0.22))
CSD = CSDSimulator(DEVICE).simulate(GRID, noise=WhiteNoise(0.05), seed=4)
AXIS = np.linspace(0.0, 0.04, GRID)
AXIS_X = CSD.x_voltages
AXIS_Y = CSD.y_voltages


def dataset_backend() -> MeasurementBackend:
    return DatasetBackend(CSD)


def static_device_backend() -> MeasurementBackend:
    # Fewer columns than rows, so a flat key built from the wrong axis shows.
    narrow = np.linspace(0.0, 0.04, GRID - 3)
    return DeviceBackend(DEVICE, narrow, AXIS, noise=WhiteNoise(0.05), seed=7)


def drifting_device_backend() -> MeasurementBackend:
    return DeviceBackend(
        DEVICE,
        AXIS,
        AXIS,
        noise=standard_lab_noise(telegraph_amplitude_na=0.03),
        seed=11,
        drift=DeviceDrift(
            operating_point_mv_per_hour=40.0,
            charge_jumps_per_hour=900.0,
            charge_jump_mv=0.3,
            interference_mv=0.2,
            interference_period_s=0.7,
        ),
        time_dependent_noise=True,
        probe_interval_s=TIMING.cost_per_probe_s,
    )


def fault_wrapped_backend() -> FaultyBackend:
    # Armed but silent: the meter takes its fault path (``plan_batch`` and
    # the committed prefix), the reference reads through ``currents``.
    return FaultyBackend(
        static_device_backend(),
        (TransientReadFault(rate=0.0), ProbeHangFault(rate=0.0)),
        seed=7,
    )


BACKENDS = {
    "dataset": dataset_backend,
    "static-device": static_device_backend,
    "drifting-device": drifting_device_backend,
    "fault-wrapped": fault_wrapped_backend,
}


class ReferenceMeter:
    """The meter's accounting, one request at a time, logged eagerly."""

    def __init__(self, backend, cache=True, max_probes=None):
        self.backend = backend
        self.clock = VirtualClock(TIMING)
        self.cache = cache
        self.max_probes = max_probes
        self.reset()

    def reset(self):
        self.measured = np.zeros(self.backend.shape, dtype=bool)
        self.values = np.zeros(self.backend.shape)
        self.n_probes = 0
        self.clock.reset()
        self.log: list[tuple] = []

    def get_current(self, row, col):
        n_rows, n_cols = self.backend.shape
        if not (0 <= row < n_rows and 0 <= col < n_cols):
            raise MeasurementError(f"pixel ({row}, {col}) off the grid")
        vx = float(self.backend.x_voltages[col])
        vy = float(self.backend.y_voltages[row])
        if self.cache and self.measured[row, col]:
            value = float(self.values[row, col])
            self.log.append((row, col, vx, vy, value, self.clock.elapsed_s, True))
            return value
        if self.max_probes is not None and self.n_probes >= self.max_probes:
            raise ProbeBudgetExceededError("budget exhausted")
        self.clock.charge_probe()
        value = float(
            self.backend.currents(
                np.array([row]), np.array([col]), times_s=np.array([self.clock.elapsed_s])
            )[0]
        )
        if not self.measured[row, col]:
            self.n_probes += 1
        self.measured[row, col] = True
        self.values[row, col] = value
        self.log.append((row, col, vx, vy, value, self.clock.elapsed_s, False))
        return value

    def get_currents(self, rows, cols):
        return np.array([self.get_current(int(r), int(c)) for r, c in zip(rows, cols)])

    @property
    def n_cache_hits(self):
        return sum(entry[-1] for entry in self.log)


def _record(row, col, value, time_s, cached):
    return ProbeRecord(
        row, col, float(AXIS_X[col]), float(AXIS_Y[row]), value, time_s, cached
    )


def expected_records(log: list[tuple]) -> tuple[ProbeRecord, ...]:
    return tuple(ProbeRecord(*entry) for entry in log)


def assert_log_matches(log, reference: list[tuple], shape=(GRID, GRID)):
    """Every read surface of ``log`` agrees with the eager reference list."""
    assert len(log) == len(reference)
    assert log.n_requests == len(reference)
    assert log.n_cached == sum(entry[-1] for entry in reference)
    records = expected_records(reference)
    assert log.records == records
    assert list(log) == list(records)
    if reference:
        assert log[-1] == records[-1]
    arrays = log.as_arrays()
    for key, column in zip(
        ("row", "col", "voltage_x", "voltage_y", "current_na", "time_s", "cached"),
        zip(*reference) if reference else [()] * 7,
    ):
        assert np.array_equal(arrays[key], np.array(column, dtype=arrays[key].dtype)), key
    measured = [(entry[0], entry[1]) for entry in reference if not entry[-1]]
    first_probe_order = list(dict.fromkeys(measured))
    assert log.unique_pixels() == first_probe_order
    assert log.n_unique_pixels == len(first_probe_order)
    mask = np.zeros(shape, dtype=bool)
    for row, col in first_probe_order:
        if 0 <= row < shape[0] and 0 <= col < shape[1]:
            mask[row, col] = True
    assert np.array_equal(log.probe_mask(shape), mask)


def assert_meters_match(meter: ChargeSensorMeter, reference: ReferenceMeter):
    assert meter.n_probes == reference.n_probes
    assert meter.n_requests == len(reference.log)
    assert meter.n_cache_hits == reference.n_cache_hits
    assert meter.elapsed_s == reference.clock.elapsed_s
    assert_log_matches(meter.log, reference.log, meter.shape)
    expected_image = np.where(reference.measured, reference.values, np.nan)
    assert np.array_equal(meter.measured_image(), expected_image, equal_nan=True)


def run_both(meter, reference, batches):
    """Send each batch to both meters; budget errors must coincide.

    Pixels are wrapped onto the meter's grid.
    """
    n_rows, n_cols = meter.shape
    for batch in batches:
        rows = np.array([pixel[0] % n_rows for pixel in batch], dtype=np.int64)
        cols = np.array([pixel[1] % n_cols for pixel in batch], dtype=np.int64)
        outcome = []
        for measure in (meter.get_currents, reference.get_currents):
            try:
                outcome.append(measure(rows, cols))
            except ProbeBudgetExceededError:
                outcome.append(None)
        if outcome[0] is None or outcome[1] is None:
            assert outcome[0] is None and outcome[1] is None
        else:
            assert np.array_equal(outcome[0], outcome[1])


# A small window makes repeats within and across batches common; the
# whole grid keeps far pixels in play.
pixels = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1)),
)
batches = st.lists(st.lists(pixels, max_size=14), min_size=1, max_size=6)
budgets = st.one_of(st.none(), st.integers(0, 24))


class TestAgainstReferenceMeter:
    @pytest.mark.parametrize("kind", sorted(BACKENDS))
    @settings(max_examples=60, deadline=None)
    @given(batches=batches, cache=st.booleans(), max_probes=budgets)
    def test_request_sequences(self, kind, batches, cache, max_probes):
        make = BACKENDS[kind]
        meter = ChargeSensorMeter(
            make(), clock=VirtualClock(TIMING), cache=cache, max_probes=max_probes
        )
        reference = ReferenceMeter(make(), cache=cache, max_probes=max_probes)
        run_both(meter, reference, batches)
        assert_meters_match(meter, reference)

    @pytest.mark.parametrize("kind", sorted(BACKENDS))
    def test_full_grid_scan(self, kind):
        meter = ChargeSensorMeter(BACKENDS[kind](), clock=VirtualClock(TIMING))
        reference = ReferenceMeter(BACKENDS[kind]())
        image = meter.acquire_full_grid()
        n_rows, n_cols = meter.shape
        expected = np.array(
            [[reference.get_current(r, c) for c in range(n_cols)] for r in range(n_rows)]
        )
        assert np.array_equal(image, expected)
        assert_meters_match(meter, reference)

    def test_budget_refill_repeat_stops_batch_without_cache(self):
        # The first request fills the one-probe budget; without a cache the
        # repeat is a second physical probe, so the batch stops before it.
        meter = ChargeSensorMeter(
            dataset_backend(), clock=VirtualClock(TIMING), cache=False, max_probes=1
        )
        with pytest.raises(ProbeBudgetExceededError):
            meter.get_currents([0, 0], [0, 0])
        assert meter.n_requests == 1
        assert meter.n_probes == 1
        assert meter.elapsed_s == TIMING.cost_per_probe_s
        assert meter.log.records == (
            _record(0, 0, float(CSD.data[0, 0]), TIMING.cost_per_probe_s, False),
        )

    def test_budget_refill_repeat_is_a_free_hit_with_cache(self):
        meter = ChargeSensorMeter(
            dataset_backend(), clock=VirtualClock(TIMING), cache=True, max_probes=1
        )
        values = meter.get_currents([0, 0], [0, 0])
        assert np.array_equal(values, [CSD.data[0, 0]] * 2)
        assert (meter.n_requests, meter.n_probes, meter.n_cache_hits) == (2, 1, 1)

    def test_backend_implementing_only_currents(self):
        class ReplayOnly(MeasurementBackend):
            x_voltages = CSD.x_voltages
            y_voltages = CSD.y_voltages

            def currents(self, rows, cols, times_s=None):
                rows, cols = self.validate_pixels(rows, cols)
                return CSD.data[rows, cols].astype(float)

        meter = ChargeSensorMeter(ReplayOnly())
        assert meter.get_current(2, 3) == CSD.data[2, 3]
        assert np.array_equal(meter.get_currents([4, 2], [1, 3]), CSD.data[[4, 2], [1, 3]])
        with pytest.raises(NotImplementedError):
            MeasurementBackend().currents([0], [0])


class TestDeferredLog:
    def _pair(self, cache=True):
        meter = ChargeSensorMeter(dataset_backend(), clock=VirtualClock(TIMING), cache=cache)
        return meter, ReferenceMeter(dataset_backend(), cache=cache)

    @pytest.mark.parametrize("cache", [True, False])
    def test_reads_mid_run_and_after_reset(self, cache):
        meter, reference = self._pair(cache)
        script = [[(1, 1), (2, 2), (1, 1)], [(2, 2), (3, 3)], [(0, 5), (0, 5), (0, 5)]]
        for batch in script:
            run_both(meter, reference, [batch])
            assert_meters_match(meter, reference)
        before_reset = meter.log
        kept = list(reference.log)
        meter.reset()
        reference.reset()
        assert len(meter.log) == 0 and meter.log.n_cached == 0
        assert_meters_match(meter, reference)
        for batch in reversed(script):
            run_both(meter, reference, [batch])
            assert_meters_match(meter, reference)
        # The log the meter dropped at reset() still reads what it held.
        assert_log_matches(before_reset, kept)

    def test_counts_read_without_expanding(self):
        meter, _ = self._pair()
        meter.get_currents([1, 1, 2], [1, 1, 2])
        snapshot = meter.snapshot()
        assert (snapshot.n_requests, snapshot.n_cache_hits, snapshot.n_probes) == (3, 1, 2)
        assert len(meter.log) == 3 and meter.log.n_cached == 1
        assert meter.log._pending, "counts should come from running counters"

    @pytest.mark.parametrize("cache", [True, False])
    def test_caller_mutations_do_not_reach_the_log(self, cache):
        meter, reference = self._pair(cache)
        rows = np.array([3, 1, 3, 2], dtype=np.int64)
        cols = np.array([4, 1, 4, 0], dtype=np.int64)
        values = meter.get_currents(rows, cols)
        expected = reference.get_currents(rows.copy(), cols.copy())
        assert np.array_equal(values, expected)
        rows[:] = 0
        cols[:] = 0
        values[:] = -99.0
        # A 2-D request is flattened to a view of the caller's array.
        grid_rows = np.array([[5, 6], [5, 7]])
        grid_cols = np.array([[1, 1], [2, 2]])
        more = meter.get_currents(grid_rows, grid_cols)
        reference.get_currents(grid_rows.ravel(), grid_cols.ravel())
        grid_rows[...] = 0
        grid_cols[...] = 0
        more[:] = np.inf
        assert_meters_match(meter, reference)
