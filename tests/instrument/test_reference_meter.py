"""The meter against an independent per-pixel reference.

`ChargeSensorMeter.get_current` is a one-pixel `get_currents`, so comparing
the two no longer checks the batch path against anything independent.
`ReferenceMeter` below is the meter written the plain way, one request at a
time: validate the pixel, check the cache, charge the clock, then read one
pixel's flat key through `backend.currents`, logging each request as it
goes.  Against a fault-capable backend each physical probe runs the retry
policy on its own, one planned probe per attempt, and commits a stall by
its own rule (within the timeout), not by what the plan read.  Hypothesis
draws request sequences (repeats within and across batches, and for flaky
backends the retry policy) and every one must leave both meters with equal
values, clock, probe and request counts, cache hits, measured image, probe
mask, probed pixels in first-probe order, fault counters and breaker
state, and raise the same errors.

The second half of this file reads the meter mid-run and after `reset()`,
and mutates what a caller got back or passed in, against the reference's
eagerly built request list.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import (
    CircuitBreakerOpenError,
    InstrumentFault,
    MeasurementError,
    ProbeTimeoutError,
)
from repro.faults import FaultyBackend, ProbeHangFault, TransientReadFault
from repro.instrument import (
    ChargeSensorMeter,
    DatasetBackend,
    DeviceBackend,
    MeasurementBackend,
    ProbeRetryPolicy,
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


def flaky_backend(error_rate, hang_rate, hang_s) -> FaultyBackend:
    return FaultyBackend(
        static_device_backend(),
        (TransientReadFault(rate=error_rate), ProbeHangFault(rate=hang_rate, hang_s=hang_s)),
        seed=7,
    )


BACKENDS = {
    "dataset": dataset_backend,
    "static-device": static_device_backend,
    "drifting-device": drifting_device_backend,
    "fault-wrapped": fault_wrapped_backend,
}


class ReferenceMeter:
    """The meter's accounting, one request at a time, logged eagerly.

    Against a backend with ``plan_batch`` each physical probe runs the retry
    policy on its own: charge a probe and plan that one probe at its
    timestamp; commit it when it reads cleanly or stalls within the timeout
    (waiting the stall out); otherwise count the failed attempt (an
    over-timeout stall charges the timeout too), back off and try again.
    ``breaker_failures`` consecutive failures open the breaker, which then
    refuses every physical probe; a probe out of attempts raises its last
    error.
    """

    def __init__(self, backend, retry=None):
        self.backend = backend
        self.clock = VirtualClock(TIMING)
        self.retry = retry or ProbeRetryPolicy.no_retry()
        self.reset()

    def reset(self):
        self.measured = np.zeros(self.backend.shape, dtype=bool)
        self.values = np.zeros(self.backend.shape)
        self.n_probes = 0
        self.clock.reset()
        self.log: list[tuple] = []
        self.n_probe_retries = 0
        self.n_fault_events = 0
        self.n_probes_exhausted = 0
        self.fault_delay_s = 0.0
        self.consecutive_failures = 0
        self.breaker_open = False

    def _read(self, row, col):
        """One physical probe's value; the clock ends at its completion."""
        keys = np.array([row * self.backend.shape[1] + col])
        if not hasattr(self.backend, "plan_batch"):
            self.clock.charge_probe()
            times = np.array([self.clock.elapsed_s])
            return float(self.backend.currents(keys, times)[0])
        if self.breaker_open:
            raise CircuitBreakerOpenError(
                "circuit breaker is open; reset() the meter to re-arm it"
            )
        policy = self.retry
        backoff = policy.backoff_s
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                self.n_probe_retries += 1
                self.clock.advance(backoff)
                self.fault_delay_s += backoff
                backoff *= policy.backoff_factor
            self.clock.charge_probe()
            times = np.array([self.clock.elapsed_s])
            plan = self.backend.plan_batch(keys, times, policy.timeout_s)
            disruption = plan.disruption
            if disruption is None:
                self.consecutive_failures = 0
                return float(plan.values[0])
            timeout_s = policy.timeout_s
            if disruption.error is None and (timeout_s is None or disruption.stall_s <= timeout_s):
                self.clock.advance(disruption.stall_s)
                self.fault_delay_s += disruption.stall_s
                self.consecutive_failures = 0
                return float(plan.values[0])
            self.n_fault_events += 1
            self.fault_delay_s += TIMING.cost_per_probe_s
            error = disruption.error
            if error is None:
                self.clock.advance(timeout_s)
                self.fault_delay_s += timeout_s
                error = ProbeTimeoutError(
                    f"probe ({row}, {col}) stalled {disruption.stall_s:.3f}s, "
                    f"over the {timeout_s:.3f}s timeout budget"
                )
            self.consecutive_failures += 1
            if policy.breaker_failures and self.consecutive_failures >= policy.breaker_failures:
                self.breaker_open = True
                raise CircuitBreakerOpenError(
                    f"circuit breaker open after {self.consecutive_failures} "
                    f"consecutive probe failures (last: {error})"
                )
        self.n_probes_exhausted += 1
        raise error

    def get_current(self, row, col):
        n_rows, n_cols = self.backend.shape
        if not (0 <= row < n_rows and 0 <= col < n_cols):
            raise MeasurementError(f"pixel ({row}, {col}) off the grid")
        vx = float(self.backend.x_voltages[col])
        vy = float(self.backend.y_voltages[row])
        if self.measured[row, col]:
            value = float(self.values[row, col])
            self.log.append((row, col, vx, vy, value, self.clock.elapsed_s, True))
            return value
        value = self._read(row, col)
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


def probed_pixel_list(meter: ChargeSensorMeter) -> list[tuple[int, int]]:
    rows, cols = meter.probed_pixels()
    return list(zip(rows.tolist(), cols.tolist()))


def assert_meters_match(meter: ChargeSensorMeter, reference: ReferenceMeter):
    assert meter.n_probes == reference.n_probes
    assert meter.n_requests == len(reference.log)
    assert meter.n_cache_hits == reference.n_cache_hits
    assert meter.elapsed_s == reference.clock.elapsed_s
    # The reference logs a request as measured only the first time its
    # pixel is probed, so its measured entries are the first-probe order.
    first_probes = [(row, col) for row, col, *_, cached in reference.log if not cached]
    assert probed_pixel_list(meter) == first_probes
    assert np.array_equal(meter.probe_mask(), reference.measured)
    expected_image = np.where(reference.measured, reference.values, np.nan)
    assert np.array_equal(meter.measured_image(), expected_image, equal_nan=True)
    assert meter.n_probe_retries == reference.n_probe_retries
    assert meter.n_fault_events == reference.n_fault_events
    assert meter.n_probes_exhausted == reference.n_probes_exhausted
    assert meter.fault_delay_s == reference.fault_delay_s
    assert meter.breaker_open == reference.breaker_open


def run_both(meter, reference, batches):
    """Send each batch to both meters; their errors must coincide.

    An instrument fault is raised by both, with the same type and message.  Pixels are wrapped onto the meter's grid.  Returns
    each batch's outcome: its values, or the error's ``(type, message)``.
    """
    n_rows, n_cols = meter.shape
    outcomes = []
    for batch in batches:
        rows = np.array([pixel[0] % n_rows for pixel in batch], dtype=np.int64)
        cols = np.array([pixel[1] % n_cols for pixel in batch], dtype=np.int64)
        outcome = []
        for measure in (meter.get_currents, reference.get_currents):
            try:
                outcome.append(measure(rows, cols))
            except InstrumentFault as exc:
                outcome.append((type(exc), str(exc)))
        if isinstance(outcome[0], tuple) or isinstance(outcome[1], tuple):
            assert outcome[0] == outcome[1]
        else:
            assert np.array_equal(outcome[0], outcome[1])
        outcomes.append(outcome[0])
    return outcomes


# A small window makes repeats within and across batches common; the
# whole grid keeps far pixels in play.
pixels = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.integers(0, GRID - 1), st.integers(0, GRID - 1)),
)
batches = st.lists(st.lists(pixels, max_size=14), min_size=1, max_size=6)
retry_policies = st.one_of(
    st.none(),
    st.just(ProbeRetryPolicy.no_retry()),
    st.builds(
        ProbeRetryPolicy,
        max_attempts=st.integers(1, 5),
        backoff_s=st.sampled_from([0.0, 0.02, 0.3]),
        backoff_factor=st.sampled_from([1.0, 1.5, 2.0]),
        timeout_s=st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 1.2, 4.0])),
        breaker_failures=st.integers(0, 6),
    ),
)
# ``flaky_backend`` arguments: against the drawn timeouts, hangs of 0.4-3 s
# stall within, exactly at and over the budget.
flaky_faults = st.tuples(
    st.sampled_from([0.1, 0.3, 0.6]),
    st.sampled_from([0.1, 0.3]),
    st.sampled_from([0.4, 1.0, 3.0]),
)


class TestAgainstReferenceMeter:
    @pytest.mark.parametrize("kind", sorted(BACKENDS))
    @settings(max_examples=60, deadline=None)
    @given(batches=batches)
    def test_request_sequences(self, kind, batches):
        make = BACKENDS[kind]
        meter = ChargeSensorMeter(make(), clock=VirtualClock(TIMING))
        reference = ReferenceMeter(make())
        run_both(meter, reference, batches)
        assert_meters_match(meter, reference)

    @settings(max_examples=150, deadline=None)
    @given(faults=flaky_faults, retry=retry_policies, batches=batches)
    def test_flaky_request_sequences(self, faults, retry, batches):
        meter = ChargeSensorMeter(
            flaky_backend(*faults), clock=VirtualClock(TIMING), retry=retry
        )
        reference = ReferenceMeter(flaky_backend(*faults), retry=retry)
        run_both(meter, reference, batches)
        assert_meters_match(meter, reference)

    @pytest.mark.parametrize(
        "faults, retry, error",
        [
            (
                (0.3, 0.2, 1.0),
                # Every stall lasts exactly the timeout, so it is waited out.
                ProbeRetryPolicy(max_attempts=8, backoff_s=0.05, timeout_s=1.0),
                None,
            ),
            (
                (0.0, 0.3, 1.0),
                ProbeRetryPolicy(max_attempts=3, timeout_s=0.5, breaker_failures=0),
                ProbeTimeoutError,
            ),
            (
                (0.6, 0.0, 1.0),
                ProbeRetryPolicy(max_attempts=4, breaker_failures=3),
                CircuitBreakerOpenError,
            ),
        ],
        ids=["rides-out", "times-out", "breaker"],
    )
    def test_flaky_full_grid_scan(self, faults, retry, error):
        meter = ChargeSensorMeter(flaky_backend(*faults), clock=VirtualClock(TIMING), retry=retry)
        reference = ReferenceMeter(flaky_backend(*faults), retry=retry)
        n_pixels = meter.backend.n_pixels
        rows, cols = np.divmod(np.arange(n_pixels), meter.shape[1])
        (outcome,) = run_both(meter, reference, [list(zip(rows, cols))])
        assert_meters_match(meter, reference)
        assert meter.n_probe_retries > 0
        if error is None:
            assert meter.n_probes == n_pixels
        else:
            assert outcome[0] is error

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

    def test_backend_implementing_only_currents(self):
        class ReplayOnly(MeasurementBackend):
            x_voltages = CSD.x_voltages
            y_voltages = CSD.y_voltages

            def currents(self, keys, times_s=None):
                return CSD.data.take(self.validate_keys(keys)).astype(float)

        meter = ChargeSensorMeter(ReplayOnly())
        assert meter.get_current(2, 3) == CSD.data[2, 3]
        assert np.array_equal(meter.get_currents([4, 2], [1, 3]), CSD.data[[4, 2], [1, 3]])
        with pytest.raises(MeasurementError, match="outside"):
            meter.get_current(GRID, 0)
        with pytest.raises(NotImplementedError):
            MeasurementBackend().currents([0])


class TestMeterReads:
    def _pair(self):
        meter = ChargeSensorMeter(dataset_backend(), clock=VirtualClock(TIMING))
        return meter, ReferenceMeter(dataset_backend())

    def test_reads_mid_run_and_after_reset(self):
        meter, reference = self._pair()
        script = [[(1, 1), (2, 2), (1, 1)], [(2, 2), (3, 3)], [(0, 5), (0, 5), (0, 5)]]
        for batch in script:
            run_both(meter, reference, [batch])
            assert_meters_match(meter, reference)
        mask, (rows, cols) = meter.probe_mask(), meter.probed_pixels()
        meter.reset()
        reference.reset()
        assert (meter.n_requests, meter.n_cache_hits, probed_pixel_list(meter)) == (0, 0, [])
        assert_meters_match(meter, reference)
        for batch in reversed(script):
            run_both(meter, reference, [batch])
            assert_meters_match(meter, reference)
        # What the meter handed out before reset() still reads what it held.
        assert list(zip(rows.tolist(), cols.tolist())) == [(1, 1), (2, 2), (3, 3), (0, 5)]
        assert np.array_equal(np.argwhere(mask), [(0, 5), (1, 1), (2, 2), (3, 3)])

    def test_caller_mutations_do_not_reach_the_meter(self):
        meter, reference = self._pair()
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
