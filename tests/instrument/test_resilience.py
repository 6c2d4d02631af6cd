"""Tests for the probe retry policy and the meter's one fault loop.

`tests/instrument/test_reference_meter.py` checks the same loop against an
independent per-probe reference; the tests here pin its named behaviours.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    CircuitBreakerOpenError,
    ConfigurationError,
    InstrumentFault,
    ProbeTimeoutError,
    TransientReadError,
)
from repro.faults import BatchPlan, ProbeDisruption, ProbeHangFault, TransientReadFault
from repro.instrument import (
    ChargeSensorMeter,
    DatasetBackend,
    ProbeRetryPolicy,
    SessionFactory,
)
from repro.physics import ChargeStabilityDiagram
from repro.scenarios import DeviceSpec


def _session(faults, probe_retry, seed=7, resolution=16):
    device = DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)).build()
    return SessionFactory(
        device, resolution=resolution, faults=faults, probe_retry=probe_retry
    ).make(seed=seed)


class TestProbeRetryPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_s": -0.1},
            {"backoff_factor": 0.5},
            {"timeout_s": -1.0},
            {"breaker_failures": -1},
            {"backoff_s": float("nan")},
            {"backoff_s": float("inf")},
            {"backoff_factor": float("nan")},
            {"backoff_factor": float("inf")},
            {"timeout_s": float("nan")},
            {"timeout_s": np.float64("nan")},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ProbeRetryPolicy(**kwargs)

    def test_infinite_timeout_tolerates_every_stall_like_none(self):
        hang = ProbeHangFault(rate=1.0, hang_s=5.0)
        unbounded = _session(faults=hang, probe_retry=ProbeRetryPolicy(timeout_s=float("inf")))
        untimed = _session(faults=hang, probe_retry=ProbeRetryPolicy(timeout_s=None))
        for session in (unbounded, untimed):
            session.meter.get_currents([0, 1, 2], [0, 1, 2])
        assert unbounded.meter.elapsed_s == untimed.meter.elapsed_s
        assert unbounded.meter.fault_delay_s == untimed.meter.fault_delay_s == 15.0
        assert unbounded.meter.n_fault_events == 0

    def test_no_retry_fails_on_first_fault(self):
        policy = ProbeRetryPolicy.no_retry()
        assert policy.max_attempts == 1
        assert policy.breaker_failures == 0

    def test_defaults_are_simulated_time_only(self):
        policy = ProbeRetryPolicy()
        assert policy.backoff_s == 0.0
        assert policy.timeout_s is None


class TestRetryLoop:
    def test_retries_ride_out_transient_errors(self):
        session = _session(
            faults=TransientReadFault(rate=0.25),
            probe_retry=ProbeRetryPolicy(max_attempts=8, breaker_failures=0),
            resolution=24,
        )
        image = session.meter.acquire_full_grid()
        assert np.isfinite(image).all()
        assert session.meter.n_probe_retries > 0
        assert session.meter.n_fault_events == session.meter.n_probe_retries
        assert session.meter.n_probes_exhausted == 0

    def test_exhausted_attempts_raise_the_last_typed_error(self):
        session = _session(
            faults=TransientReadFault(rate=1.0),
            probe_retry=ProbeRetryPolicy(max_attempts=3, breaker_failures=0),
        )
        with pytest.raises(TransientReadError, match="injected"):
            session.meter.get_current(0, 0)
        meter = session.meter
        assert meter.n_probes_exhausted == 1
        assert meter.n_probe_retries == 2
        assert meter.n_fault_events == 3
        # Every attempt failed, so all elapsed time was fault time.
        assert meter.elapsed_s == pytest.approx(meter.fault_delay_s)

    def test_backoff_is_charged_to_the_virtual_clock(self):
        def elapsed_after_failure(backoff_s):
            session = _session(
                faults=TransientReadFault(rate=1.0),
                probe_retry=ProbeRetryPolicy(
                    max_attempts=3,
                    backoff_s=backoff_s,
                    backoff_factor=2.0,
                    breaker_failures=0,
                ),
            )
            with pytest.raises(InstrumentFault):
                session.meter.get_current(0, 0)
            return session.meter.elapsed_s

        # Two retries back off 0.5 s then 1.0 s; everything else is equal.
        assert elapsed_after_failure(0.5) - elapsed_after_failure(0.0) == (
            pytest.approx(1.5)
        )

    def test_probe_timeout_budget(self):
        session = _session(
            faults=ProbeHangFault(rate=1.0, hang_s=5.0),
            probe_retry=ProbeRetryPolicy(
                max_attempts=2, timeout_s=1.0, breaker_failures=0
            ),
        )
        with pytest.raises(ProbeTimeoutError, match="timeout budget"):
            session.meter.get_current(0, 0)
        assert session.meter.n_fault_events == 2

    def test_tolerated_stall_advances_the_clock(self):
        hang = ProbeHangFault(rate=1.0, hang_s=5.0)
        stalled = _session(faults=hang, probe_retry=ProbeRetryPolicy())
        clean = _session(faults=None, probe_retry=None)
        value = stalled.meter.get_current(0, 0)
        assert value == clean.meter.get_current(0, 0)
        # No timeout budget: the hang is waited out, not retried.
        assert stalled.meter.n_probe_retries == 0
        assert stalled.meter.n_fault_events == 0
        assert stalled.meter.fault_delay_s == pytest.approx(5.0)
        assert stalled.meter.elapsed_s == pytest.approx(
            clean.meter.elapsed_s + 5.0
        )


class TestCircuitBreaker:
    def _failing_session(self):
        return _session(
            faults=TransientReadFault(rate=1.0),
            probe_retry=ProbeRetryPolicy(max_attempts=1, breaker_failures=3),
        )

    def test_breaker_opens_after_consecutive_failures(self):
        session = self._failing_session()
        meter = session.meter
        for _ in range(2):
            with pytest.raises(TransientReadError):
                meter.get_current(0, 0)
        assert not meter.breaker_open
        with pytest.raises(CircuitBreakerOpenError, match="3 consecutive"):
            meter.get_current(0, 0)
        assert meter.breaker_open

    def test_open_breaker_short_circuits_probes(self):
        session = self._failing_session()
        meter = session.meter
        for _ in range(3):
            with pytest.raises(InstrumentFault):
                meter.get_current(0, 0)
        elapsed = meter.elapsed_s
        with pytest.raises(CircuitBreakerOpenError, match="reset"):
            meter.get_current(0, 1)
        # Short-circuited: the backend was never touched, no time charged.
        assert meter.elapsed_s == elapsed

    def test_reset_rearms_the_breaker(self):
        session = self._failing_session()
        meter = session.meter
        for _ in range(3):
            with pytest.raises(InstrumentFault):
                meter.get_current(0, 0)
        assert meter.breaker_open
        meter.reset()
        assert not meter.breaker_open
        assert meter.n_probe_retries == 0
        assert meter.n_fault_events == 0
        # Probing works again (and fails honestly, not via the breaker).
        with pytest.raises(TransientReadError):
            meter.get_current(0, 0)

    def test_success_resets_the_consecutive_count(self):
        session = _session(
            faults=TransientReadFault(rate=0.15),
            probe_retry=ProbeRetryPolicy(max_attempts=10, breaker_failures=6),
            resolution=24,
            seed=3,
        )
        image = session.meter.acquire_full_grid()
        assert np.isfinite(image).all()
        assert session.meter.n_fault_events >= 4
        assert not session.meter.breaker_open


class _FailsColumnZero(DatasetBackend):
    """A scripted fault-capable backend: every read in column 0 fails."""

    def __init__(self, error_type=TransientReadError) -> None:
        axis = np.linspace(0.0, 1.0, 4)
        super().__init__(
            ChargeStabilityDiagram(data=np.ones((4, 4)), x_voltages=axis, y_voltages=axis)
        )
        self.error_type = error_type

    def plan_batch(self, keys, times_s, timeout_s) -> BatchPlan:
        failing = np.flatnonzero(np.asarray(keys) % 4 == 0)
        if failing.size == 0:
            return BatchPlan(values=self.currents(keys))
        # As the contract says: values only for the probes before the error.
        index = int(failing[0])
        error = self.error_type("scripted read failure in column 0")
        return BatchPlan(
            values=self.currents(keys[:index]),
            disruption=ProbeDisruption(index=index, error=error),
        )


class TestFailedBatchCommitsItsPrefix:
    @pytest.mark.parametrize("error_type", [TransientReadError, RuntimeError])
    def test_probes_before_the_failure_commit(self, error_type):
        # Whatever the planned error's type, the probes the batch paid for
        # before the probe that ran out of attempts are measured and cached.
        meter = ChargeSensorMeter(
            _FailsColumnZero(error_type),
            retry=ProbeRetryPolicy(max_attempts=2, breaker_failures=0),
        )
        with pytest.raises(error_type, match="column 0"):
            meter.get_currents([1, 2, 3, 3], [1, 2, 0, 1])
        assert meter.n_probes == meter.n_requests == 2
        assert meter.n_cache_hits == 0
        assert [axis.tolist() for axis in meter.probed_pixels()] == [[1, 2], [1, 2]]
        assert meter.n_fault_events == 2
        assert meter.n_probes_exhausted == 1

    def test_requests_after_the_failure_stay_unmeasured(self):
        # The batch stops at its first uncommitted probe, (3, 0): the repeat
        # of (1, 1) before it commits as a cache hit, and (2, 2) after it
        # stays unmeasured until a later request pays for it.
        meter = ChargeSensorMeter(
            _FailsColumnZero(),
            retry=ProbeRetryPolicy(max_attempts=1, breaker_failures=0),
        )
        with pytest.raises(TransientReadError, match="column 0"):
            meter.get_currents([1, 2, 1, 3, 2], [1, 1, 1, 0, 2])
        assert (meter.n_probes, meter.n_requests, meter.n_cache_hits) == (2, 3, 1)
        assert [axis.tolist() for axis in meter.probed_pixels()] == [[1, 2], [1, 1]]
        assert np.isnan(meter.measured_image()[[2, 3], [2, 0]]).all()
        assert np.array_equal(meter.get_currents([1, 2], [1, 2]), [1.0, 1.0])
        assert (meter.n_probes, meter.n_requests, meter.n_cache_hits) == (3, 5, 2)
        assert [axis.tolist() for axis in meter.probed_pixels()] == [[1, 2, 2], [1, 1, 2]]

    def test_a_batch_failing_at_its_first_probe_commits_only_hits(self):
        # (1, 1) is cached; the batch's first probe, (2, 0), runs out of
        # attempts, so only the hit before it commits and nothing is probed.
        meter = ChargeSensorMeter(
            _FailsColumnZero(),
            retry=ProbeRetryPolicy(max_attempts=2, breaker_failures=0),
        )
        meter.get_current(1, 1)
        with pytest.raises(TransientReadError):
            meter.get_currents([1, 2, 1, 3], [1, 0, 1, 3])
        assert (meter.n_probes, meter.n_requests, meter.n_cache_hits) == (1, 2, 1)
        assert [axis.tolist() for axis in meter.probed_pixels()] == [[1], [1]]
        assert meter.probe_mask().sum() == 1

    def test_an_open_breaker_commits_the_hits_before_the_first_probe(self):
        meter = ChargeSensorMeter(
            _FailsColumnZero(),
            retry=ProbeRetryPolicy(max_attempts=1, breaker_failures=1),
        )
        meter.get_current(1, 1)
        with pytest.raises(CircuitBreakerOpenError, match="after 1 consecutive"):
            meter.get_current(2, 0)
        with pytest.raises(CircuitBreakerOpenError, match="is open"):
            meter.get_currents([1, 1, 3, 1], [1, 1, 3, 1])
        assert (meter.n_probes, meter.n_requests, meter.n_cache_hits) == (1, 3, 2)
        assert [axis.tolist() for axis in meter.probed_pixels()] == [[1], [1]]


class TestBreakerOnBothProbePaths:
    """A clean read resets the breaker count and an open breaker refuses the
    next read, whether it comes as ``get_current`` or as a one-pixel
    ``get_currents`` batch."""

    PIXELS = ((0, 0), (0, 1), (1, 0), (2, 0), (2, 1))
    EXPECTED = (
        TransientReadError,
        None,
        TransientReadError,
        CircuitBreakerOpenError,
        CircuitBreakerOpenError,
    )

    @pytest.mark.parametrize("batched", [False, True])
    def test_outcome_sequence(self, batched):
        meter = ChargeSensorMeter(
            _FailsColumnZero(),
            retry=ProbeRetryPolicy(max_attempts=1, breaker_failures=2),
        )
        outcomes = []
        for row, col in self.PIXELS:
            try:
                if batched:
                    meter.get_currents([row], [col])
                else:
                    meter.get_current(row, col)
            except InstrumentFault as exc:
                outcomes.append(type(exc))
            else:
                outcomes.append(None)
        assert tuple(outcomes) == self.EXPECTED
        assert meter.n_probes == 1
        assert meter.n_fault_events == 3
