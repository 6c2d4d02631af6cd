"""Tests for FaultyBackend: planning, identity guarantees, delegation."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, MeasurementError, TransientReadError
from repro.faults import (
    FaultyBackend,
    ProbeHangFault,
    TransientReadFault,
    WorkerCrashFault,
    probe_fault_models,
)
from repro.instrument import DeviceBackend, ProbeRetryPolicy, SessionFactory
from repro.kernelcache import configure_kernel_cache
from repro.physics import DotArrayDevice
from repro.scenarios import DeviceSpec

RETRY = ProbeRetryPolicy(max_attempts=5, backoff_s=0.1, timeout_s=3.0)


def _device():
    return DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)).build()


def _session(faults=None, probe_retry=None, seed=7, resolution=24):
    return SessionFactory(
        _device(), resolution=resolution, faults=faults, probe_retry=probe_retry
    ).make(seed=seed)


@pytest.fixture
def kernel_cache_off():
    """The process-wide kernel cache switched off for one test."""
    configure_kernel_cache(enabled=False)
    try:
        yield
    finally:
        configure_kernel_cache(enabled=True)


@pytest.fixture
def backend_calls(monkeypatch):
    """Calls of ``FaultyBackend.plan_batch`` and ``DeviceBackend.currents``."""
    calls = Counter()

    def count(cls, name):
        original = getattr(cls, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    count(FaultyBackend, "plan_batch")
    count(DeviceBackend, "currents")
    return calls


@pytest.fixture
def solved_points(monkeypatch):
    """Points solved by ``DotArrayDevice.sensor_currents``, one entry per call."""
    sizes: list[int] = []
    original = DotArrayDevice.sensor_currents

    def counted(self, points, *args, **kwargs):
        sizes.append(len(points))
        return original(self, points, *args, **kwargs)

    monkeypatch.setattr(DotArrayDevice, "sensor_currents", counted)
    return sizes


class TestFaultyBackendSurface:
    def test_rejects_worker_scope_models(self):
        inner = _session().meter.backend
        with pytest.raises(ConfigurationError, match="worker-scope"):
            FaultyBackend(inner, (WorkerCrashFault(rate=0.5),), seed=7)

    def test_probe_fault_models_filters_scope(self):
        models = (TransientReadFault(), WorkerCrashFault())
        assert probe_fault_models(models) == (models[0],)

    def test_delegates_inner_attributes(self):
        session = _session(faults="transient-reads", probe_retry=RETRY)
        backend = session.meter.backend
        assert isinstance(backend, FaultyBackend)
        assert backend.gate_x_name == backend.inner.gate_x_name
        assert backend.gate_y_name == backend.inner.gate_y_name
        assert backend.n_pixels == backend.inner.n_pixels
        with pytest.raises(AttributeError):
            backend.does_not_exist

    def test_is_always_time_dependent(self):
        session = _session(faults=TransientReadFault(rate=0.0), probe_retry=RETRY)
        assert session.meter.backend.is_time_dependent

    def test_plan_batch_is_pure(self):
        session = _session(faults="flaky-lab", probe_retry=RETRY)
        backend = session.meter.backend
        keys = np.arange(10) * 25
        times = np.linspace(0.03, 40.0, 10)
        first = backend.plan_batch(keys, times, RETRY.timeout_s)
        second = backend.plan_batch(keys, times, RETRY.timeout_s)
        np.testing.assert_array_equal(first.values, second.values)
        assert (first.disruption is None) == (second.disruption is None)
        if first.disruption is not None:
            assert first.disruption.index == second.disruption.index
            assert first.disruption.stall_s == second.disruption.stall_s

    def test_direct_currents_raise_first_injected_error(self):
        session = _session(
            faults=TransientReadFault(rate=1.0),
            probe_retry=ProbeRetryPolicy.no_retry(),
        )
        backend = session.meter.backend
        with pytest.raises(TransientReadError, match="injected"):
            backend.currents(np.array([0, 25]), np.linspace(0.03, 0.06, 2))
        with pytest.raises(TransientReadError):
            backend.currents([0], [0.03])
        with pytest.raises(MeasurementError, match="timestamps"):
            backend.currents([0])

    @pytest.mark.parametrize(
        "faults",
        # At rate 1 the first probe errors, so a plan reads no probe at all.
        ["transient-reads", TransientReadFault(rate=1.0)],
        ids=["transient-reads", "every-read-fails"],
    )
    def test_direct_calls_validate_keys(self, faults):
        backend = _session(faults=faults, probe_retry=RETRY).meter.backend
        times = np.linspace(0.03, 0.06, 2)
        for keys, match in [
            ([0, 24 * 24], "outside"),
            ([-1, 0], "outside"),
            ([0.5, 1.5], "integers"),
        ]:
            with pytest.raises(MeasurementError, match=match):
                backend.currents(keys, times)
            with pytest.raises(MeasurementError, match=match):
                backend.plan_batch(np.array(keys), times, RETRY.timeout_s)
        with pytest.raises(MeasurementError, match="expected 3 probe timestamps"):
            backend.plan_batch(np.arange(3), times, RETRY.timeout_s)

    @pytest.mark.parametrize(
        "fault, timeout_s, n_values, stall_s",
        [
            (TransientReadFault(rate=0.0), 3.0, 4, None),
            (TransientReadFault(rate=1.0), 3.0, 0, 0.0),
            (ProbeHangFault(rate=1.0, hang_s=2.0), 3.0, 1, 2.0),
            (ProbeHangFault(rate=1.0, hang_s=3.0), 3.0, 1, 3.0),
            (ProbeHangFault(rate=1.0, hang_s=5.0), None, 1, 5.0),
            (ProbeHangFault(rate=1.0, hang_s=5.0), 3.0, 0, 5.0),
        ],
        ids=[
            "clean",
            "error-first",
            "stall-first",
            "stall-at-timeout",
            "stall-no-timeout",
            "stall-over-timeout",
        ],
    )
    def test_plan_values_cover_only_committable_probes(
        self, fault, timeout_s, n_values, stall_s, solved_points, kernel_cache_off
    ):
        # An error's probe gets no value; a stall within the timeout (or
        # with none) lands late, so the meter keeps its value, and a longer
        # one is a failed attempt the plan does not read.  Nothing after the
        # disruption is read.
        backend = _session(faults=fault, probe_retry=RETRY).meter.backend
        times = np.linspace(0.03, 0.12, 4)
        keys = np.arange(4) * 25
        plan = backend.plan_batch(keys, times, timeout_s)
        assert plan.values.size == n_values
        assert sum(solved_points) == n_values
        if stall_s is None:
            assert plan.disruption is None
        else:
            assert plan.disruption.index == 0
            assert plan.disruption.stall_s == stall_s
            assert (plan.disruption.error is None) == (stall_s > 0)
        clean = _session().meter.backend
        np.testing.assert_array_equal(plan.values, clean.currents(keys[:n_values]))


class TestIdentityGuarantees:
    def test_rate_zero_faults_are_bit_identical_to_clean(self, backend_calls):
        clean = _session()
        clean_image = clean.meter.acquire_full_grid()
        assert backend_calls == {"currents": 1}
        zeroed = _session(
            faults=(TransientReadFault(rate=0.0), ProbeHangFault(rate=0.0)),
            probe_retry=RETRY,
        )
        backend_calls.clear()
        zeroed_image = zeroed.meter.acquire_full_grid()
        np.testing.assert_array_equal(clean_image, zeroed_image)
        assert clean.meter.elapsed_s == zeroed.meter.elapsed_s
        assert clean.meter.n_probes == zeroed.meter.n_probes
        assert zeroed.meter.n_probe_retries == 0
        assert zeroed.meter.n_fault_events == 0
        # Armed but silent, the wrapper plans the whole grid as one batch.
        assert backend_calls == {"plan_batch": 1, "currents": 1}

    def test_scalar_and_batched_paths_fail_identically(self):
        # One fault loop serves both: one full-grid batch must fail, retry
        # and read exactly like 576 one-pixel batches.
        batched = _session(faults="flaky-lab", probe_retry=RETRY)
        image = batched.meter.acquire_full_grid()
        scalar = _session(faults="flaky-lab", probe_retry=RETRY)
        n_rows, n_cols = scalar.meter.shape
        looped = np.array(
            [
                [scalar.meter.get_current(r, c) for c in range(n_cols)]
                for r in range(n_rows)
            ]
        )
        np.testing.assert_array_equal(image, looped)
        assert batched.meter.n_probe_retries == scalar.meter.n_probe_retries
        assert batched.meter.n_fault_events == scalar.meter.n_fault_events
        assert batched.meter.elapsed_s == scalar.meter.elapsed_s

    def test_same_seed_same_chaos(self):
        a = _session(faults="flaky-lab", probe_retry=RETRY, seed=13)
        b = _session(faults="flaky-lab", probe_retry=RETRY, seed=13)
        np.testing.assert_array_equal(
            a.meter.acquire_full_grid(), b.meter.acquire_full_grid()
        )
        assert a.meter.n_probe_retries == b.meter.n_probe_retries

    def test_faults_never_reshuffle_inner_noise(self):
        # The fault keys live on a reserved seed branch: wrapping must not
        # change the device's own noise/drift draws, so a fault session
        # that happens to see no events matches the clean session exactly.
        clean = _session(seed=5)
        faulty = _session(
            faults=TransientReadFault(rate=0.0), probe_retry=RETRY, seed=5
        )
        np.testing.assert_array_equal(
            clean.meter.acquire_full_grid(), faulty.meter.acquire_full_grid()
        )


class TestFaultPathWorkCounts:
    def test_flaky_lab_pays_per_fault_event_not_per_probe(
        self, backend_calls, solved_points, kernel_cache_off
    ):
        # A 63x63 full grid of the double dot, kernel cache off.  A clean
        # grid is one planned batch.  Here each plan covers every pending
        # probe: a tolerated stall is committed from the plan that found it,
        # an error is a failed attempt where the plan found it (never
        # re-planned at its own timestamp), and each retry plans the rest
        # of the grid, so 3,969 probes and 91 retries cost 115 plans.  A
        # plan reads the inner backend only for the probes the meter can
        # commit, and not at all when its first probe errors: 108 of them
        # read.
        session = _session(
            faults="flaky-lab",
            probe_retry=ProbeRetryPolicy(max_attempts=6, backoff_s=0.05, timeout_s=10.0),
            resolution=63,
        )
        session.meter.acquire_full_grid()
        meter = session.meter
        assert meter.n_probes == 3969
        assert backend_calls == {"plan_batch": 115, "currents": 108}
        # Each committed probe is solved once, the 23 tolerated stalls
        # included.  Re-planning those stalls in a per-probe retry loop
        # solved them twice (3,969 + 23); planning whole batches and reading
        # past the disruption solved 196,281 points.
        assert len(solved_points) == 108
        assert sum(solved_points) == 3969
        assert meter.n_fault_events == 91
        assert meter.n_probe_retries == 91
        assert meter.n_probes_exhausted == 0
        assert meter.fault_delay_s == pytest.approx(56.95, abs=1e-9)

    def test_over_timeout_stalls_are_not_read(self, solved_points, kernel_cache_off):
        # Every stall outlasts the 1 s timeout, so each is a failed attempt:
        # the plans read only the probes the meter commits, one solve each.
        session = _session(
            faults=ProbeHangFault(rate=0.3, hang_s=5.0),
            probe_retry=ProbeRetryPolicy(max_attempts=8, timeout_s=1.0, breaker_failures=0),
            seed=3,
        )
        meter = session.meter
        meter.acquire_full_grid()
        assert meter.n_probes == 576
        assert sum(solved_points) == meter.n_probes
        assert meter.n_fault_events == meter.n_probe_retries == 234
        assert meter.n_probes_exhausted == 0
        assert meter.elapsed_s == pytest.approx(274.5, abs=1e-9)
