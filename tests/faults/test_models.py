"""Tests for the fault models and the named fault-condition registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, TransientReadError
from repro.faults import (
    DropoutFault,
    FaultModel,
    ProbeHangFault,
    StuckSensorFault,
    TransientReadFault,
    WorkerCrashFault,
    all_faults,
    fault_names,
    fault_uniforms,
    get_fault,
    models_for,
    register_fault,
)

KEY = np.uint64(0x1234_5678_9ABC_DEF0)
TIMES = np.linspace(0.05, 120.0, 400)


class TestDrawDeterminism:
    def test_fault_uniforms_are_pure(self):
        bits = np.arange(64, dtype=np.uint64)
        first = fault_uniforms(bits, KEY)
        second = fault_uniforms(bits, KEY)
        np.testing.assert_array_equal(first, second)
        assert np.all((first > 0.0) & (first < 1.0))

    def test_different_keys_decorrelate(self):
        bits = np.arange(256, dtype=np.uint64)
        a = fault_uniforms(bits, KEY)
        b = fault_uniforms(bits, np.uint64(7))
        assert not np.array_equal(a, b)

    def test_error_mask_depends_on_timestamp_not_call_shape(self):
        model = TransientReadFault(rate=0.3)
        batched = model.error_mask(TIMES, KEY)
        scalar = np.array(
            [model.error_mask(np.array([t]), KEY)[0] for t in TIMES]
        )
        np.testing.assert_array_equal(batched, scalar)

    def test_rate_zero_never_fires(self):
        assert not TransientReadFault(rate=0.0).error_mask(TIMES, KEY).any()
        assert not ProbeHangFault(rate=0.0).stall_s(TIMES, KEY).any()
        values = np.ones(TIMES.shape)
        np.testing.assert_array_equal(
            StuckSensorFault(rate=0.0).corrupt(values, TIMES, KEY), values
        )

    def test_rate_one_always_fires(self):
        assert TransientReadFault(rate=1.0).error_mask(TIMES, KEY).all()
        stalls = ProbeHangFault(rate=1.0, hang_s=2.5).stall_s(TIMES, KEY)
        np.testing.assert_array_equal(stalls, np.full(TIMES.shape, 2.5))


class TestModelSemantics:
    def test_base_model_is_a_no_op(self):
        model = FaultModel()
        values = np.arange(5.0)
        np.testing.assert_array_equal(model.corrupt(values, TIMES[:5], KEY), values)
        assert not model.error_mask(TIMES[:5], KEY).any()
        assert not model.stall_s(TIMES[:5], KEY).any()
        assert not model.crashes(3, KEY)
        assert isinstance(model.error_at(1.0), TransientReadError)

    def test_stuck_sensor_rails_whole_windows(self):
        model = StuckSensorFault(rate=0.5, window_s=10.0, rail_na=-1.0)
        values = np.ones(TIMES.shape)
        railed = model.corrupt(values, TIMES, KEY) == -1.0
        # Every probe inside one window shares its window's outcome.
        windows = np.floor(TIMES / model.window_s).astype(int)
        for window in np.unique(windows):
            outcomes = railed[windows == window]
            assert outcomes.all() or not outcomes.any()
        assert railed.any() and not railed.all()

    def test_dropouts_cluster_inside_bursts(self):
        model = DropoutFault(rate=0.3, burst_s=2.0, within_rate=1.0)
        mask = model.error_mask(TIMES, KEY)
        windows = np.floor(TIMES / model.burst_s).astype(np.uint64)
        burst = fault_uniforms(windows, KEY) < model.rate
        np.testing.assert_array_equal(mask, burst)

    def test_worker_crash_is_deterministic_per_job(self):
        model = WorkerCrashFault(rate=0.5)
        decisions = [model.crashes(job_id, KEY) for job_id in range(64)]
        assert decisions == [model.crashes(job_id, KEY) for job_id in range(64)]
        assert any(decisions) and not all(decisions)
        assert WorkerCrashFault.scope == "worker"
        assert TransientReadFault.scope == "probe"

    @pytest.mark.parametrize(
        "build",
        [
            lambda: TransientReadFault(rate=1.5),
            lambda: TransientReadFault(rate=-0.1),
            lambda: ProbeHangFault(hang_s=0.0),
            lambda: StuckSensorFault(window_s=-1.0),
            lambda: DropoutFault(burst_s=0.0),
            lambda: DropoutFault(within_rate=2.0),
            lambda: WorkerCrashFault(rate=7.0),
        ],
    )
    def test_invalid_parameters_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()


class TestRegistry:
    def test_builtin_conditions_registered(self):
        names = fault_names()
        for expected in (
            "transient-reads",
            "probe-hangs",
            "stuck-sensor",
            "dropout-bursts",
            "worker-crashes",
            "flaky-lab",
        ):
            assert expected in names
        assert all(
            isinstance(model, FaultModel)
            for models in all_faults().values()
            for model in models
        )

    def test_unknown_name_raises_naming_known(self):
        with pytest.raises(ConfigurationError, match="flaky-lab"):
            get_fault("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_fault("flaky-lab", TransientReadFault())

    def test_empty_condition_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one model"):
            register_fault("empty-condition", ())

    def test_non_model_entry_rejected(self):
        with pytest.raises(TypeError, match="non-FaultModel"):
            register_fault("bogus-condition", ("not a model",))

    def test_models_for_accepts_every_spec_shape(self):
        assert models_for(None) == ()
        assert models_for("flaky-lab") == get_fault("flaky-lab")
        single = TransientReadFault(rate=0.1)
        assert models_for(single) == (single,)
        mixed = models_for([single, "probe-hangs"])
        assert mixed == (single,) + get_fault("probe-hangs")
