"""Tests for the drift-aware retuning mode of the auto-tuning workflow."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ExtractionError, TransientReadError
from repro.faults import TransientReadFault
from repro.instrument import (
    ChargeSensorMeter,
    DatasetBackend,
    ProbeRetryPolicy,
    SessionFactory,
    TimingModel,
)
from repro.physics import ChargeStabilityDiagram, DeviceDrift, WhiteNoise
from repro.pipeline import AutoTuningWorkflow
from repro.scenarios import get_scenario

RESOLUTION = 48


@pytest.fixture(scope="module")
def drifting_outcome():
    """One retuning run on a fast-drifting sensor, shared across asserts."""
    # 30 mV/h: over a 1800 s idle the operating point moves 15 mV, which is
    # 3 mV modulo the sensor's 4 mV peak spacing — a large, *visible* shift.
    # (A rate whose per-idle drift is a multiple of the spacing would wrap
    # back onto the original flank and hide.)
    factory = SessionFactory(
        get_scenario("drifting_sensor").build_device(),
        resolution=RESOLUTION,
        noise=WhiteNoise(sigma_na=0.01),
        drift=DeviceDrift(operating_point_mv_per_hour=30.0),
        time_dependent_noise=True,
    )
    return AutoTuningWorkflow(factory, seed=11).run_with_retuning(
        idle_time_s=1800.0, n_cycles=2, staleness_threshold_na=0.08
    )


class TestDriftTriggersRetunes:
    def test_initial_extraction_succeeds(self, drifting_outcome):
        assert drifting_outcome.initial.success

    def test_every_idle_period_detects_staleness(self, drifting_outcome):
        # 30 mV/h over 30 idle minutes moves the sensor ~15 mV — far past
        # any sane threshold, so every check must flag stale and retune.
        assert len(drifting_outcome.cycles) == 2
        for cycle in drifting_outcome.cycles:
            assert cycle.check.stale
            assert cycle.retuned
        assert drifting_outcome.n_retunes == 2

    def test_timeline_is_continuous(self, drifting_outcome):
        checks = [cycle.check.checked_at_s for cycle in drifting_outcome.cycles]
        assert checks == sorted(checks)
        assert checks[0] >= 1800.0
        assert drifting_outcome.final_elapsed_s >= checks[-1]

    def test_final_extraction_is_the_last_retune(self, drifting_outcome):
        assert (
            drifting_outcome.final_extraction
            is drifting_outcome.cycles[-1].extraction
        )

    def test_stage_elapsed_is_not_the_absolute_timeline(self, drifting_outcome):
        """Regression: extractions on the shared clock used to report the
        absolute timeline age as their elapsed_s, double-counting the window
        search (and, for retunes, every idle period before them)."""
        initial = drifting_outcome.initial
        window_s = initial.window_search.elapsed_s
        extraction_s = initial.extraction.probe_stats.elapsed_s
        # An extraction costs its own probes' dwell time, which is far less
        # than the idle periods that precede the retunes.
        assert extraction_s < 1800.0
        assert initial.total_elapsed_s == pytest.approx(window_s + extraction_s)
        for cycle in drifting_outcome.cycles:
            assert cycle.extraction.probe_stats.elapsed_s < 1800.0

    def test_probe_accounting_includes_checks(self, drifting_outcome):
        expected = drifting_outcome.initial.total_probes
        for cycle in drifting_outcome.cycles:
            expected += cycle.check.n_check_pixels
            expected += cycle.extraction.probe_stats.n_probes
        assert drifting_outcome.total_probes == expected

    def test_summary_is_flat_and_complete(self, drifting_outcome):
        summary = drifting_outcome.summary()
        assert summary["n_retunes"] == 2
        assert summary["final_success"] == drifting_outcome.final_extraction.success
        assert summary["total_probes"] == drifting_outcome.total_probes


class TestStableDeviceStaysFresh:
    def test_no_retunes_without_drift(self):
        factory = SessionFactory(
            get_scenario("quiet_lab").build_device(),
            resolution=RESOLUTION,
            noise=WhiteNoise(sigma_na=0.005),
            time_dependent_noise=True,
        )
        outcome = AutoTuningWorkflow(factory, seed=11).run_with_retuning(
            idle_time_s=1800.0, n_cycles=2, staleness_threshold_na=0.08
        )
        assert outcome.n_retunes == 0
        for cycle in outcome.cycles:
            assert not cycle.check.stale
            assert cycle.extraction is None
        # A fresh device keeps its original matrix.
        assert outcome.final_extraction is outcome.initial.extraction
        # Checks are cheap: a handful of probes, not a rescan.
        check_probes = sum(c.check.n_check_pixels for c in outcome.cycles)
        assert check_probes <= 2 * 16


class TestStalenessCheckCost:
    """A check's reference pixels are distinct measured pixels, so the fresh
    meter it runs on pays one dwell for each, and ``total_probes`` may count
    ``n_check_pixels`` as probes."""

    @pytest.mark.parametrize(
        "n_check_pixels", [16, 10**5], ids=["default", "more-than-measured"]
    )
    def test_each_reference_pixel_is_one_probe(self, n_check_pixels):
        factory = SessionFactory(
            get_scenario("quiet_lab").build_device(),
            resolution=32,
            timing=TimingModel(dwell_time_s=0.25),
        )
        outcome = AutoTuningWorkflow(factory, seed=1).run_with_retuning(
            idle_time_s=60.0, n_cycles=1, n_check_pixels=n_check_pixels
        )
        (cycle,) = outcome.cycles
        n_checked = cycle.check.n_check_pixels
        assert n_checked == min(n_check_pixels, outcome.initial.extraction.probe_stats.n_probes)
        (telemetry,) = [t for t in cycle.stage_telemetry if t.stage == "staleness-check"]
        assert (telemetry.n_probes, telemetry.n_requests, telemetry.cache_hits) == (
            n_checked,
            n_checked,
            0,
        )
        assert telemetry.sim_elapsed_s == pytest.approx(0.25 * n_checked)


class TestStalenessReferences:
    """A check's reference pixels are an even sample of the extraction
    meter's probed pixels, in first-probe order, with the values it read."""

    @staticmethod
    def _meter():
        axis = np.linspace(0.0, 1.0, 6)
        data = np.arange(36.0).reshape(6, 6)
        csd = ChargeStabilityDiagram(data=data, x_voltages=axis, y_voltages=axis)
        return ChargeSensorMeter(DatasetBackend(csd))

    def test_evenly_spaced_in_first_probe_order(self):
        meter = self._meter()
        meter.get_currents([5, 1, 5, 3, 2, 4], [0, 1, 0, 3, 2, 4])
        # Probe order (5, 0), (1, 1), (3, 3), (2, 2), (4, 4): take 0, 2, 4.
        rows, cols, values = AutoTuningWorkflow._reference_pixels(meter, 3)
        assert (rows.tolist(), cols.tolist()) == ([5, 3, 4], [0, 3, 4])
        assert values.tolist() == [30.0, 21.0, 28.0]

    def test_a_meter_that_probed_nothing_is_refused(self):
        meter = self._meter()
        with pytest.raises(ExtractionError, match="no measured pixels"):
            AutoTuningWorkflow._reference_pixels(meter, 16)


class TestFactoryFaultsReachTheWorkflow:
    """The factory's faults and retry policy reach every grid the workflow
    opens: the coarse scan, the fine extraction and the retuning meters."""

    @staticmethod
    def _factory(**kwargs):
        device = get_scenario("quiet_lab").build_device()
        return SessionFactory(device, resolution=32, **kwargs)

    def test_unretried_faults_fail_the_coarse_scan(self):
        factory = self._factory(faults=TransientReadFault(rate=1.0))
        with pytest.raises(TransientReadError):
            AutoTuningWorkflow(factory, seed=1).run()

    def test_a_scenario_factory_carries_its_faults(self):
        scenario = dataclasses.replace(
            get_scenario("quiet_lab"), faults=TransientReadFault(rate=1.0)
        )
        workflow = AutoTuningWorkflow(scenario.session_factory(resolution=32), seed=1)
        with pytest.raises(TransientReadError):
            workflow.run()

    def test_retried_faults_cost_time_in_both_stages(self):
        clean = AutoTuningWorkflow(self._factory(), seed=4).run()
        faulty = AutoTuningWorkflow(
            self._factory(faults="transient-reads", probe_retry=ProbeRetryPolicy()),
            seed=4,
        ).run()
        assert faulty.window_search.n_probes == clean.window_search.n_probes
        assert faulty.window_search.elapsed_s > clean.window_search.elapsed_s
        assert (
            faulty.extraction.probe_stats.elapsed_s
            > clean.extraction.probe_stats.elapsed_s
        )

    def test_retuning_meters_take_the_session_retry_policy(self):
        # Reads fail at rate 0.05.  The extraction and staleness meters are
        # built on the session's backend; without the session meter's policy
        # the first fault in an extraction or a check would raise.
        factory = self._factory(
            faults="transient-reads", probe_retry=ProbeRetryPolicy(max_attempts=8)
        )
        outcome = AutoTuningWorkflow(factory, seed=4).run_with_retuning(
            idle_time_s=60.0, n_cycles=2
        )
        clean = AutoTuningWorkflow(self._factory(), seed=4).run_with_retuning(
            idle_time_s=60.0, n_cycles=2
        )
        assert outcome.initial.success
        assert outcome.final_elapsed_s > clean.final_elapsed_s


class TestParameterValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"idle_time_s": -1.0},
            {"n_cycles": 0},
            {"staleness_threshold_na": 0.0},
            {"n_check_pixels": 0},
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        factory = get_scenario("quiet_lab").session_factory(resolution=RESOLUTION)
        with pytest.raises(ExtractionError):
            AutoTuningWorkflow(factory, seed=1).run_with_retuning(**kwargs)
