"""Tests for the drift-aware retuning mode of the auto-tuning workflow."""

from __future__ import annotations

import dataclasses

import pytest

from repro.exceptions import ConfigurationError, ExtractionError
from repro.faults import TransientReadFault
from repro.physics import DeviceDrift, WhiteNoise
from repro.pipeline import AutoTuningWorkflow, FastVirtualGateExtractor
from repro.scenarios import get_scenario

RESOLUTION = 48


@pytest.fixture(scope="module")
def drifting_outcome():
    """One retuning run on a fast-drifting sensor, shared across asserts."""
    # 30 mV/h: over a 1800 s idle the operating point moves 15 mV, which is
    # 3 mV modulo the sensor's 4 mV peak spacing — a large, *visible* shift.
    # (A rate whose per-idle drift is a multiple of the spacing would wrap
    # back onto the original flank and hide.)
    workflow = AutoTuningWorkflow(
        resolution=RESOLUTION,
        noise=WhiteNoise(sigma_na=0.01),
        drift=DeviceDrift(operating_point_mv_per_hour=30.0),
        time_dependent_noise=True,
        seed=11,
    )
    device = get_scenario("drifting_sensor").build_device()
    return workflow.run_with_retuning(
        device, idle_time_s=1800.0, n_cycles=2, staleness_threshold_na=0.08
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
        workflow = AutoTuningWorkflow(
            resolution=RESOLUTION,
            noise=WhiteNoise(sigma_na=0.005),
            time_dependent_noise=True,
            seed=11,
        )
        device = get_scenario("quiet_lab").build_device()
        outcome = workflow.run_with_retuning(
            device, idle_time_s=1800.0, n_cycles=2, staleness_threshold_na=0.08
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


class TestForScenario:
    def test_accepts_names_and_instances(self):
        by_name = AutoTuningWorkflow.for_scenario("drifting_sensor", resolution=48)
        scenario = get_scenario("drifting_sensor")
        by_instance = AutoTuningWorkflow.for_scenario(scenario, resolution=48)
        for workflow in (by_name, by_instance):
            assert workflow._drift is scenario.drift
            assert workflow._noise is scenario.noise
            assert workflow._time_dependent_noise

    def test_plain_run_carries_the_environment(self):
        workflow = AutoTuningWorkflow.for_scenario(
            "drifting_sensor", resolution=48, seed=4
        )
        outcome = workflow.run(get_scenario("drifting_sensor").build_device())
        assert outcome.extraction.probe_stats.n_probes > 0

    def test_refuses_a_scenario_with_faults(self):
        # No probe path of the workflow applies faults, so a faulty lab
        # would silently tune as a clean one; the scenario's own session
        # applies them (every read fails at rate 1).
        scenario = dataclasses.replace(
            get_scenario("quiet_lab"), faults=TransientReadFault(rate=1.0)
        )
        with pytest.raises(ConfigurationError, match="open_session.*TuningCampaign"):
            AutoTuningWorkflow.for_scenario(scenario, resolution=32, seed=1)
        session = scenario.open_session(resolution=32, seed=1)
        assert not FastVirtualGateExtractor().extract(session).success


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
        workflow = AutoTuningWorkflow(resolution=RESOLUTION, seed=1)
        device = get_scenario("quiet_lab").build_device()
        with pytest.raises(ExtractionError):
            workflow.run_with_retuning(device, **kwargs)
