"""Tests for the lab-scenario catalogue and registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignGrid, TuningCampaign
from repro.exceptions import ConfigurationError
from repro.physics import CompositeNoise, NoNoise, TelegraphNoise, WhiteNoise
from repro.pipeline import FastVirtualGateExtractor
from repro.scenarios import (
    DeviceSpec,
    LabScenario,
    all_scenarios,
    get_scenario,
    register_scenario,
    scaled_scenario,
    scenario_catalogue,
    scenario_names,
    unregister_scenario,
)

EXPECTED_BUILTINS = {
    "quiet_lab",
    "standard_lab",
    "hot_amplifier",
    "flicker_forest",
    "telegraph_storm",
    "drifting_sensor",
    "charge_jumpy",
    "mains_hum",
    "overnight_run",
    "cryostat_warming",
}


class TestRegistry:
    def test_at_least_eight_builtins(self):
        assert len(scenario_names()) >= 8
        assert EXPECTED_BUILTINS <= set(scenario_names())

    def test_get_unknown_name_names_the_known_ones(self):
        with pytest.raises(ConfigurationError, match="quiet_lab"):
            get_scenario("definitely_not_a_scenario")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            register_scenario(LabScenario(name="quiet_lab", story="dup"))

    def test_register_and_overwrite(self):
        custom = LabScenario(name="_test_custom", story="test-only entry")
        try:
            register_scenario(custom)
            assert get_scenario("_test_custom") is custom
            replacement = LabScenario(name="_test_custom", story="replaced")
            register_scenario(replacement, overwrite=True)
            assert get_scenario("_test_custom") is replacement
        finally:
            unregister_scenario("_test_custom")

    def test_catalogue_lists_every_scenario(self):
        text = scenario_catalogue()
        for name in scenario_names():
            assert name in text

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            LabScenario(name="", story="nameless")


@pytest.mark.parametrize("name", sorted(EXPECTED_BUILTINS))
class TestEveryScenario:
    """Every built-in is constructible, openable, and extraction-runnable."""

    def test_constructible_and_described(self, name):
        scenario = get_scenario(name)
        assert scenario.name == name
        assert scenario.story
        assert name in scenario.describe()
        assert scenario.build_device().n_dots >= 2

    def test_open_session_and_probe(self, name):
        session = get_scenario(name).session_factory(resolution=24).make(seed=5)
        values = session.meter.get_currents(np.arange(10), np.arange(10))
        assert values.shape == (10,)
        assert np.all(np.isfinite(values))
        assert session.meter.n_probes == 10

    def test_session_is_seed_deterministic(self, name):
        scenario = get_scenario(name)
        images = []
        for _ in range(2):
            session = scenario.session_factory(resolution=20).make(seed=9)
            images.append(session.meter.acquire_full_grid())
        assert np.array_equal(images[0], images[1])

    def test_runs_through_campaign_scenario_axis(self, name):
        grid = CampaignGrid(
            devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
            resolutions=(32,),
            scenarios=(name,),
            seed=2,
        )
        result = TuningCampaign(grid).run()
        assert result.n_jobs == 1
        record = result.records[0]
        assert record.scenario == name
        # Every job must complete without crashing the campaign machinery;
        # hostile scenarios may legitimately fail extraction, but say why.
        assert record.failure_category != "crash"
        assert record.extractor_success or record.failure_reason


class TestScenarioSemantics:
    def test_quiet_lab_is_noise_free_and_static(self):
        scenario = get_scenario("quiet_lab")
        assert scenario.noise is None
        assert not scenario.is_time_dependent
        session = scenario.session_factory(resolution=24).make(seed=1)
        assert not session.meter.backend.is_time_dependent

    def test_drifting_scenarios_are_time_dependent(self):
        for name in ("drifting_sensor", "charge_jumpy", "overnight_run"):
            scenario = get_scenario(name)
            assert scenario.is_time_dependent
            session = scenario.session_factory(resolution=24).make(seed=1)
            assert session.meter.backend.is_time_dependent

    def test_overnight_run_has_slow_probes(self):
        assert (
            get_scenario("overnight_run").timing.cost_per_probe_s
            > get_scenario("standard_lab").timing.cost_per_probe_s
        )

    def test_extraction_succeeds_in_the_quiet_lab(self):
        session = get_scenario("quiet_lab").session_factory(resolution=64).make(seed=4)
        result = FastVirtualGateExtractor().extract(session)
        assert result.success

    def test_session_factory_applies_environment_to_foreign_device(self):
        scenario = get_scenario("drifting_sensor")
        device = DeviceSpec.of("double_dot", cross_coupling=(0.30, 0.28)).build()
        factory = scenario.session_factory(device=device, resolution=24)
        assert factory.device is device
        assert factory.drift is scenario.drift
        assert factory.time_dependent_noise


class TestScaledScenario:
    def test_scale_one_is_identity(self):
        scenario = get_scenario("telegraph_storm")
        assert scaled_scenario("telegraph_storm", 1.0) is scenario

    def test_scale_zero_silences_noise_but_keeps_drift(self):
        scaled = scaled_scenario("drifting_sensor", 0.0)
        assert scaled.noise is None
        assert scaled.drift is get_scenario("drifting_sensor").drift

    def test_scaling_multiplies_amplitudes(self):
        scaled = scaled_scenario("telegraph_storm", 2.0)
        assert isinstance(scaled.noise, CompositeNoise)
        white, telegraph = scaled.noise.components
        base_white, base_telegraph = get_scenario("telegraph_storm").noise.components
        assert isinstance(white, WhiteNoise)
        assert isinstance(telegraph, TelegraphNoise)
        assert white.sigma_na == pytest.approx(2.0 * base_white.sigma_na)
        assert telegraph.amplitude_na == pytest.approx(
            2.0 * base_telegraph.amplitude_na
        )
        # Non-amplitude parameters survive untouched.
        assert telegraph.mean_dwell_pixels == base_telegraph.mean_dwell_pixels

    def test_noise_free_scenario_passes_through(self):
        assert scaled_scenario("quiet_lab", 3.0) is get_scenario("quiet_lab")

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            scaled_scenario("quiet_lab", -1.0)
        with pytest.raises(ConfigurationError):
            scaled_scenario("quiet_lab", float("nan"))

    def test_no_noise_component_passes_through(self):
        custom = LabScenario(
            name="_test_nonoise", story="x", noise=CompositeNoise([NoNoise()])
        )
        try:
            register_scenario(custom)
            scaled = scaled_scenario("_test_nonoise", 2.0)
            assert isinstance(scaled.noise.components[0], NoNoise)
        finally:
            unregister_scenario("_test_nonoise")


class TestAllScenariosListing:
    def test_listing_matches_names(self):
        assert tuple(s.name for s in all_scenarios()) == scenario_names()


class TestUserScenariosReachWorkers:
    def test_jobs_run_without_the_registry(self):
        """The engine resolves scenarios in the parent and the jobs carry the
        objects, so a user-registered scenario works even when the worker
        process has a fresh registry (spawn start method)."""
        from repro.campaign.grid import resolve_jobs
        from repro.campaign.worker import run_campaign_job

        custom = LabScenario(
            name="_test_worker_only",
            story="registered in the parent only",
            noise=WhiteNoise(sigma_na=0.01),
        )
        register_scenario(custom)
        try:
            grid = CampaignGrid(
                resolutions=(32,), scenarios=("_test_worker_only",), seed=4
            )
            (job,) = resolve_jobs(grid.expand()[:1])
        finally:
            # Simulate a spawn-start worker: the registry entry is gone,
            # only the resolved job is available.
            unregister_scenario("_test_worker_only")
        assert job.environment is custom
        record = run_campaign_job(job)
        assert record.failure_category != "crash"
        assert record.scenario == "_test_worker_only"

    def test_parallel_campaign_with_user_scenario(self):
        custom = LabScenario(
            name="_test_parallel",
            story="user entry through a process pool",
            noise=WhiteNoise(sigma_na=0.01),
        )
        try:
            register_scenario(custom)
            grid = CampaignGrid(
                resolutions=(32,),
                scenarios=("_test_parallel",),
                n_repeats=2,
                seed=4,
            )
            result = TuningCampaign(grid, backend="process:2").run()
            assert all(r.failure_category != "crash" for r in result.records)
        finally:
            unregister_scenario("_test_parallel")
