"""Tests for scenario spaces: params, sampling, and campaign execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.scenarios import get_scenario
from repro.scenarios.catalog import register_scenario, unregister_scenario
from repro.scenarios.devices import DeviceSpec
from repro.scenariospace import (
    Choice,
    Fixed,
    LogUniform,
    ScenarioParams,
    ScenarioSpace,
    Uniform,
    jobs_for_draws,
    run_draws,
    scenario_from_params,
)


class TestScenarioParams:
    def test_defaults_are_benign(self):
        params = ScenarioParams()
        assert params.noise_scale == 1.0
        assert params.drift_mv_per_hour == 0.0
        assert params.fault_rate == 0.0

    @pytest.mark.parametrize("field", ["noise_scale", "drift_mv_per_hour", "fault_rate"])
    @pytest.mark.parametrize("value", [-0.1, float("nan"), float("inf")])
    def test_rejects_bad_severities(self, field, value):
        with pytest.raises(ConfigurationError):
            ScenarioParams(**{field: value})

    def test_rejects_fault_rate_above_one(self):
        with pytest.raises(ConfigurationError):
            ScenarioParams(fault_rate=1.5)

    def test_with_axis(self):
        params = ScenarioParams().with_axis("fault_rate", 0.25)
        assert params.fault_rate == 0.25
        assert params.noise_scale == 1.0

    def test_with_axis_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            ScenarioParams().with_axis("resolution", 2.0)

    def test_round_trip_preserves_device_kwargs(self):
        params = ScenarioParams(
            device=DeviceSpec.of("grid_array", rows=2, cols=3),
            noise_scale=2.5,
            drift_mv_per_hour=12.0,
            fault_rate=0.1,
        )
        assert ScenarioParams.from_dict(params.as_dict()) == params


class TestScenarioFromParams:
    def test_benign_params_make_quiet_scenario(self):
        scenario = scenario_from_params(
            "quiet", ScenarioParams(noise_scale=0.0)
        )
        assert scenario.noise is None
        assert scenario.drift is None
        assert scenario.faults is None
        assert scenario.probe_retry is None
        assert scenario.time_dependent_noise is False

    def test_severities_materialise_models(self):
        scenario = scenario_from_params(
            "loud",
            ScenarioParams(
                noise_scale=2.0, drift_mv_per_hour=10.0, fault_rate=0.2
            ),
        )
        assert scenario.noise is not None
        assert scenario.drift.operating_point_mv_per_hour == 10.0
        assert scenario.faults.rate == 0.2
        assert scenario.probe_retry is not None
        assert scenario.time_dependent_noise is True

    def test_fault_rate_capped_below_one(self):
        scenario = scenario_from_params(
            "flood", ScenarioParams(fault_rate=1.0)
        )
        assert scenario.faults.rate == 0.9


class TestSpaceValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpace(name="")

    def test_negative_severity_support_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpace(name="bad", drift_mv_per_hour=Uniform(-5.0, 5.0))

    def test_categorical_severity_sampler_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpace(name="bad", noise_scale=Choice(options=(0.5, 2.0)))

    def test_device_sampler_must_yield_device_specs(self):
        space = ScenarioSpace(name="bad", device=Fixed("double_dot"))
        with pytest.raises(ConfigurationError):
            space.sample(1, seed=0)

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpace(name="s").sample(-1)

    def test_stressed_rejects_unknown_axis(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpace(name="s").stressed({"resolution": 2.0})


class TestSampling:
    def test_draw_names_follow_space_and_index(self):
        draws = ScenarioSpace(name="demo").sample(3, seed=5)
        assert [d.scenario.name for d in draws] == [
            "demo-0000", "demo-0001", "demo-0002"
        ]

    def test_sampled_fault_rate_respects_cap(self):
        space = ScenarioSpace(name="flood", fault_rate=Fixed(0.95))
        draws = space.sample(2, seed=0)
        assert all(d.params.fault_rate == 0.9 for d in draws)


class TestJobsForDraws:
    def test_first_pair_only_by_default(self):
        space = ScenarioSpace(
            name="grid", device=Fixed(DeviceSpec.of("grid_array", rows=2, cols=3))
        )
        draws = space.sample(2, seed=3)
        jobs = jobs_for_draws(draws)
        assert len(jobs) == 2
        assert [job.job_id for job in jobs] == [0, 1]
        assert all(job.noise_scale == 1.0 for job in jobs)
        assert all(job.fault is None for job in jobs)
        assert [job.scenario for job in jobs] == ["grid-0000", "grid-0001"]

    def test_all_pairs_expands_every_bond(self):
        space = ScenarioSpace(
            name="grid", device=Fixed(DeviceSpec.of("grid_array", rows=2, cols=3))
        )
        draws = space.sample(1, seed=3)
        jobs = jobs_for_draws(draws, pairs="all")
        # The 2x3 lattice has 7 bonds; every job gets a distinct seed.
        assert len(jobs) == 7
        identities = {
            (job.seed.entropy, tuple(job.seed.spawn_key)) for job in jobs
        }
        assert len(identities) == 7

    def test_invalid_pairs_mode_rejected(self):
        draws = ScenarioSpace(name="s").sample(1, seed=0)
        with pytest.raises(ConfigurationError):
            jobs_for_draws(draws, pairs="some")


class TestRunDraws:
    def test_records_carry_draw_scenarios_and_registry_is_restored(self):
        space = ScenarioSpace(
            name="tiny",
            noise_scale=Fixed(0.5),
            drift_mv_per_hour=Fixed(0.0),
        )
        draws = space.sample(2, seed=7)
        result = run_draws(draws, resolution=16)
        assert [r.scenario for r in result.records] == [
            "tiny-0000", "tiny-0001"
        ]
        # The jobs carry their draws' scenarios; none enters the registry.
        with pytest.raises(ConfigurationError):
            get_scenario("tiny-0000")

    def test_serial_and_process_runs_are_bit_identical(self):
        """The PR's acceptance criterion: sampled-scenario campaigns are
        bit-reproducible across serial and process-pool execution."""
        space = ScenarioSpace(
            name="xbackend",
            device=Choice(
                options=(
                    DeviceSpec.of("double_dot"),
                    DeviceSpec.of("linear_array", n_dots=6),
                )
            ),
            noise_scale=LogUniform(0.5, 2.0),
            drift_mv_per_hour=Uniform(0.0, 10.0),
            fault_rate=Fixed(0.0),
        )
        draws = space.sample(4, seed=13)
        serial = run_draws(draws, resolution=16, backend="serial")
        pooled = run_draws(draws, resolution=16, backend="process:2")
        # Prove we compared genuinely different execution policies before
        # normalization strips them.
        assert serial.metadata["backend"] == "serial"
        assert pooled.metadata["backend"] == "process"
        assert serial.normalized() == pooled.normalized()


class TestRegistryHelpers:
    def test_unregister_returns_scenario_and_removes_it(self):
        scenario = ScenarioSpace(name="once").sample(1, seed=0)[0].scenario
        register_scenario(scenario)
        assert unregister_scenario(scenario.name) == scenario
        with pytest.raises(ConfigurationError):
            get_scenario(scenario.name)

    def test_unregister_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            unregister_scenario("never-registered")
