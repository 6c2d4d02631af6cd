"""Tests for the declarative campaign grid and its expansion."""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.campaign import CampaignGrid, DeviceSpec
from repro.campaign.grid import noise_for_scale, resolve_jobs
from repro.exceptions import ConfigurationError
from repro.faults.registry import get_fault
from repro.physics.noise import CompositeNoise
from repro.pipeline.registry import get_pipeline


class TestDeviceSpec:
    def test_builds_registered_factories(self):
        device = DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)).build()
        assert device.n_dots == 2
        device = DeviceSpec.of("linear_array", n_dots=3).build()
        assert device.n_dots == 3

    def test_unknown_factory_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceSpec(factory="pentuple_dot")

    def test_spec_is_hashable_and_picklable(self):
        spec = DeviceSpec.of("double_dot", cross_coupling=(0.3, 0.2))
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))

    def test_label_names_factory_and_kwargs(self):
        assert DeviceSpec.of("double_dot").label == "double_dot"
        assert "n_dots=3" in DeviceSpec.of("linear_array", n_dots=3).label


class TestNoiseForScale:
    def test_zero_scale_is_noise_free(self):
        assert noise_for_scale(0.0) is None

    def test_positive_scale_builds_lab_mix(self):
        assert isinstance(noise_for_scale(1.0), CompositeNoise)

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_for_scale(-1.0)


class TestCampaignGrid:
    def test_expansion_covers_cross_product(self):
        grid = CampaignGrid(
            devices=(
                DeviceSpec.of("double_dot"),
                DeviceSpec.of("linear_array", n_dots=3),
            ),
            resolutions=(63, 100),
            noise_scales=(0.0, 1.0),
            methods=("fast",),
            n_repeats=2,
            seed=5,
        )
        jobs = grid.expand()
        # (1 + 2) gate pairs x 2 resolutions x 2 noises x 1 method x 2 repeats.
        assert len(jobs) == grid.n_jobs == 3 * 2 * 2 * 2
        assert [job.job_id for job in jobs] == list(range(len(jobs)))
        # The linear array contributes both neighbouring pairs.
        pairs = {(job.gate_x, job.gate_y) for job in jobs}
        assert ("P1", "P2") in pairs and ("P2", "P3") in pairs

    def test_expansion_is_deterministic(self):
        grid = CampaignGrid(n_repeats=3, seed=9)
        first = grid.expand()
        second = grid.expand()
        for a, b in zip(first, second):
            assert a.label == b.label
            assert a.seed.entropy == b.seed.entropy
            assert a.seed.spawn_key == b.seed.spawn_key

    def test_jobs_get_distinct_spawned_seeds(self):
        jobs = CampaignGrid(n_repeats=4, seed=3).expand()
        spawn_keys = {job.seed.spawn_key for job in jobs}
        assert len(spawn_keys) == len(jobs)
        assert all(isinstance(job.seed, np.random.SeedSequence) for job in jobs)

    def test_unseeded_grid_leaves_jobs_unseeded(self):
        jobs = CampaignGrid(n_repeats=2, seed=None).expand()
        assert all(job.seed is None for job in jobs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"devices": ()},
            {"resolutions": (8,)},
            {"noise_scales": (-0.5,)},
            {"methods": ("magic",)},
            {"methods": ()},
            {"n_repeats": 0},
            {"scenarios": ()},
            {"scenarios": ("not_a_registered_scenario",)},
        ],
    )
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            CampaignGrid(**kwargs)

    def test_jobs_are_picklable(self):
        jobs = CampaignGrid(n_repeats=1, seed=1).expand()
        restored = pickle.loads(pickle.dumps(jobs))
        assert restored[0].label == jobs[0].label


class TestScenarioAxis:
    def test_default_axis_is_static_only(self):
        jobs = CampaignGrid(seed=1).expand()
        assert all(job.scenario is None for job in jobs)

    def test_scenario_axis_multiplies_the_cross_product(self):
        grid = CampaignGrid(
            resolutions=(48,),
            scenarios=(None, "quiet_lab", "drifting_sensor"),
            n_repeats=2,
            seed=7,
        )
        jobs = grid.expand()
        assert len(jobs) == grid.n_jobs == 1 * 1 * 1 * 3 * 1 * 2
        assert {job.scenario for job in jobs} == {None, "quiet_lab", "drifting_sensor"}

    def test_named_scenarios_not_crossed_with_noise_axis(self):
        # The static environment sweeps the noise axis; a named scenario
        # fixes its own noise, so it appears once (at recorded scale 1)
        # instead of being cloned per noise scale.
        grid = CampaignGrid(
            resolutions=(48,),
            noise_scales=(0.0, 0.5, 1.0),
            scenarios=(None, "drifting_sensor"),
            seed=7,
        )
        jobs = grid.expand()
        assert len(jobs) == grid.n_jobs == 3 + 1
        static = [job for job in jobs if job.scenario is None]
        scenario = [job for job in jobs if job.scenario == "drifting_sensor"]
        assert sorted(job.noise_scale for job in static) == [0.0, 0.5, 1.0]
        assert [job.noise_scale for job in scenario] == [1.0]

    def test_duplicate_scenario_entries_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignGrid(scenarios=("quiet_lab", "quiet_lab"))

    def test_scenario_named_in_label(self):
        jobs = CampaignGrid(scenarios=("telegraph_storm",), seed=1).expand()
        assert "telegraph_storm" in jobs[0].label

    def test_scenario_jobs_are_picklable(self):
        jobs = CampaignGrid(scenarios=("overnight_run",), seed=1).expand()
        restored = pickle.loads(pickle.dumps(jobs))
        assert restored[0].scenario == "overnight_run"


class TestResolveJobs:
    @pytest.fixture
    def jobs(self):
        return CampaignGrid(
            noise_scales=(0.0,),
            scenarios=(None, "quiet_lab", "standard_lab"),
            faults=(None, "stuck-sensor", "flaky-lab"),
            methods=("fast", "baseline"),
            seed=3,
        ).expand()

    def test_fills_what_each_name_resolves_to(self, jobs):
        for job in resolve_jobs(jobs):
            assert job.pipeline is not None
            assert (job.environment is None) == (job.scenario is None)
            if job.scenario is not None:
                assert job.environment.name == job.scenario
            assert job.fault_models == (
                () if job.fault is None else get_fault(job.fault)
            )

    def test_jobs_sharing_a_name_share_one_object(self, jobs):
        resolved = resolve_jobs(jobs)
        for attribute, name_of in (
            ("pipeline", lambda job: job.method),
            ("environment", lambda job: job.scenario),
            ("fault_models", lambda job: job.fault),
        ):
            by_name = {}
            for job in resolved:
                if name_of(job) is not None:
                    by_name.setdefault(name_of(job), []).append(
                        id(getattr(job, attribute))
                    )
            assert len(by_name) == 2
            assert all(len(ids) > 1 and len(set(ids)) == 1 for ids in by_name.values())

    def test_resolution_leaves_identity_untouched(self, jobs):
        resolved = resolve_jobs(jobs)
        assert resolved == jobs
        assert [job.label for job in resolved] == [job.label for job in jobs]
        assert [repr(job) for job in resolved] == [repr(job) for job in jobs]

    def test_resolved_jobs_pass_through_unchanged(self, jobs):
        resolved = resolve_jobs(jobs)
        again = resolve_jobs(resolved)
        assert all(a is b for a, b in zip(again, resolved))

    def test_a_carried_object_wins_over_its_name(self, jobs):
        (job,) = resolve_jobs(jobs[:1])
        renamed = replace(job, method="no-anchors")
        (kept,) = resolve_jobs([renamed])
        assert kept.pipeline is job.pipeline
        assert kept.pipeline is not get_pipeline("no-anchors")

    def test_unknown_names_rejected(self, jobs):
        for field_name in ("method", "scenario", "fault"):
            unknown = replace(jobs[0], **{field_name: "not_registered"})
            with pytest.raises(ConfigurationError, match="not_registered"):
                resolve_jobs([unknown])
