"""Tests for the adversarial miner and the failure distiller."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.exceptions import ConfigurationError
from repro.scenarios.devices import DeviceSpec
from repro.scenariospace import (
    MINED_REGRESSIONS,
    Fixed,
    MinedFailure,
    ScenarioParams,
    ScenarioSpace,
    Uniform,
    distill_failure,
    mine_failures,
)
from repro.scenariospace.distill import replay_failure
from repro.scenariospace.mining import MULTIPLIER_RANGE, _clamp_multiplier

#: A parameter vector + seed known to fail (the distilled transient-flood
#: regression), reused here so distiller tests run one real failing job
#: instead of mining from scratch.
FLOOD = next(r for r in MINED_REGRESSIONS if r.name == "mined_transient_flood")


def flood_failure(params: ScenarioParams | None = None) -> MinedFailure:
    return MinedFailure(
        space="test",
        round_index=0,
        params=params if params is not None else FLOOD.params,
        seed_entropy=FLOOD.seed_entropy,
        seed_spawn_key=FLOOD.seed_spawn_key,
        method=FLOOD.method,
        resolution=FLOOD.resolution,
        failure_category=FLOOD.failure_category,
        failure_reason="probe fault budget exhausted",
    )


class TestClamp:
    def test_clamps_to_range(self):
        low, high = MULTIPLIER_RANGE
        assert _clamp_multiplier(1e9) == high
        assert _clamp_multiplier(1e-9) == low
        assert _clamp_multiplier(1.0) == 1.0


class TestMineFailures:
    @pytest.fixture(scope="class")
    def quiet_space(self):
        # A space whose draws reliably pass: no noise, no drift, no faults.
        return ScenarioSpace(
            name="calm",
            device=Fixed(DeviceSpec.of("double_dot")),
            noise_scale=Fixed(0.0),
            drift_mv_per_hour=Fixed(0.0),
            fault_rate=Fixed(0.0),
        )

    @pytest.fixture(scope="class")
    def faulty_space(self):
        # High fault rates break jobs often enough for a 1-round climb.
        return ScenarioSpace(
            name="storm",
            device=Fixed(DeviceSpec.of("double_dot")),
            noise_scale=Fixed(0.0),
            drift_mv_per_hour=Fixed(0.0),
            fault_rate=Uniform(0.3, 0.6),
        )

    def test_mining_is_deterministic(self, faulty_space):
        kwargs = dict(
            n_rounds=1,
            draws_per_round=3,
            seed=4,
            resolution=12,
            axes=("fault_rate",),
        )
        first = mine_failures(faulty_space, **kwargs)
        second = mine_failures(faulty_space, **kwargs)
        assert first == second

    def test_failures_carry_replayable_identity(self, faulty_space):
        result = mine_failures(
            faulty_space,
            n_rounds=1,
            draws_per_round=3,
            seed=4,
            resolution=12,
            axes=("fault_rate",),
        )
        assert result.n_failures > 0
        failure = result.failures[0]
        record = replay_failure(
            failure.params,
            failure.seed,
            method=failure.method,
            resolution=failure.resolution,
        )
        assert not record.success
        assert record.failure_category == failure.failure_category

    def test_quiet_space_mines_nothing(self, quiet_space):
        result = mine_failures(
            quiet_space,
            n_rounds=1,
            draws_per_round=2,
            seed=0,
            resolution=12,
            axes=("drift_mv_per_hour",),
        )
        assert result.n_failures == 0
        # Round 0 plus one climb round that found nothing better.
        assert [r.accepted for r in result.rounds] == [True, False]
        assert dict(result.best_multipliers) == {"drift_mv_per_hour": 1.0}

    def test_stop_at_failure_rate_short_circuits(self, faulty_space):
        stressed = faulty_space.stressed({"fault_rate": 2.0})
        result = mine_failures(
            stressed,
            n_rounds=3,
            draws_per_round=3,
            seed=4,
            resolution=12,
            axes=("fault_rate",),
            stop_at_failure_rate=0.01,
        )
        # Round 0 already exceeds the threshold: no climb rounds run.
        assert len(result.rounds) == 1

    def test_rejects_bad_arguments(self, quiet_space):
        with pytest.raises(ConfigurationError):
            mine_failures(quiet_space, n_rounds=0)
        with pytest.raises(ConfigurationError):
            mine_failures(quiet_space, draws_per_round=0)
        with pytest.raises(ConfigurationError):
            mine_failures(quiet_space, step=1.0)
        with pytest.raises(ConfigurationError):
            mine_failures(quiet_space, axes=("resolution",))


class TestDistillFailure:
    def test_distils_away_irrelevant_axes(self):
        # Inflate two axes the flood failure provably does not need; the
        # distiller must zero both and keep a failing fault rate.
        original = FLOOD.params.with_axis("noise_scale", 2.0).with_axis(
            "drift_mv_per_hour", 15.0
        )
        distilled = distill_failure(flood_failure(original), max_bisections=6)
        assert distilled.original == original
        assert distilled.minimal.noise_scale == 0.0
        assert distilled.minimal.drift_mv_per_hour == 0.0
        assert 0.0 < distilled.minimal.fault_rate <= original.fault_rate
        assert set(distilled.zeroed_axes()) == {
            "noise_scale", "drift_mv_per_hour"
        }
        assert distilled.failure_category == FLOOD.failure_category
        assert distilled.n_evaluations > 1
        # The contract that makes the fixture worth writing: the minimised
        # vector still fails on the recorded seed.
        record = replay_failure(
            distilled.minimal,
            flood_failure().seed,
            method=distilled.method,
            resolution=distilled.resolution,
        )
        assert not record.success

    def test_refuses_non_reproducing_failure(self):
        benign = ScenarioParams(
            device=FLOOD.params.device,
            noise_scale=0.0,
            drift_mv_per_hour=0.0,
            fault_rate=0.0,
        )
        with pytest.raises(ConfigurationError, match="does not reproduce"):
            distill_failure(flood_failure(benign))

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigurationError):
            distill_failure(flood_failure(), max_bisections=0)


class TestReplayFailure:
    def test_replay_is_deterministic(self):
        def pinned(record):
            return replace(
                record,
                wall_elapsed_s=0.0,
                stage_telemetry=tuple(
                    t.normalized(0.0) for t in record.stage_telemetry
                ),
            )

        first = replay_failure(
            FLOOD.params,
            flood_failure().seed,
            method=FLOOD.method,
            resolution=FLOOD.resolution,
        )
        second = replay_failure(
            FLOOD.params,
            flood_failure().seed,
            method=FLOOD.method,
            resolution=FLOOD.resolution,
        )
        assert pinned(first) == pinned(second)
        assert not first.success
