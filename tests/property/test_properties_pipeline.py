"""Property-based tests over the composable tuning pipeline.

Two invariants the pipeline refactor must hold under any seed:

* **determinism** — the same seed produces bit-identical results *and*
  bit-identical per-stage telemetry (modulo the wall clock, which is the
  one legitimately nondeterministic field) across repeated runs;
* **failure isolation** — a stage raising anywhere in the composition
  yields an unsuccessful :class:`~repro.core.result.ExtractionResult`
  whose telemetry for the stages completed before the failure is intact
  (same rows, same costs as an unbroken run's prefix).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ExtractionError
from repro.pipeline import TuningPipeline, get_pipeline
from repro.scenarios import get_scenario

#: Small but fully end-to-end: 48 pixels crosses the anchor-mask minimum
#: comfortably and keeps one extraction under ~50 ms of compute.
RESOLUTION = 48

#: A time-dependent scenario, so determinism also covers the temporal noise
#: samplers and the probe-timestamp threading.
SCENARIO = "telegraph_storm"


def _run(seed: int, pipeline_name: str = "fast-extraction"):
    session = get_scenario(SCENARIO).session_factory(resolution=RESOLUTION).make(seed=seed)
    return get_pipeline(pipeline_name).run(session)


def _normalized_telemetry(result):
    return tuple(t.normalized() for t in result.stage_telemetry)


class TestDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_same_seed_same_results_and_telemetry(self, seed):
        first = _run(seed)
        second = _run(seed)
        assert first.success == second.success
        assert first.alpha_12 == second.alpha_12
        assert first.alpha_21 == second.alpha_21
        assert first.probe_stats == second.probe_stats
        assert _normalized_telemetry(first) == _normalized_telemetry(second)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_ablation_pipelines_are_deterministic_too(self, seed):
        first = _run(seed, "no-filter")
        second = _run(seed, "no-filter")
        assert first.probe_stats == second.probe_stats
        assert _normalized_telemetry(first) == _normalized_telemetry(second)


class _BoomStage:
    name = "boom"

    def run(self, ctx):
        raise ExtractionError("injected failure")


class TestFailureIsolation:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16 - 1),
        position=st.integers(min_value=0, max_value=5),
    )
    def test_raising_stage_preserves_completed_telemetry(self, seed, position):
        reference = _run(seed)
        fast = get_pipeline("fast-extraction")
        stages = list(fast.stages)
        broken = TuningPipeline(
            "broken",
            stages[:position] + [_BoomStage()] + stages[position:],
            default_config=fast.default_config,
        )
        session = get_scenario(SCENARIO).session_factory(resolution=RESOLUTION).make(seed=seed)
        result = broken.run(session)
        assert not result.success
        assert result.failure_reason == "injected failure"
        # Telemetry: the completed prefix matches the unbroken run's prefix
        # bit-for-bit (modulo wall clock), then one failed row, nothing after.
        prefix = _normalized_telemetry(result)[:position]
        assert prefix == _normalized_telemetry(reference)[:position]
        boom_row = result.stage_telemetry[position]
        assert boom_row.stage == "boom"
        assert boom_row.outcome == "failed"
        assert boom_row.detail == "injected failure"
        assert len(result.stage_telemetry) == position + 1
        # Probe accounting still balances: the stages that ran sum to the
        # meter's totals.
        assert (
            sum(t.n_probes for t in result.stage_telemetry)
            == result.probe_stats.n_probes
        )

    def test_post_failure_artifacts_match_completed_stages(self):
        fast = get_pipeline("fast-extraction")
        stages = list(fast.stages)
        # Fail right after the sweeps: anchors and traces exist, points don't.
        broken = TuningPipeline(
            "broken-after-sweeps",
            stages[:2] + [_BoomStage()],
            default_config=fast.default_config,
        )
        session = get_scenario(SCENARIO).session_factory(resolution=RESOLUTION).make(seed=11)
        result = broken.run(session)
        assert not result.success
        assert result.anchors is not None
        assert result.points is None
        assert result.fit is None
        assert result.matrix is None
