"""Tests for the composable tuning-pipeline subsystem (repro.pipeline)."""

from __future__ import annotations

from functools import partial

import pytest

from repro.analysis import format_stage_costs
from repro.core import AnchorConfig, ExtractionConfig, StageTelemetry
from repro.exceptions import ConfigurationError, ExtractionError
from repro.instrument import ExperimentSession, SessionFactory
from repro.pipeline import (
    AutoTuningWorkflow,
    FastVirtualGateExtractor,
    HoughBaselineExtractor,
    StageOutcome,
    SweepStage,
    TuneContext,
    TuningPipeline,
    all_pipelines,
    get_pipeline,
    pipeline_catalogue,
    pipeline_names,
    register_pipeline,
)
from repro.pipeline.__main__ import main as pipeline_cli
from repro.scenarios import get_scenario


@pytest.fixture()
def session(clean_csd) -> ExperimentSession:
    return ExperimentSession.from_csd(clean_csd)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = pipeline_names()
        for expected in ("fast-extraction", "dense-grid-baseline", "no-anchors"):
            assert expected in names

    def test_aliases_resolve_to_the_pr1_methods(self):
        assert get_pipeline("fast").name == "fast-extraction"
        assert get_pipeline("baseline").name == "dense-grid-baseline"
        assert get_pipeline("baseline").method_name == "hough-baseline"

    def test_unknown_name_raises_with_known_set(self):
        with pytest.raises(ConfigurationError, match="fast-extraction"):
            get_pipeline("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_pipeline(
                "fast-extraction", lambda: get_pipeline("fast-extraction")
            )

    def test_get_pipeline_returns_fresh_instances(self):
        assert get_pipeline("fast") is not get_pipeline("fast")

    def test_catalogue_lists_every_pipeline_with_stages(self):
        catalogue = pipeline_catalogue()
        for name in pipeline_names():
            assert name in catalogue
        assert "anchors -> sweeps -> filter -> fit -> validate" in catalogue

    def test_every_registered_pipeline_runs_end_to_end(self, clean_csd):
        # The registry contract: anything listed runs on a replayed CSD and
        # on a simulated device, and its stage rows account for every probe.
        for pipeline in all_pipelines():
            for source, session in (
                ("csd", ExperimentSession.from_csd(clean_csd)),
                ("device", get_scenario("quiet_lab").session_factory(resolution=48).make(seed=7)),
            ):
                result = pipeline.run(session)
                where = f"{pipeline.name} on {source}"
                assert result.method == pipeline.method_name, where
                assert result.stage_telemetry, where
                assert result.probe_stats.n_probes > 0, where
                stage_probes = sum(t.n_probes for t in result.stage_telemetry)
                assert stage_probes == result.probe_stats.n_probes, where
                if pipeline.name == "fast-extraction":
                    assert result.success, where

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ExtractionError, match="at least one stage"):
            TuningPipeline("empty", [])


_FAST_STAGES = (
    "SweepStage(run_column=True, run_row=True), FilterStage(apply_filter=True), "
    "FitStage(), ValidateStage()"
)


def _paper_repr(name: str, stages: str) -> str:
    return (
        f"TuningPipeline(name={name!r}, method={name!r}, stages=[{stages}], "
        "default_config=ExtractionConfig.paper_defaults)"
    )


class TestRepr:
    def test_partial_config_factories_tell_apart(self):
        from repro.campaign.experiments import _fast_pipeline_with

        wide = _fast_pipeline_with(gaussian_sigma_fraction=2.0)
        edge = _fast_pipeline_with(start_margin_fraction=0.0)
        assert repr(wide) != repr(edge)
        assert "default_config=partial(ExtractionConfig, anchors=AnchorConfig(" in repr(wide)
        assert "gaussian_sigma_fraction=2.0" in repr(wide)
        assert "start_margin_fraction=0.0" in repr(edge)
        assert " at 0x" not in repr(wide) + repr(edge)
        # Under one name only the factories differ, and the reprs still do.
        same_name = [
            TuningPipeline(
                "variant",
                wide.stages,
                default_config=partial(ExtractionConfig, anchors=AnchorConfig(**settings)),
            )
            for settings in ({"gaussian_sigma_fraction": 2.0}, {"start_margin_fraction": 0.0})
        ]
        assert repr(same_name[0]) != repr(same_name[1])

    def test_registered_reprs_unchanged(self):
        assert {name: repr(get_pipeline(name)) for name in pipeline_names()} == {
            "fast-extraction": _paper_repr("fast-extraction", f"AnchorStage(), {_FAST_STAGES}"),
            "dense-grid-baseline": (
                "TuningPipeline(name='dense-grid-baseline', method='hough-baseline', "
                "stages=[FullScanStage(), EdgeDetectStage(), LineFitStage(), "
                "BaselineValidateStage()], default_config=_baseline_config)"
            ),
            "no-anchors": _paper_repr("no-anchors", f"FixedCornerAnchorStage(), {_FAST_STAGES}"),
            "no-filter": _paper_repr(
                "no-filter",
                f"AnchorStage(), {_FAST_STAGES}".replace("apply_filter=True", "apply_filter=False"),
            ),
            "row-sweep-only": _paper_repr(
                "row-sweep-only",
                f"AnchorStage(), {_FAST_STAGES}".replace("run_column=True", "run_column=False"),
            ),
            "column-sweep-only": _paper_repr(
                "column-sweep-only",
                f"AnchorStage(), {_FAST_STAGES}".replace("run_row=True", "run_row=False"),
            ),
        }

    def test_campaign_fingerprints_unchanged(self):
        from repro.analysis import SuccessCriterion
        from repro.campaign import CampaignGrid, DeviceSpec, campaign_fingerprint
        from repro.campaign.experiments import (
            ABLATION_INDICES,
            TABLE1_METHODS,
            _fast_pipeline_with,
            diagram_jobs,
        )
        from repro.datasets import load_benchmark, load_suite

        # The benchmark's static and drift-chaos grids at seed 1, Table 1,
        # and the anchor ablation, whose jobs carry partial-factory pipelines.
        devices = (
            DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),
            DeviceSpec.of("double_dot", cross_coupling=(0.32, 0.27)),
            DeviceSpec.of("linear_array", n_dots=4),
        )
        common = {"devices": devices, "resolutions": (63,), "methods": ("fast",), "seed": 1}
        static = CampaignGrid(noise_scales=(0.0, 1.0), n_repeats=10, **common)
        chaos = CampaignGrid(
            scenarios=("drifting_sensor", "telegraph_storm"),
            faults=(None, "transient-reads"),
            n_repeats=5,
            **common,
        )
        ablation = [
            "fast",
            _fast_pipeline_with(gaussian_sigma_fraction=2.0),
            _fast_pipeline_with(start_margin_fraction=0.0),
        ]
        job_lists = {
            "static": static.expand(),
            "chaos": chaos.expand(),
            "table1": diagram_jobs(load_suite(), TABLE1_METHODS),
            "anchors": diagram_jobs([load_benchmark(i) for i in ABLATION_INDICES], ablation),
        }
        criterion = SuccessCriterion()
        assert {
            name: campaign_fingerprint(jobs, criterion) for name, jobs in job_lists.items()
        } == {
            "static": "d68b18784e163817",
            "chaos": "143c57cde80abe79",
            "table1": "7c79a8012c69c67b",
            "anchors": "a8ffc7ba1a6edb7e",
        }


class TestEquivalence:
    """The registered compositions reproduce the monolithic extractors."""

    def test_fast_pipeline_matches_extractor(self, clean_csd):
        via_class = FastVirtualGateExtractor().extract(
            ExperimentSession.from_csd(clean_csd)
        )
        via_registry = get_pipeline("fast-extraction").run(
            ExperimentSession.from_csd(clean_csd)
        )
        assert via_class.success and via_registry.success
        assert via_class.alpha_12 == via_registry.alpha_12
        assert via_class.alpha_21 == via_registry.alpha_21
        assert via_class.probe_stats == via_registry.probe_stats

    def test_baseline_pipeline_matches_extractor(self, clean_csd):
        via_class = HoughBaselineExtractor().extract(
            ExperimentSession.from_csd(clean_csd)
        )
        via_registry = get_pipeline("dense-grid-baseline").run(
            ExperimentSession.from_csd(clean_csd)
        )
        assert via_class.method == via_registry.method == "hough-baseline"
        assert via_class.alpha_12 == via_registry.alpha_12
        assert via_class.metadata == via_registry.metadata

    def test_ablations_differ_from_the_default(self, clean_csd):
        default = get_pipeline("fast-extraction").run(
            ExperimentSession.from_csd(clean_csd)
        )
        no_anchors = get_pipeline("no-anchors").run(
            ExperimentSession.from_csd(clean_csd)
        )
        # Fixed-corner anchors spend nothing in the anchor stage but force
        # the sweeps to walk a larger triangle.
        assert no_anchors.stage("anchors").n_probes == 0
        assert default.stage("anchors").n_probes > 0
        assert (
            no_anchors.stage("sweeps").n_probes > default.stage("sweeps").n_probes
        )


class TestTelemetry:
    def test_stage_costs_sum_to_probe_statistics(self, session):
        result = get_pipeline("fast-extraction").run(session)
        total_probes = sum(t.n_probes for t in result.stage_telemetry)
        total_requests = sum(t.n_requests for t in result.stage_telemetry)
        total_hits = sum(t.cache_hits for t in result.stage_telemetry)
        total_sim = sum(t.sim_elapsed_s for t in result.stage_telemetry)
        assert total_probes == result.probe_stats.n_probes
        assert total_requests == result.probe_stats.n_requests
        assert total_hits == session.meter.n_cache_hits
        assert total_sim == pytest.approx(result.probe_stats.elapsed_s, abs=1e-9)

    def test_stage_order_and_outcomes(self, session):
        result = get_pipeline("fast-extraction").run(session)
        assert [t.stage for t in result.stage_telemetry] == [
            "anchors",
            "sweeps",
            "filter",
            "fit",
            "validate",
        ]
        assert all(t.outcome == "ok" for t in result.stage_telemetry)
        assert all(t.wall_s >= 0.0 for t in result.stage_telemetry)

    def test_compute_only_stages_probe_nothing(self, session):
        result = get_pipeline("fast-extraction").run(session)
        for stage in ("filter", "fit", "validate"):
            telemetry = result.stage(stage)
            assert telemetry.n_probes == 0
            assert telemetry.n_requests == 0
            assert telemetry.sim_elapsed_s == 0.0

    def test_baseline_probes_land_in_full_scan(self, session):
        result = get_pipeline("dense-grid-baseline").run(session)
        assert result.stage("full-scan").n_probes == session.meter.backend.n_pixels
        assert result.stage("edge-detect").n_probes == 0
        assert result.stage("line-fit").n_probes == 0

    def test_telemetry_round_trips_through_dicts(self, session):
        result = get_pipeline("fast-extraction").run(session)
        for telemetry in result.stage_telemetry:
            rebuilt = StageTelemetry.from_dict(telemetry.as_dict())
            assert rebuilt == telemetry

    def test_format_stage_costs_renders_every_stage(self, session):
        result = get_pipeline("fast-extraction").run(session)
        table = format_stage_costs(result.stage_telemetry)
        for telemetry in result.stage_telemetry:
            assert telemetry.stage in table


class _ExplodingStage:
    name = "exploding"

    def run(self, ctx):
        raise ExtractionError("boom mid-pipeline")


class _NotingStage:
    name = "noting"

    def __init__(self, log):
        self._log = log

    def run(self, ctx):
        self._log.append("ran")
        return StageOutcome(detail="noted")


class TestComposerSemantics:
    def test_raising_stage_yields_unsuccessful_result_with_telemetry(self, session):
        fast = get_pipeline("fast-extraction")
        pipeline = TuningPipeline(
            "boomy", list(fast.stages[:2]) + [_ExplodingStage()] + list(fast.stages[2:])
        )
        result = pipeline.run(session, config=fast.default_config())
        assert not result.success
        assert result.failure_reason == "boom mid-pipeline"
        # Completed stages keep their telemetry; the raising stage records a
        # failed row; nothing after it ran.
        assert [t.stage for t in result.stage_telemetry] == [
            "anchors",
            "sweeps",
            "exploding",
        ]
        assert result.stage_telemetry[-1].outcome == "failed"
        assert result.stage_telemetry[0].outcome == "ok"
        assert result.anchors is not None  # artifacts before the failure survive
        assert result.points is None

    def test_failed_status_stage_keeps_artifacts(self, clean_csd):
        # The validation stage rejects via status="failed" rather than
        # raising, so the rejected matrix stays visible.
        from repro.core import FitConfig

        config = ExtractionConfig.paper_defaults().replace(
            fit=FitConfig(max_alpha=1e-9)
        )
        result = get_pipeline("fast-extraction").run(
            ExperimentSession.from_csd(clean_csd), config=config
        )
        assert not result.success
        assert result.matrix is not None
        assert result.stage("validate").outcome == "failed"
        assert "alpha" in result.stage("validate").detail

    def test_custom_stage_composes(self, session):
        log = []
        fast = get_pipeline("fast-extraction")
        pipeline = TuningPipeline(
            "noted", [_NotingStage(log)] + list(fast.stages),
            default_config=fast.default_config,
        )
        result = pipeline.run(session)
        assert log == ["ran"]
        assert result.success
        assert result.stage_telemetry[0].stage == "noting"
        assert result.stage_telemetry[0].detail == "noted"
        assert result.stage_telemetry[0].n_probes == 0

    @pytest.mark.parametrize("status", ["exploded", "skipped"])
    def test_invalid_outcome_status_rejected(self, status):
        with pytest.raises(ConfigurationError, match="ok"):
            StageOutcome(status=status)

    def test_sweep_stage_with_both_sweeps_disabled_rejected(self):
        with pytest.raises(ConfigurationError, match="sweeps"):
            SweepStage(run_row=False, run_column=False)

    def test_execute_without_meter_fails_loudly(self):
        pipeline = TuningPipeline("bare", [_NotingStage([])])
        with pytest.raises(ExtractionError, match="without a measurement"):
            pipeline.execute(TuneContext())

    def test_meterless_failure_surfaces_the_real_cause(self):
        # Regression: a stage failing before any meter exists must raise its
        # own error, not the generic missing-meter message.
        pipeline = TuningPipeline("boom-first", [_ExplodingStage()])
        with pytest.raises(ExtractionError, match="boom mid-pipeline"):
            pipeline.execute(TuneContext())

    def test_execute_resolves_gate_names_from_the_meter(self, session):
        # A caller-built context without gate names must not silently fall
        # back to ("P1", "P2"); the composer resolves them from the backend.
        ctx = TuneContext(meter=session.meter)
        result, ctx = get_pipeline("fast-extraction").execute(ctx)
        assert (ctx.gate_x, ctx.gate_y) == ("P1", "P2")  # from the CSD itself
        assert result.matrix.gate_x == "P1"

    def test_execute_rejects_nameless_backend(self, clean_csd):
        from repro.instrument.measurement import ChargeSensorMeter, MeasurementBackend

        class NamelessBackend(MeasurementBackend):
            @property
            def x_voltages(self):
                return clean_csd.x_voltages

            @property
            def y_voltages(self):
                return clean_csd.y_voltages

            def currents(self, keys, times_s=None):
                return clean_csd.data.take(self.validate_keys(keys)).astype(float)

        ctx = TuneContext(meter=ChargeSensorMeter(NamelessBackend()))
        with pytest.raises(ExtractionError, match="gate names"):
            get_pipeline("fast-extraction").execute(ctx)


class TestWorkflowTelemetry:
    def test_autotune_threads_window_search_telemetry(self, double_dot_device):
        factory = SessionFactory(double_dot_device, resolution=48)
        result = AutoTuningWorkflow(factory, seed=7).run()
        stages = [t.stage for t in result.stage_telemetry]
        assert stages[:2] == ["window-search", "open-session"]
        assert "anchors" in stages and "validate" in stages
        window_row = result.stage_telemetry[0]
        assert window_row.n_probes == result.window_search.n_probes
        assert window_row.sim_elapsed_s == pytest.approx(
            result.window_search.elapsed_s
        )
        # The whole timeline's telemetry sums to the combined budget.
        assert (
            sum(t.n_probes for t in result.stage_telemetry) == result.total_probes
        )
        # The extraction result's own telemetry stays extraction-only.
        assert (
            sum(t.n_probes for t in result.extraction.stage_telemetry)
            == result.extraction.probe_stats.n_probes
        )

    def test_retuning_cycles_carry_staleness_telemetry(self):
        scenario = get_scenario("charge_jumpy")
        workflow = AutoTuningWorkflow(scenario.session_factory(resolution=48), seed=3)
        result = workflow.run_with_retuning(idle_time_s=1800.0, n_cycles=2)
        for cycle in result.cycles:
            assert cycle.stage_telemetry[0].stage == "staleness-check"
            assert (
                cycle.stage_telemetry[0].n_probes == cycle.check.n_check_pixels
            )
            if cycle.retuned:
                assert "anchors" in [t.stage for t in cycle.stage_telemetry]
        timeline = result.stage_telemetry
        assert timeline[0].stage == "window-search"
        assert sum(t.n_probes for t in timeline) == result.total_probes

    def test_workflow_accepts_ablation_pipeline_by_name(self, double_dot_device):
        factory = SessionFactory(double_dot_device, resolution=48)
        result = AutoTuningWorkflow(factory, seed=7, pipeline="no-anchors").run()
        assert result.extraction.method == "no-anchors"
        assert result.extraction.stage("anchors").n_probes == 0

    def test_workflow_runs_non_extraction_config_pipelines(self, double_dot_device):
        # Regression: the workflow used to force ExtractionConfig.paper_defaults
        # into the context, crashing any pipeline whose stages expect a
        # different config type (the dense-grid baseline reads .canny).
        factory = SessionFactory(double_dot_device, resolution=48)
        result = AutoTuningWorkflow(factory, seed=7, pipeline="baseline").run()
        assert result.extraction.method == "hough-baseline"
        assert result.extraction.stage("full-scan").n_probes == 48 * 48


class TestCampaignMethodAxis:
    def test_user_registered_pipeline_ships_to_process_workers(self, tmp_path):
        # The engine resolves pipelines in the parent and the jobs carry
        # the objects, the same treatment scenarios get — so a pipeline
        # registered only in the parent's registry still runs under a
        # process pool (a spawn-start worker would miss it otherwise).
        from repro.campaign import CampaignGrid, DeviceSpec, TuningCampaign
        from repro.pipeline import (
            AnchorStage,
            FilterStage,
            FitStage,
            SweepStage,
            ValidateStage,
        )

        name = "test-shipped-variant"
        register_pipeline(
            name,
            lambda: TuningPipeline(
                name,
                [AnchorStage(), SweepStage(), FilterStage(), FitStage(), ValidateStage()],
                default_config=ExtractionConfig.paper_defaults,
            ),
            overwrite=True,
        )
        grid = CampaignGrid(
            devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
            resolutions=(63,),
            noise_scales=(0.0,),
            methods=("fast", name),
            n_repeats=1,
            seed=4,
        )
        serial = TuningCampaign(grid).run()
        parallel = TuningCampaign(grid, backend="process:2").run()
        assert serial.normalized() == parallel.normalized()
        shipped = [r for r in serial.records if r.method == name]
        assert shipped and all(r.failure_category != "worker_error" for r in shipped)
        assert all(r.stage_telemetry for r in shipped)


class TestCli:
    def test_list_prints_catalogue(self, capsys):
        assert pipeline_cli(["--list"]) == 0
        out = capsys.readouterr().out
        for name in pipeline_names():
            assert name in out
        assert "fast -> fast-extraction" in out

    def test_stages_prints_one_pipeline(self, capsys):
        assert pipeline_cli(["--stages", "fast"]) == 0
        out = capsys.readouterr().out
        assert "fast-extraction" in out
        assert "  anchors" in out

    def test_unknown_pipeline_exits_with_error(self, capsys):
        with pytest.raises(SystemExit):
            pipeline_cli(["--stages", "nope"])
        assert "unknown pipeline" in capsys.readouterr().err


class TestMeterSnapshot:
    def test_snapshot_delta_accounts_probes_and_hits(self, clean_csd):
        session = ExperimentSession.from_csd(clean_csd)
        meter = session.meter
        before = meter.snapshot()
        meter.get_current(3, 4)
        meter.get_current(3, 4)  # cache hit
        meter.get_current(5, 6)
        delta = before.delta(meter.snapshot())
        assert delta.n_probes == 2
        assert delta.n_requests == 3
        assert delta.n_cache_hits == 1
        assert delta.elapsed_s == pytest.approx(2 * 0.05)


class TestInstrumentFaultDegradation:
    """A session whose instrument gives out degrades, never aborts."""

    def _doomed_session(self, **policy_overrides):
        from repro.faults import TransientReadFault
        from repro.instrument import ProbeRetryPolicy
        from repro.scenarios import DeviceSpec

        device = DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)).build()
        policy = dict(max_attempts=2, breaker_failures=0)
        policy.update(policy_overrides)
        return SessionFactory(
            device,
            resolution=24,
            faults=TransientReadFault(rate=1.0),
            probe_retry=ProbeRetryPolicy(**policy),
        ).make(seed=7)

    def test_exhausted_retries_fail_the_stage_not_the_run(self):
        result = get_pipeline("fast-extraction").run(self._doomed_session())
        assert not result.success
        assert "injected" in result.failure_reason
        # The probing stage records a failed telemetry row with its costs.
        assert result.stage_telemetry
        assert result.stage_telemetry[-1].outcome == "failed"

    def test_tripped_breaker_degrades_the_same_way(self):
        result = get_pipeline("fast-extraction").run(
            self._doomed_session(breaker_failures=2)
        )
        assert not result.success
        assert "circuit breaker" in result.failure_reason

    def test_failure_reasons_classify_into_the_fault_taxonomy(self):
        from repro.campaign import classify_failure

        assert (
            classify_failure("injected transient read failure at t=1.0s", False, False)
            == "instrument-fault"
        )
        assert (
            classify_failure(
                "circuit breaker open after 2 consecutive probe failures",
                False,
                False,
            )
            == "circuit-breaker"
        )
        assert (
            classify_failure(
                "probe (0, 0) stalled 5.000s, over the 1.000s timeout budget",
                False,
                False,
            )
            == "probe-timeout"
        )
