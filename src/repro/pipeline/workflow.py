"""End-to-end auto-tuning workflow: window search + fast extraction (+ retuning).

Ties together the two probe-efficient stages a real bring-up needs for each
plunger-gate pair:

1. :class:`~repro.core.window_search.TransitionWindowFinder` locates the
   voltage window containing the lowest charge transitions with a coarse scan
   (a few hundred probes over the full safe gate range);
2. the registered extraction pipeline (``fast-extraction`` by default; any
   :mod:`repro.pipeline` composition by name) extracts the virtualization
   matrix inside that window at the requested resolution.

The workflow is a stage composition: the coarse search runs as a
:class:`~repro.pipeline.stages.WindowSearchStage`, the fine session opens
through an :class:`~repro.pipeline.stages.OpenSessionStage`, and the
extraction stages follow on the same
:class:`~repro.pipeline.context.TuneContext` — so the combined probe/time
budget arrives as one per-stage telemetry sequence (window search
included), and the cost of finding the window — which the paper's
benchmarks assume has already been paid — is accounted for explicitly.

On a *time-dependent* device (:class:`~repro.physics.drift.DeviceDrift`
and/or time-dependent noise, bundled conveniently by a
:class:`~repro.scenarios.catalog.LabScenario`), a matrix extracted at time
zero goes stale: the sensor wanders, charges jump, lever arms creep.
:meth:`AutoTuningWorkflow.run_with_retuning` is the drift-aware mode: it
keeps one continuous simulated timeline, and after each idle period
*detects* staleness by re-probing a handful of reference pixels it already
paid for — a few dwell times, not a new scan — and re-extracts only when the
device has measurably moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.config import ExtractionConfig
from ..core.extraction import METHOD_NAME
from ..core.result import ExtractionResult, StageTelemetry
from ..core.window_search import WindowSearchConfig, WindowSearchResult
from ..exceptions import ConfigurationError, ExtractionError
from ..instrument.measurement import ChargeSensorMeter, DeviceBackend
from ..instrument.timing import TimingModel, VirtualClock
from ..physics.dot_array import DotArrayDevice
from ..physics.drift import DeviceDrift
from ..physics.noise import NoiseModel
from ..scenarios.catalog import LabScenario, get_scenario
from ..seeding import spawn_seeds
from .composer import TuningPipeline, run_stage
from .context import TuneContext
from .registry import get_pipeline
from .stages import OpenSessionStage, StalenessCheck, StalenessCheckStage, WindowSearchStage


@dataclass(frozen=True)
class AutoTuneResult:
    """Combined outcome of window search plus extraction for one gate pair."""

    window_search: WindowSearchResult
    extraction: ExtractionResult
    metadata: dict = field(default_factory=dict)
    stage_telemetry: tuple[StageTelemetry, ...] = ()

    @property
    def success(self) -> bool:
        """Whether the extraction stage succeeded."""
        return self.extraction.success

    @property
    def total_probes(self) -> int:
        """Probes spent on the coarse search plus the extraction."""
        return self.window_search.n_probes + self.extraction.probe_stats.n_probes

    @property
    def total_elapsed_s(self) -> float:
        """Simulated experiment time spent in both stages."""
        return self.window_search.elapsed_s + self.extraction.probe_stats.elapsed_s

    def summary(self) -> dict:
        """Flat summary combining both stages."""
        payload = self.extraction.summary()
        payload.update(
            {
                "window_x": self.window_search.x_window,
                "window_y": self.window_search.y_window,
                "window_probes": self.window_search.n_probes,
                "total_probes": self.total_probes,
                "total_elapsed_s": self.total_elapsed_s,
            }
        )
        return payload


@dataclass(frozen=True)
class RetuneCycle:
    """One idle period: the staleness check and (if stale) the re-extraction."""

    check: StalenessCheck
    extraction: ExtractionResult | None = None
    stage_telemetry: tuple[StageTelemetry, ...] = ()

    @property
    def retuned(self) -> bool:
        """Whether this cycle triggered a re-extraction."""
        return self.extraction is not None


@dataclass(frozen=True)
class DriftAwareTuneResult:
    """Everything a drift-aware tuning run produced, on one timeline."""

    initial: AutoTuneResult
    cycles: tuple[RetuneCycle, ...]
    final_elapsed_s: float
    metadata: dict = field(default_factory=dict)

    @property
    def n_retunes(self) -> int:
        """How many idle periods ended in a re-extraction."""
        return sum(1 for cycle in self.cycles if cycle.retuned)

    @property
    def final_extraction(self) -> ExtractionResult:
        """The most recent extraction (initial when nothing went stale)."""
        for cycle in reversed(self.cycles):
            if cycle.extraction is not None:
                return cycle.extraction
        return self.initial.extraction

    @property
    def total_probes(self) -> int:
        """Physical probes across search, extractions, and staleness checks."""
        probes = self.initial.total_probes
        for cycle in self.cycles:
            probes += cycle.check.n_check_pixels
            if cycle.extraction is not None:
                probes += cycle.extraction.probe_stats.n_probes
        return probes

    @property
    def stage_telemetry(self) -> tuple[StageTelemetry, ...]:
        """Every stage the whole timeline ran, in execution order."""
        telemetry = list(self.initial.stage_telemetry)
        for cycle in self.cycles:
            telemetry.extend(cycle.stage_telemetry)
        return tuple(telemetry)

    def summary(self) -> dict:
        """Flat summary of the whole timeline."""
        return {
            "initial_success": self.initial.success,
            "n_cycles": len(self.cycles),
            "n_retunes": self.n_retunes,
            "final_success": self.final_extraction.success,
            "final_alpha_12": self.final_extraction.alpha_12,
            "final_alpha_21": self.final_extraction.alpha_21,
            "total_probes": self.total_probes,
            "final_elapsed_s": self.final_elapsed_s,
            **self.metadata,
        }


class AutoTuningWorkflow:
    """Find the transition window of a gate pair, then extract virtual gates.

    ``noise``, ``drift``, and ``time_dependent_noise`` describe the simulated
    environment every stage runs under; :meth:`for_scenario` fills them from
    a registered :class:`~repro.scenarios.catalog.LabScenario`.  ``pipeline``
    names the registered extraction composition to run inside the window —
    ``"fast-extraction"`` by default, any :func:`repro.pipeline.get_pipeline`
    name (or a :class:`~repro.pipeline.composer.TuningPipeline` instance)
    otherwise, which is how ablation variants ride the full workflow.
    """

    def __init__(
        self,
        resolution: int = 100,
        extraction_config: ExtractionConfig | None = None,
        window_config: WindowSearchConfig | None = None,
        noise: NoiseModel | None = None,
        timing: TimingModel | None = None,
        seed: int | np.random.SeedSequence | None = None,
        drift: DeviceDrift | None = None,
        time_dependent_noise: bool = False,
        pipeline: str | object | None = None,
    ) -> None:
        if resolution < 16:
            raise ExtractionError("resolution must be at least 16")
        self._resolution = int(resolution)
        # None lets the pipeline's own default configuration win, which is
        # what makes non-ExtractionConfig compositions (the dense-grid
        # baseline) runnable through the workflow; the registered fast
        # pipelines default to ExtractionConfig.paper_defaults() anyway.
        self._extraction_config = extraction_config
        self._window_config = window_config or WindowSearchConfig()
        self._noise = noise
        self._timing = timing or TimingModel.paper_default()
        self._seed = seed
        self._drift = drift
        self._time_dependent_noise = bool(time_dependent_noise)
        self._pipeline_spec = pipeline or METHOD_NAME

    @classmethod
    def for_scenario(
        cls,
        scenario: LabScenario | str,
        resolution: int = 100,
        extraction_config: ExtractionConfig | None = None,
        window_config: WindowSearchConfig | None = None,
        seed: int | np.random.SeedSequence | None = None,
        pipeline: str | object | None = None,
    ) -> "AutoTuningWorkflow":
        """A workflow configured for a (possibly named) lab scenario.

        Raises :class:`ConfigurationError` for a scenario with fault
        injection: no probe path of the workflow applies faults, so running
        it would silently tune a fault-free lab.
        """
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        if scenario.faults is not None:
            raise ConfigurationError(
                f"scenario {scenario.name!r} injects faults, which "
                "AutoTuningWorkflow does not apply; run it through "
                "LabScenario.open_session or a TuningCampaign instead"
            )
        return cls(
            resolution=resolution,
            extraction_config=extraction_config,
            window_config=window_config,
            noise=scenario.noise,
            timing=scenario.timing,
            seed=seed,
            drift=scenario.drift,
            time_dependent_noise=scenario.time_dependent_noise,
            pipeline=pipeline,
        )

    def _pipeline(self):
        """The extraction pipeline instance for this run."""
        if isinstance(self._pipeline_spec, TuningPipeline):
            return self._pipeline_spec
        return get_pipeline(str(self._pipeline_spec))

    def _window_search_stage(
        self,
        device: DotArrayDevice,
        gate_x: int | str,
        gate_y: int | str,
        x_range: tuple[float, float] | None,
        y_range: tuple[float, float] | None,
        seed: np.random.SeedSequence,
    ):
        """The coarse-search stage under this workflow's environment.

        One construction point for both :meth:`run` and
        :meth:`run_with_retuning`, so the two modes cannot drift apart in
        which noise/drift/timing the window is searched under.
        """
        return WindowSearchStage(
            device,
            gate_x=gate_x,
            gate_y=gate_y,
            x_range=x_range,
            y_range=y_range,
            noise=self._noise,
            seed=seed,
            timing=self._timing,
            config=self._window_config,
            drift=self._drift,
            time_dependent_noise=self._time_dependent_noise,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        device: DotArrayDevice,
        gate_x: int | str = "P1",
        gate_y: int | str = "P2",
        dot_a: int = 0,
        dot_b: int = 1,
        x_range: tuple[float, float] | None = None,
        y_range: tuple[float, float] | None = None,
    ) -> AutoTuneResult:
        """Run the full stage composition against a simulated device."""
        # Spawned children keep the two stages' noise streams independent of
        # each other and of neighbouring root seeds (seed + 1 would collide
        # with the window-search stream of a run rooted at seed + 1).
        window_seed, extraction_seed = spawn_seeds(self._seed, 2)
        ctx = TuneContext(config=self._extraction_config)
        setup_telemetry: list[StageTelemetry] = []
        run_stage(
            self._window_search_stage(
                device, gate_x, gate_y, x_range, y_range, window_seed
            ),
            ctx,
            setup_telemetry,
        )
        run_stage(
            OpenSessionStage(
                device,
                resolution=self._resolution,
                gate_x=gate_x,
                gate_y=gate_y,
                dot_a=dot_a,
                dot_b=dot_b,
                noise=self._noise,
                seed=extraction_seed,
                timing=self._timing,
                drift=self._drift,
                time_dependent_noise=self._time_dependent_noise,
                label=f"{device.name}:autotune",
            ),
            ctx,
            setup_telemetry,
        )
        extraction, ctx = self._pipeline().execute(ctx)
        return AutoTuneResult(
            window_search=ctx.window,
            extraction=extraction,
            metadata={
                "device": device.name,
                "gate_x": str(gate_x),
                "gate_y": str(gate_y),
                "resolution": self._resolution,
            },
            stage_telemetry=tuple(setup_telemetry) + extraction.stage_telemetry,
        )

    def run_with_retuning(
        self,
        device: DotArrayDevice,
        gate_x: int | str = "P1",
        gate_y: int | str = "P2",
        idle_time_s: float = 600.0,
        n_cycles: int = 3,
        staleness_threshold_na: float = 0.08,
        n_check_pixels: int = 16,
        x_range: tuple[float, float] | None = None,
        y_range: tuple[float, float] | None = None,
    ) -> DriftAwareTuneResult:
        """Tune, then watch the device age and re-extract when it moves.

        One continuous simulated timeline: the coarse window search, the
        initial extraction, then ``n_cycles`` idle periods of
        ``idle_time_s``.  After each idle period a
        :class:`~repro.pipeline.stages.StalenessCheckStage` re-probes
        ``n_check_pixels`` of the pixels the last extraction already
        measured (a few dwell times of cost) and compares against the stored
        values; a maximum deviation beyond ``staleness_threshold_na``
        declares the virtualization matrix stale and triggers a fresh
        extraction *at the device's current age* on the same window.

        Returns the initial result plus every check and re-extraction —
        with per-stage telemetry on one timeline — so callers can see both
        how often the environment forced a retune and what each retune cost.
        """
        if idle_time_s < 0:
            raise ExtractionError("idle_time_s must be non-negative")
        if n_cycles < 1:
            raise ExtractionError("n_cycles must be at least 1")
        if staleness_threshold_na <= 0:
            raise ExtractionError("staleness_threshold_na must be positive")
        if n_check_pixels < 1:
            raise ExtractionError("n_check_pixels must be at least 1")
        window_seed, extraction_seed = spawn_seeds(self._seed, 2)
        setup_ctx = TuneContext(config=self._extraction_config)
        setup_telemetry: list[StageTelemetry] = []
        run_stage(
            self._window_search_stage(
                device, gate_x, gate_y, x_range, y_range, window_seed
            ),
            setup_ctx,
            setup_telemetry,
        )
        window_result = setup_ctx.window
        (x_min, x_max), (y_min, y_max) = window_result.window
        backend = DeviceBackend(
            device,
            x_voltages=np.linspace(x_min, x_max, self._resolution),
            y_voltages=np.linspace(y_min, y_max, self._resolution),
            gate_x=gate_x,
            gate_y=gate_y,
            noise=self._noise,
            seed=extraction_seed,
            drift=self._drift,
            time_dependent_noise=self._time_dependent_noise,
            probe_interval_s=self._timing.cost_per_probe_s,
        )
        # One clock for the whole timeline; the coarse search already spent
        # simulated time, so the fine stages start aged by that much.
        clock = VirtualClock(self._timing)
        clock.advance(window_result.elapsed_s)
        pipeline = self._pipeline()

        initial_extraction, meter = self._extract_stage(pipeline, backend, clock)
        initial = AutoTuneResult(
            window_search=window_result,
            extraction=initial_extraction,
            metadata={
                "device": device.name,
                "gate_x": str(gate_x),
                "gate_y": str(gate_y),
                "resolution": self._resolution,
            },
            stage_telemetry=tuple(setup_telemetry)
            + initial_extraction.stage_telemetry,
        )
        check_rows, check_cols, reference = self._reference_pixels(
            meter, n_check_pixels
        )

        cycles: list[RetuneCycle] = []
        for _ in range(n_cycles):
            clock.advance(idle_time_s)
            cycle_ctx = TuneContext(config=self._extraction_config)
            cycle_telemetry: list[StageTelemetry] = []
            run_stage(
                StalenessCheckStage(
                    backend,
                    clock,
                    check_rows,
                    check_cols,
                    reference,
                    staleness_threshold_na,
                ),
                cycle_ctx,
                cycle_telemetry,
            )
            check: StalenessCheck = cycle_ctx.extras["staleness_check"]
            extraction: ExtractionResult | None = None
            if check.stale:
                extraction, retune_meter = self._extract_stage(
                    pipeline, backend, clock
                )
                cycle_telemetry.extend(extraction.stage_telemetry)
                check_rows, check_cols, reference = self._reference_pixels(
                    retune_meter, n_check_pixels
                )
            cycles.append(
                RetuneCycle(
                    check=check,
                    extraction=extraction,
                    stage_telemetry=tuple(cycle_telemetry),
                )
            )
        return DriftAwareTuneResult(
            initial=initial,
            cycles=tuple(cycles),
            final_elapsed_s=clock.elapsed_s,
            metadata={
                "device": device.name,
                "idle_time_s": idle_time_s,
                "staleness_threshold_na": staleness_threshold_na,
            },
        )

    # ------------------------------------------------------------------
    def _extract_stage(
        self,
        pipeline,
        backend: DeviceBackend,
        clock: VirtualClock,
    ) -> tuple[ExtractionResult, ChargeSensorMeter]:
        """One extraction on the shared timeline, with *stage-local* cost.

        The shared clock reads absolute timeline age, so the raw
        ``probe_stats.elapsed_s`` would include everything that happened
        before this stage (window search, earlier cycles); rewrite it to the
        time this extraction itself consumed.  The per-stage telemetry is
        snapshot-diffed and therefore already stage-local.
        """
        started_s = clock.elapsed_s
        meter = ChargeSensorMeter(backend, clock=clock)
        ctx = TuneContext(meter=meter, config=self._extraction_config)
        result, _ = pipeline.execute(ctx)
        stats = replace(result.probe_stats, elapsed_s=clock.elapsed_s - started_s)
        return replace(result, probe_stats=stats), meter

    @staticmethod
    def _reference_pixels(
        meter: ChargeSensorMeter, n_check_pixels: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evenly spaced sample of the meter's measured pixels + their values."""
        measured = meter.log.unique_pixels()
        if not measured:
            raise ExtractionError(
                "no measured pixels to build staleness references from"
            )
        indices = np.unique(
            np.linspace(0, len(measured) - 1, min(n_check_pixels, len(measured)))
            .round()
            .astype(int)
        )
        pixels = np.asarray(measured, dtype=np.int64)[indices]
        rows = pixels[:, 0]
        cols = pixels[:, 1]
        image = meter.measured_image()
        return rows, cols, image[rows, cols]
