"""End-to-end auto-tuning workflow: window search + fast extraction (+ retuning).

Ties together the two probe-efficient stages a real bring-up needs for each
plunger-gate pair of one simulated lab, described by a
:class:`~repro.instrument.session.SessionFactory`:

1. :class:`~repro.core.window_search.TransitionWindowFinder` locates the
   voltage window containing the lowest charge transitions with a coarse scan
   (a few hundred probes over the full safe gate range), on a session the
   factory opens at the coarse resolution;
2. the registered extraction pipeline (``fast-extraction`` by default; any
   :mod:`repro.pipeline` composition by name) extracts the virtualization
   matrix inside that window, on a session the factory opens at its own
   resolution.

Both grids open through :meth:`SessionFactory.make
<repro.instrument.session.SessionFactory.make>`, so the factory's noise,
drift, timing, faults and retry policy reach every probe the workflow
makes.  The workflow is a stage composition: the coarse search runs as a
:class:`~repro.pipeline.stages.WindowSearchStage`, the fine session opens
through an :class:`~repro.pipeline.stages.OpenSessionStage`, and the
extraction stages follow on the same
:class:`~repro.pipeline.context.TuneContext` — so the combined probe/time
budget arrives as one per-stage telemetry sequence (window search
included), and the cost of finding the window — which the paper's
benchmarks assume has already been paid — is accounted for explicitly.

On a *time-dependent* device (:class:`~repro.physics.drift.DeviceDrift`
and/or time-dependent noise, bundled conveniently by a
:class:`~repro.scenarios.catalog.LabScenario`, whose
``session_factory(resolution=...)`` is a ready factory), a matrix extracted
at time zero goes stale: the sensor wanders, charges jump, lever arms creep.
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
from ..exceptions import ExtractionError
from ..instrument.measurement import ChargeSensorMeter
from ..instrument.session import SessionFactory
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

    ``factory`` is the simulated lab every stage measures: the device, the
    fine resolution, and the noise, timing, drift, time-dependence, faults
    and retry policy of every session the workflow opens.  A registered
    scenario's lab is ``scenario.session_factory(resolution=...)``.
    ``pipeline`` names the registered extraction composition to run inside
    the window — ``"fast-extraction"`` by default, any
    :func:`repro.pipeline.get_pipeline` name (or a
    :class:`~repro.pipeline.composer.TuningPipeline` instance) otherwise,
    which is how ablation variants ride the full workflow.
    """

    def __init__(
        self,
        factory: SessionFactory,
        extraction_config: ExtractionConfig | None = None,
        window_config: WindowSearchConfig | None = None,
        seed: int | np.random.SeedSequence | None = None,
        pipeline: str | object | None = None,
    ) -> None:
        if min(np.ravel(factory.resolution)) < 16:
            raise ExtractionError("resolution must be at least 16")
        self._factory = factory
        # None lets the pipeline's own default configuration win, which is
        # what makes non-ExtractionConfig compositions (the dense-grid
        # baseline) runnable through the workflow; the registered fast
        # pipelines default to ExtractionConfig.paper_defaults() anyway.
        self._extraction_config = extraction_config
        self._window_config = window_config or WindowSearchConfig()
        self._seed = seed
        self._pipeline_spec = pipeline or METHOD_NAME

    def _pipeline(self):
        """The extraction pipeline instance for this run."""
        if isinstance(self._pipeline_spec, TuningPipeline):
            return self._pipeline_spec
        return get_pipeline(str(self._pipeline_spec))

    def _coarse_meter(
        self,
        gate_x: int | str,
        gate_y: int | str,
        x_range: tuple[float, float] | None,
        y_range: tuple[float, float] | None,
        seed: np.random.SeedSequence,
    ) -> ChargeSensorMeter:
        """The coarse scan's meter over the gates' safe ranges (or the given ones).

        The coarse session is the factory's lab at the coarse resolution,
        so :meth:`run` and :meth:`run_with_retuning` search under the same
        noise, drift, timing and faults as they extract.
        """
        device = self._factory.device
        spec_x = device.gate_specs[device.gate_index(gate_x)]
        spec_y = device.gate_specs[device.gate_index(gate_y)]
        window = (
            x_range or (spec_x.min_voltage, spec_x.max_voltage),
            y_range or (spec_y.min_voltage, spec_y.max_voltage),
        )
        coarse = replace(self._factory, resolution=self._window_config.coarse_resolution)
        return coarse.make(gate_x=gate_x, gate_y=gate_y, window=window, seed=seed).meter

    def _metadata(self, gate_x: int | str, gate_y: int | str) -> dict:
        return {
            "device": self._factory.device.name,
            "gate_x": str(gate_x),
            "gate_y": str(gate_y),
            "resolution": self._factory.resolution,
        }

    # ------------------------------------------------------------------
    def run(
        self,
        gate_x: int | str = "P1",
        gate_y: int | str = "P2",
        dot_a: int = 0,
        dot_b: int = 1,
        x_range: tuple[float, float] | None = None,
        y_range: tuple[float, float] | None = None,
    ) -> AutoTuneResult:
        """Run the full stage composition against the factory's device."""
        # Spawned children keep the two stages' noise streams independent of
        # each other and of neighbouring root seeds (seed + 1 would collide
        # with the window-search stream of a run rooted at seed + 1).
        window_seed, extraction_seed = spawn_seeds(self._seed, 2)
        ctx = TuneContext(
            meter=self._coarse_meter(gate_x, gate_y, x_range, y_range, window_seed),
            config=self._extraction_config,
        )
        setup_telemetry: list[StageTelemetry] = []
        run_stage(WindowSearchStage(self._window_config), ctx, setup_telemetry)
        run_stage(
            OpenSessionStage(
                self._factory,
                gate_x,
                gate_y,
                dot_a,
                dot_b,
                extraction_seed,
                f"{self._factory.device.name}:autotune",
            ),
            ctx,
            setup_telemetry,
        )
        extraction, ctx = self._pipeline().execute(ctx)
        return AutoTuneResult(
            window_search=ctx.window,
            extraction=extraction,
            metadata=self._metadata(gate_x, gate_y),
            stage_telemetry=tuple(setup_telemetry) + extraction.stage_telemetry,
        )

    def run_with_retuning(
        self,
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

        The fine window is one session the factory opens; every extraction
        and check probes its backend on its clock, through a fresh meter
        with the session meter's retry policy.

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
        setup_ctx = TuneContext(
            meter=self._coarse_meter(gate_x, gate_y, x_range, y_range, window_seed),
            config=self._extraction_config,
        )
        setup_telemetry: list[StageTelemetry] = []
        run_stage(WindowSearchStage(self._window_config), setup_ctx, setup_telemetry)
        window_result = setup_ctx.window
        session_meter = self._factory.make(
            gate_x=gate_x, gate_y=gate_y, window=window_result.window, seed=extraction_seed
        ).meter
        # One clock for the whole timeline; the coarse search already spent
        # simulated time, so the fine stages start aged by that much.
        clock = session_meter.clock
        clock.advance(window_result.elapsed_s)
        pipeline = self._pipeline()

        initial_extraction, meter = self._extract_stage(pipeline, session_meter)
        initial = AutoTuneResult(
            window_search=window_result,
            extraction=initial_extraction,
            metadata=self._metadata(gate_x, gate_y),
            stage_telemetry=tuple(setup_telemetry)
            + initial_extraction.stage_telemetry,
        )
        check_rows, check_cols, reference = self._reference_pixels(
            meter, n_check_pixels
        )

        cycles: list[RetuneCycle] = []
        for _ in range(n_cycles):
            clock.advance(idle_time_s)
            # A fresh meter pays for every reference pixel: they are
            # distinct, so each is one physical probe on the shared clock.
            cycle_ctx = TuneContext(
                meter=ChargeSensorMeter(
                    session_meter.backend, clock=clock, retry=session_meter.retry
                ),
                config=self._extraction_config,
            )
            cycle_telemetry: list[StageTelemetry] = []
            run_stage(
                StalenessCheckStage(
                    check_rows, check_cols, reference, staleness_threshold_na
                ),
                cycle_ctx,
                cycle_telemetry,
            )
            check: StalenessCheck = cycle_ctx.extras["staleness_check"]
            extraction: ExtractionResult | None = None
            if check.stale:
                extraction, retune_meter = self._extract_stage(pipeline, session_meter)
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
                "device": self._factory.device.name,
                "idle_time_s": idle_time_s,
                "staleness_threshold_na": staleness_threshold_na,
            },
        )

    # ------------------------------------------------------------------
    def _extract_stage(
        self, pipeline, session_meter: ChargeSensorMeter
    ) -> tuple[ExtractionResult, ChargeSensorMeter]:
        """One extraction on the shared timeline, with *stage-local* cost.

        Probes through a fresh meter (its own pixel cache) on the session's
        backend and clock.  The shared clock reads absolute timeline age, so
        the raw ``probe_stats.elapsed_s`` would include everything that
        happened before this stage (window search, earlier cycles); rewrite
        it to the time this extraction itself consumed.  The per-stage
        telemetry is snapshot-diffed and therefore already stage-local.
        """
        clock = session_meter.clock
        started_s = clock.elapsed_s
        meter = ChargeSensorMeter(
            session_meter.backend, clock=clock, retry=session_meter.retry
        )
        ctx = TuneContext(meter=meter, config=self._extraction_config)
        result, _ = pipeline.execute(ctx)
        stats = replace(result.probe_stats, elapsed_s=clock.elapsed_s - started_s)
        return replace(result, probe_stats=stats), meter

    @staticmethod
    def _reference_pixels(
        meter: ChargeSensorMeter, n_check_pixels: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Evenly spaced sample of the meter's measured pixels + their values."""
        rows, cols = meter.probed_pixels()
        if not rows.size:
            raise ExtractionError(
                "no measured pixels to build staleness references from"
            )
        indices = np.unique(
            np.linspace(0, rows.size - 1, min(n_check_pixels, rows.size))
            .round()
            .astype(int)
        )
        rows, cols = rows[indices], cols[indices]
        return rows, cols, meter.measured_image()[rows, cols]
