"""The pipeline composer: run stages in order, charging each for its cost.

:func:`run_stage` is the accounting primitive — it wraps one
:class:`~repro.pipeline.context.Stage` with a meter snapshot/diff
(:meth:`~repro.instrument.measurement.ChargeSensorMeter.snapshot`) and a
wall-clock timer, and converts the outcome into one
:class:`~repro.core.result.StageTelemetry` row.  :class:`TuningPipeline`
strings stages together over a shared :class:`~repro.pipeline.context.TuneContext`
and assembles the final :class:`~repro.core.result.ExtractionResult`,
reproducing the pre-pipeline extractors' semantics exactly:

* a stage raising :class:`~repro.exceptions.ExtractionError` — or an
  :class:`~repro.exceptions.InstrumentFault`, when an injected fault
  exhausts the meter's retry budget — yields an *unsuccessful* result
  carrying every artifact and telemetry row produced before the failure
  (an extraction that fails on a device is an expected, counted outcome —
  two of the paper's twelve benchmarks fail);
* a stage returning ``status="failed"`` (validation) also yields an
  unsuccessful result but keeps the rejected matrix visible for diagnosis;
* probe statistics come from the meter's totals, so per-stage telemetry
  sums to the result's :class:`~repro.core.result.ProbeStatistics` by
  construction.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable

from ..core.extraction import gate_names_for, resolve_meter
from ..core.result import ExtractionResult, ProbeStatistics, StageTelemetry
from ..exceptions import ExtractionError, InstrumentFault
from ..instrument.measurement import ChargeSensorMeter
from ..instrument.session import ExperimentSession
from .context import Stage, StageOutcome, TuneContext

__all__ = ["TuningPipeline", "run_stage"]


def run_stage(
    stage: Stage, ctx: TuneContext, telemetry: list[StageTelemetry]
) -> StageOutcome:
    """Run one stage with cost accounting; append its telemetry row.

    Costs come from diffing ``ctx.meter`` snapshots around the stage unless
    the stage's outcome carries explicit overrides (stages probing through a
    private meter).  A stage that raises :class:`ExtractionError` — or an
    :class:`~repro.exceptions.InstrumentFault`, the typed surface of an
    injected fault that exhausted the meter's retry budget — still gets its
    telemetry row (outcome ``"failed"``, costs up to the raise) before the
    exception propagates to the caller.
    """
    meter_before = ctx.meter
    before = meter_before.snapshot() if meter_before is not None else None
    started_wall = time.perf_counter()  # repro: allow[wall-clock] -- StageTelemetry.wall_s profiling timer; normalized() pins it for determinism checks
    try:
        outcome = stage.run(ctx) or StageOutcome()
    except (ExtractionError, InstrumentFault) as exc:
        telemetry.append(
            _telemetry_row(
                stage,
                StageOutcome(status="failed", detail=str(exc)),
                before,
                meter_before,
                ctx,
                time.perf_counter() - started_wall,  # repro: allow[wall-clock] -- telemetry-only wall duration
            )
        )
        raise
    telemetry.append(
        _telemetry_row(
            stage, outcome, before, meter_before, ctx,
            time.perf_counter() - started_wall,  # repro: allow[wall-clock] -- telemetry-only wall duration
        )
    )
    return outcome


def _telemetry_row(
    stage: Stage,
    outcome: StageOutcome,
    before,
    meter_before: ChargeSensorMeter | None,
    ctx: TuneContext,
    wall_s: float,
) -> StageTelemetry:
    """Build one telemetry row from snapshots and/or outcome overrides."""
    if outcome.has_cost_override:
        n_probes = outcome.n_probes or 0
        n_requests = outcome.n_requests or 0
        cache_hits = outcome.cache_hits or 0
        sim_s = outcome.sim_elapsed_s or 0.0
    elif before is not None and ctx.meter is meter_before:
        delta = before.delta(ctx.meter.snapshot())
        n_probes = delta.n_probes
        n_requests = delta.n_requests
        cache_hits = delta.n_cache_hits
        sim_s = delta.elapsed_s
    else:
        # No meter existed around the stage (or the stage swapped it out):
        # without overrides there is nothing to charge.
        n_probes = n_requests = cache_hits = 0
        sim_s = 0.0
    return StageTelemetry(
        stage=stage.name,
        outcome=outcome.status,
        n_probes=n_probes,
        n_requests=n_requests,
        cache_hits=cache_hits,
        sim_elapsed_s=sim_s,
        wall_s=wall_s,
        detail=outcome.detail,
    )


class TuningPipeline:
    """A named, ordered composition of tuning stages.

    Parameters
    ----------
    name:
        Registry/display name of the composition (``"fast-extraction"``).
    stages:
        The ordered :class:`~repro.pipeline.context.Stage` instances.
    method_name:
        The ``method`` string stamped into results; defaults to ``name``.
        The dense-grid baseline keeps its historical ``"hough-baseline"``
        method label under the registry name ``"dense-grid-baseline"``.
    default_config:
        Zero-argument factory for the configuration used when a run does
        not supply one (``ExtractionConfig.paper_defaults`` for the fast
        pipelines, ``BaselineConfig`` for the dense-grid baseline).
    description:
        One-line summary for the registry listing and the CLI.
    """

    def __init__(
        self,
        name: str,
        stages: Iterable[Stage],
        method_name: str | None = None,
        default_config: Callable[[], object] | None = None,
        description: str = "",
    ) -> None:
        self._name = str(name)
        self._stages = tuple(stages)
        if not self._stages:
            raise ExtractionError(f"pipeline {name!r} needs at least one stage")
        self._method_name = method_name or self._name
        self._default_config = default_config
        self._description = description

    def __repr__(self) -> str:
        # Content-based (address-free) on purpose: pipelines ship to spawn
        # workers and feed checkpoint fingerprints, so the repr must be
        # stable across processes.  The config factory renders by qualified
        # name — a function object's default repr embeds its address.
        config = (
            getattr(self._default_config, "__qualname__", None)
            if self._default_config is not None
            else None
        )
        return (
            f"TuningPipeline(name={self._name!r}, method={self._method_name!r}, "
            f"stages={list(self._stages)!r}, default_config={config})"
        )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Registry name of the composition."""
        return self._name

    @property
    def method_name(self) -> str:
        """The ``method`` string stamped into extraction results."""
        return self._method_name

    @property
    def stages(self) -> tuple[Stage, ...]:
        """The ordered stage instances."""
        return self._stages

    @property
    def stage_names(self) -> tuple[str, ...]:
        """The stage names, in execution order."""
        return tuple(stage.name for stage in self._stages)

    @property
    def description(self) -> str:
        """One-line summary of the composition."""
        return self._description

    def default_config(self):
        """A fresh default configuration object (or ``None``)."""
        return self._default_config() if self._default_config is not None else None

    # ------------------------------------------------------------------
    def run(
        self,
        target: ExperimentSession | ChargeSensorMeter,
        config: object | None = None,
    ) -> ExtractionResult:
        """Run the full composition against a session (or bare meter)."""
        meter = resolve_meter(target)
        gate_x, gate_y = gate_names_for(target)
        ctx = TuneContext(
            meter=meter,
            session=target if isinstance(target, ExperimentSession) else None,
            config=config if config is not None else self.default_config(),
            gate_x=gate_x,
            gate_y=gate_y,
            clock=meter.clock,
        )
        result, _ = self.execute(ctx)
        return result

    def execute(self, ctx: TuneContext) -> tuple[ExtractionResult, TuneContext]:
        """Run the stages over a caller-built context.

        This is the composition seam the workflow layer uses: the caller
        owns the context (and may have run setup stages like the window
        search against it already); only the telemetry of *this* pipeline's
        stages lands in the returned result.  Gate names left unset are
        resolved from the meter's backend — loudly, so a custom backend
        without name attributes cannot produce a mislabeled matrix.
        """
        if ctx.config is None:
            ctx.config = self.default_config()
        if ctx.meter is not None and (ctx.gate_x is None or ctx.gate_y is None):
            ctx.gate_x, ctx.gate_y = gate_names_for(ctx.meter)
        telemetry: list[StageTelemetry] = []
        failure: str | None = None
        failure_exc: Exception | None = None
        for stage in self._stages:
            try:
                outcome = run_stage(stage, ctx, telemetry)
            except (ExtractionError, InstrumentFault) as exc:
                # InstrumentFault: an injected fault outlived the meter's
                # retry budget (or tripped its breaker) mid-stage.  Like an
                # extraction failure it is an expected, counted outcome —
                # the run degrades to an unsuccessful result with telemetry
                # intact instead of aborting the caller's campaign job.
                failure = str(exc)
                failure_exc = exc
                break
            if outcome.status == "failed":
                failure = outcome.detail or f"stage {stage.name!r} failed"
                break
        if ctx.meter is None:
            # Without a meter there are no probe statistics to report, so a
            # failure-as-result cannot be assembled — but a real stage
            # failure must not be masked by the missing-meter message.
            if failure_exc is not None:
                raise failure_exc
            raise ExtractionError(
                f"pipeline {self._name!r} finished without a measurement "
                "meter in its context; a setup stage must provide one"
                + (f" (stage failure: {failure})" if failure else "")
            )
        return (
            ExtractionResult(
                success=failure is None,
                method=self._method_name,
                matrix=ctx.matrix,
                slopes=ctx.slopes,
                probe_stats=ProbeStatistics(
                    n_probes=ctx.meter.n_probes,
                    n_requests=ctx.meter.n_requests,
                    n_pixels=ctx.meter.backend.n_pixels,
                    elapsed_s=ctx.meter.elapsed_s,
                ),
                anchors=ctx.anchors,
                points=ctx.points,
                fit=ctx.fit,
                failure_reason=failure or "",
                metadata=dict(ctx.metadata),
                stage_telemetry=tuple(telemetry),
            ),
            ctx,
        )
