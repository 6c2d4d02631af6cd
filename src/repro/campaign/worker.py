"""Execution of a single campaign job, isolated and picklable.

:func:`run_campaign_job` is the unit of work a :class:`~repro.campaign.engine.TuningCampaign`
dispatches: open the job's session (replay its stored diagram, or measure
its device), run the job's pipeline, score it against the session's ground
truth, and condense everything into a flat
:class:`~repro.campaign.results.CampaignJobRecord`.  It is the one place an
extraction is scored: grids, scenario spaces, Table 1, the ablations and the
noise and resolution sweeps (:mod:`repro.campaign.experiments`) all run
through it.
The job carries its resolved scenario, pipeline and fault models
(:func:`~repro.campaign.grid.resolve_jobs`), so the worker reads only the
job and never a registry.  It is a module-level function of picklable
arguments so a process pool can ship it to workers, and it never raises:
an unexpected exception becomes a failed record with the ``"crash"``
category, so one broken job cannot take down a 1000-job campaign.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Callable

from ..analysis.metrics import SuccessCriterion, accuracy_metrics
from ..core.result import ExtractionResult
from ..faults import inject_worker_faults, models_for, probe_fault_models
from ..instrument.resilience import ProbeRetryPolicy
from ..instrument.session import ExperimentSession, SessionFactory
from .grid import CampaignJob, noise_for_scale, resolve_jobs
from .results import CampaignJobRecord

#: Probe retry policy a fault-axis job runs under when neither the scenario
#: nor the factory sets one: a few bounded attempts with the breaker armed,
#: so the built-in fault conditions are survivable out of the box while a
#: genuinely dead instrument still fails loudly.
DEFAULT_FAULT_RETRY = ProbeRetryPolicy()

#: Ordered (pattern, category) rules matched against lower-cased failure
#: reasons.  First hit wins; the patterns mirror the messages raised by the
#: extraction pipeline and its validators.
_FAILURE_RULES: tuple[tuple[str, str], ...] = (
    # Instrument-fault rules come first, the breaker's before the others:
    # its message quotes the fault that tripped it, and first hit wins.
    ("circuit breaker", "circuit-breaker"),
    ("timeout budget", "probe-timeout"),
    ("injected", "instrument-fault"),
    ("did not converge", "fit-divergence"),
    ("did not produce a fit", "no-fit"),
    ("not finite", "non-finite-slopes"),
    ("must both be negative", "slope-sign"),
    ("slope magnitude", "slope-bounds"),
    ("alpha_", "alpha-range"),
    ("too few", "too-few-points"),
    ("need at least", "too-few-points"),
    ("anchor", "anchor-search"),
    ("transition", "no-transition"),
)


def classify_failure(reason: str, extractor_success: bool, matched_truth: bool) -> str:
    """Map a failure reason onto a small stable taxonomy for aggregation."""
    if extractor_success and matched_truth:
        return "ok"
    if extractor_success and not matched_truth:
        return "truth-mismatch"
    lowered = reason.lower()
    for pattern, category in _FAILURE_RULES:
        if pattern in lowered:
            return category
    return "other"


def _base_record_fields(job: CampaignJob) -> dict:
    """Record fields that come straight from the job spec."""
    return {
        "job_id": job.job_id,
        "label": job.label,
        "device": job.device_name,
        "method": job.method,
        "resolution": job.resolution,
        "noise_scale": job.noise_scale,
        "repeat": job.repeat,
        "gate_x": job.gate_x,
        "gate_y": job.gate_y,
        "scenario": job.scenario,
        "fault": job.fault,
    }


def _open_device_session(job: CampaignJob) -> ExperimentSession:
    """A session measuring the job's device in its environment and faults."""
    device = job.device.build()
    if job.environment is not None:
        # The scenario supplies the environment (noise, drift, timing,
        # time-dependence); the grid supplies the device under test.
        # Grid-expanded scenario jobs carry noise_scale 1 (the scenario
        # as registered); hand-crafted jobs may scale the scenario noise.
        factory = job.environment.scaled(job.noise_scale).session_factory(
            device=device, resolution=job.resolution
        )
    else:
        factory = SessionFactory(
            device=device,
            resolution=job.resolution,
            noise=noise_for_scale(job.noise_scale),
        )
    probe_models = probe_fault_models(job.fault_models)
    if probe_models:
        # Compose with (not replace) any faults the scenario itself
        # bakes in; the scenario's own retry policy wins when set.
        factory = replace(
            factory,
            faults=models_for(factory.faults) + probe_models,
            probe_retry=factory.probe_retry or DEFAULT_FAULT_RETRY,
        )
    return factory.make(
        gate_x=job.gate_x,
        gate_y=job.gate_y,
        dot_a=job.dot_a,
        dot_b=job.dot_b,
        seed=job.seed,
        label=job.label,
    )


def run_campaign_job(
    job: CampaignJob, criterion: SuccessCriterion | None = None
) -> CampaignJobRecord:
    """Run one campaign job and return its condensed, picklable record.

    A job with a stored ``diagram`` replays it through
    :meth:`~repro.instrument.session.ExperimentSession.from_csd` at the
    paper's timing; any other job measures its device through a
    :class:`~repro.instrument.session.SessionFactory`.  The worker reads
    only the job: its ``environment`` scenario (scaled by the job's
    ``noise_scale``), its ``pipeline`` and its ``fault_models``.  The
    engine resolves them in the parent, so entries registered only there
    reach spawn-start workers too; an unresolved job from a direct call
    goes through the same :func:`~repro.campaign.grid.resolve_jobs`, which
    raises :class:`~repro.exceptions.ConfigurationError` for an unknown
    name before the job starts.

    A job with fault models runs its worker-scope models *before* the
    never-raise envelope below: an injected crash must escape this
    function (hard process exit in a pool worker,
    :class:`~repro.exceptions.WorkerCrashError` in-process) so every
    backend condenses it into the same ``"worker_error"`` record, rather
    than the in-process paths downgrading it to a ``"crash"`` record.
    Probe-scope models wrap the session's measurement backend, and the
    session runs under :data:`DEFAULT_FAULT_RETRY` unless the scenario
    already sets a probe-retry policy.
    """
    criterion = criterion or SuccessCriterion()
    (job,) = resolve_jobs((job,))
    inject_worker_faults(job.job_id, job.fault_models, job.seed)
    started = time.perf_counter()
    try:
        if job.diagram is not None:
            session = ExperimentSession.from_csd(job.diagram, label=job.label)
        else:
            session = _open_device_session(job)
        result: ExtractionResult = job.pipeline.run(session)
        geometry = session.geometry
        matched = criterion.evaluate(result, geometry)
        max_alpha_error = float("nan")  # repro: allow[nan-record-field] -- documented sentinel: no ground-truth geometry => error undefined; tagged-JSON + NaN-aware equality handle it
        true_alpha_12 = true_alpha_21 = None
        if geometry is not None:
            true_alpha_12 = geometry.alpha_12
            true_alpha_21 = geometry.alpha_21
            max_alpha_error = accuracy_metrics(result, geometry).max_alpha_error
        category = classify_failure(result.failure_reason, result.success, matched)
        return CampaignJobRecord(
            **_base_record_fields(job),
            success=matched,
            extractor_success=result.success,
            alpha_12=result.alpha_12,
            alpha_21=result.alpha_21,
            true_alpha_12=true_alpha_12,
            true_alpha_21=true_alpha_21,
            max_alpha_error=max_alpha_error,
            n_probes=result.probe_stats.n_probes,
            probe_fraction=result.probe_stats.probe_fraction,
            sim_elapsed_s=result.probe_stats.elapsed_s,
            wall_elapsed_s=time.perf_counter() - started,
            failure_category=category,
            failure_reason=result.failure_reason if not matched else "",
            n_probe_retries=session.meter.n_probe_retries,
            stage_telemetry=result.stage_telemetry,
        )
    except Exception as exc:  # a crashed job must not sink the campaign
        return _failure_record(
            job,
            category="crash",
            exc=exc,
            wall_elapsed_s=time.perf_counter() - started,
        )


def _failure_record(
    job: CampaignJob,
    category: str,
    exc: BaseException,
    wall_elapsed_s: float = 0.0,
) -> CampaignJobRecord:
    """A condensed record for a job that produced an exception, not a result."""
    return CampaignJobRecord(
        **_base_record_fields(job),
        success=False,
        extractor_success=False,
        alpha_12=None,
        alpha_21=None,
        true_alpha_12=None,
        true_alpha_21=None,
        max_alpha_error=float("inf"),  # repro: allow[nan-record-field] -- documented sentinel: crashed job = unbounded error; tagged-JSON keeps the journal strict
        n_probes=0,
        probe_fraction=0.0,
        sim_elapsed_s=0.0,
        wall_elapsed_s=wall_elapsed_s,
        failure_category=category,
        failure_reason=f"{type(exc).__name__}: {exc}",
    )


def worker_error_record(job: CampaignJob, exc: BaseException) -> CampaignJobRecord:
    """The ``"worker_error"`` failure record for a job whose *runner* raised.

    :func:`run_campaign_job` already converts exceptions from inside the
    extraction pipeline into ``"crash"`` records; this covers the layer
    *around* it — any exception a (custom) job runner raises in the
    worker (:func:`run_guarded`), and a worker that died with its job
    (:class:`~repro.execution.base.WorkerCrash`, condensed by
    :meth:`~repro.campaign.engine.TuningCampaign.run`).  One broken job
    yields a failure record and the campaign keeps every other result
    instead of aborting wholesale.  Faults that escape the worker entirely
    (a record that cannot pickle back) still propagate and abort the run —
    there the checkpoint journal, run again through ``run(checkpoint=)``,
    is the recovery path.
    """
    return _failure_record(job, category="worker_error", exc=exc)


def run_guarded(
    job_runner: Callable[..., CampaignJobRecord],
    criterion: SuccessCriterion,
    job: CampaignJob,
) -> CampaignJobRecord:
    """``job_runner(job, criterion=criterion)``, or its ``"worker_error"`` record.

    The form a campaign submits to its backend.  Module-level, so a
    :func:`functools.partial` binding of it stays picklable for
    process-based backends; it runs *inside* the worker, so a raising
    runner never sends an exception across the process boundary.
    """
    try:
        return job_runner(job, criterion=criterion)
    except Exception as exc:
        return worker_error_record(job, exc)
