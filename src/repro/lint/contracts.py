"""Import-time contract audit over the library's registries and records.

Where the AST rules read *source*, this half audits *live objects*: every
scenario, pipeline, execution backend, and fault model reachable from its
registry, and every strict-JSON record class in the library, is checked
against the contracts the campaign/checkpoint machinery relies on:

``contract-pickle``
    The object round-trips ``pickle.dumps`` / ``loads`` and its class is
    importable by ``module.qualname`` — both required for spawn-start
    worker processes, which rebuild shipped objects from their pickles in
    a fresh interpreter.
``contract-repr``
    ``repr(obj)`` contains no ``0x…`` memory address.  This generalises
    the PR 4 checkpoint-fingerprint guard
    (:func:`repro.campaign.engine.campaign_fingerprint`): an address-bearing
    repr changes across processes, so fingerprints built from it can never
    match on resume.
``contract-roundtrip``
    For every class defining both ``as_dict`` and ``from_dict``:
    ``from_dict(json.loads(json.dumps(as_dict(), allow_nan=False)))``
    reconstructs an equal object, and ``as_dict`` emits every dataclass
    field — the drift check that keeps new fields from silently falling
    out of checkpoints.
``contract-registry``
    Registry name hygiene: a backend's ``name`` matches its registry key,
    and a pipeline alias may not shadow a registered pipeline name.

Record classes are discovered by walking every ``repro`` module; each
discovered class must have a sample factory registered via
:func:`register_contract_sample`, so adding a record class without wiring
it into the audit is itself a violation.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pickle
import pkgutil

from ..reprs import ADDRESS_REPR
from .violations import Violation

__all__ = [
    "audit_record_contracts",
    "audit_registry_contracts",
    "register_contract_sample",
    "run_contract_audit",
    "spawn_roundtrip",
]

#: Sample factories for record classes: "module.QualName" -> zero-arg factory.
_SAMPLE_FACTORIES: dict[str, object] = {}


def register_contract_sample(cls: type, factory) -> None:
    """Register a zero-arg sample factory for a record class.

    The audit round-trips the sample through strict JSON; the sample should
    exercise the class's hard cases (a NaN field, nested telemetry) rather
    than the all-defaults happy path.
    """
    _SAMPLE_FACTORIES[f"{cls.__module__}.{cls.__qualname__}"] = factory


def _violation(rule: str, where: str, message: str) -> Violation:
    return Violation(path=where, line=0, rule=rule, message=message)


def _check_pickle(obj: object, where: str, out: list[Violation]) -> None:
    """Spawn-semantics picklability: round-trip plus class importability."""
    cls = type(obj)
    try:
        module = importlib.import_module(cls.__module__)
        resolved = module
        for part in cls.__qualname__.split("."):
            resolved = getattr(resolved, part)
        if resolved is not cls:
            raise AttributeError(
                f"{cls.__module__}.{cls.__qualname__} resolves to a different object"
            )
    except Exception as exc:
        out.append(
            _violation(
                "contract-pickle",
                where,
                f"{cls.__qualname__} is not importable as "
                f"{cls.__module__}.{cls.__qualname__} ({exc}); a spawn-start "
                "worker cannot rebuild it from a pickle",
            )
        )
        return
    try:
        restored = pickle.loads(pickle.dumps(obj))
    except Exception as exc:
        out.append(
            _violation(
                "contract-pickle",
                where,
                f"does not survive pickle round-trip ({type(exc).__name__}: "
                f"{exc}); it cannot ship to spawn-start workers",
            )
        )
        return
    if repr(restored) != repr(obj) and not ADDRESS_REPR.search(repr(obj)):
        out.append(
            _violation(
                "contract-pickle",
                where,
                "pickle round-trip changes the object's content repr — "
                "state is being lost or regenerated in __reduce__/__getstate__",
            )
        )


def _check_repr(obj: object, where: str, out: list[Violation]) -> None:
    text = repr(obj)
    if ADDRESS_REPR.search(text):
        out.append(
            _violation(
                "contract-repr",
                where,
                f"repr embeds a memory address ({text[:80]}...); checkpoint "
                "fingerprints built from it cannot survive a process restart "
                "— give the class a content-based __repr__ (or make it a "
                "dataclass)",
            )
        )


# ---------------------------------------------------------------------------
# Registry audits
# ---------------------------------------------------------------------------


def audit_registry_contracts() -> list[Violation]:
    """Audit every object reachable from the four registries."""
    # Imported here, not at module top: the audit inspects the campaign
    # layers, but the lint package must stay importable on its own.
    from ..execution.base import backend_from_spec, backend_names
    from ..faults import all_faults
    from ..pipeline.registry import METHOD_ALIASES, get_pipeline, pipeline_names
    from ..scenarios.catalog import all_scenarios

    violations: list[Violation] = []
    for scenario in all_scenarios():
        where = f"scenario:{scenario.name}"
        _check_pickle(scenario, where, violations)
        _check_repr(scenario, where, violations)
    for name, models in all_faults().items():
        for model in models:
            where = f"fault:{name}:{type(model).__name__}"
            _check_pickle(model, where, violations)
            _check_repr(model, where, violations)
        if not models:
            violations.append(
                _violation(
                    "contract-registry",
                    f"fault:{name}",
                    "fault condition registered with no models; selecting it "
                    "would silently inject nothing",
                )
            )
    for name in pipeline_names():
        where = f"pipeline:{name}"
        pipeline = get_pipeline(name)
        _check_pickle(pipeline, where, violations)
        _check_repr(pipeline, where, violations)
        for stage in pipeline.stages:
            _check_repr(stage, f"{where}:{stage.name}", violations)
    for alias, target in METHOD_ALIASES.items():
        if alias in pipeline_names():
            violations.append(
                _violation(
                    "contract-registry",
                    f"pipeline:{alias}",
                    f"alias {alias!r} -> {target!r} shadows a registered "
                    "pipeline of the same name; lookups become ambiguous",
                )
            )
        if target not in pipeline_names():
            violations.append(
                _violation(
                    "contract-registry",
                    f"pipeline:{alias}",
                    f"alias {alias!r} points at unregistered pipeline {target!r}",
                )
            )
    for name in backend_names():
        where = f"backend:{name}"
        backend = backend_from_spec(name, n_workers=2, chunk_size=None)
        if backend.name != name:
            violations.append(
                _violation(
                    "contract-registry",
                    where,
                    f"backend registered as {name!r} reports name="
                    f"{backend.name!r}; result metadata would misattribute "
                    "the execution policy",
                )
            )
        _check_pickle(backend, where, violations)
        _check_repr(backend, where, violations)
    return violations


# ---------------------------------------------------------------------------
# Record audits
# ---------------------------------------------------------------------------


def _iter_record_classes():
    """Every class in ``repro`` defining both ``as_dict`` and ``from_dict``."""
    import repro

    seen: set[type] = set()
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            # CLI entry points; importing one outside `python -m` would
            # execute nothing (they are __main__-guarded) but costs a parse.
            continue
        modules.append(importlib.import_module(info.name))
    for module in modules:
        for value in vars(module).values():
            if not isinstance(value, type) or value in seen:
                continue
            if not value.__module__.startswith("repro"):
                continue
            if "as_dict" in vars(value) and "from_dict" in vars(value):
                seen.add(value)
                yield value


def _register_builtin_samples() -> None:
    """Samples for the library's own record classes (idempotent)."""
    from ..campaign.results import CampaignJobRecord, CampaignResult
    from ..core.result import StageTelemetry

    if f"{StageTelemetry.__module__}.{StageTelemetry.__qualname__}" in _SAMPLE_FACTORIES:
        return

    def telemetry() -> StageTelemetry:
        return StageTelemetry(
            stage="anchors",
            outcome="ok",
            n_probes=12,
            n_requests=14,
            cache_hits=2,
            sim_elapsed_s=0.6,
            wall_s=0.0,
            detail="sample",
        )

    def record() -> CampaignJobRecord:
        return CampaignJobRecord(
            job_id=3,
            label="sample-job",
            device="double_dot",
            method="fast-extraction",
            resolution=40,
            noise_scale=1.0,
            repeat=0,
            gate_x="P1",
            gate_y="P2",
            success=False,
            extractor_success=True,
            alpha_12=0.24,
            alpha_21=None,
            true_alpha_12=None,
            true_alpha_21=None,
            # The hard case on purpose: NaN exercises the tagged-dict JSON
            # encoding and the NaN-aware equality the round-trip relies on.
            max_alpha_error=float("nan"),  # repro: allow[nan-record-field] -- audit sample exercising the tagged-JSON contract
            n_probes=120,
            probe_fraction=0.075,
            sim_elapsed_s=6.0,
            wall_elapsed_s=0.0,
            failure_category="no_ground_truth",
            failure_reason="sample",
            scenario="quiet_lab",
            # Fault-axis fields ride through the same round-trip contract.
            fault="transient-reads",
            n_probe_retries=2,
            stage_telemetry=(telemetry(),),
        )

    def result() -> CampaignResult:
        return CampaignResult(
            records=(record(),),
            n_workers=2,
            wall_time_s=0.0,
            metadata={"n_jobs": 1, "backend": "serial"},
        )

    def lint_violation() -> Violation:
        return Violation(
            path="src/repro/sample.py",
            line=7,
            rule="wall-clock",
            message="sample",
            snippet="t = time.time()",
        )

    from ..scenariospace.space import ScenarioParams
    from ..scenariospace.surface import SurfaceCell, SurfaceReport
    from ..scenarios.devices import DeviceSpec

    def scenario_params() -> ScenarioParams:
        return ScenarioParams(
            device=DeviceSpec(factory="grid_array", kwargs=(("cols", 3), ("rows", 2))),
            noise_scale=1.5,
            drift_mv_per_hour=12.0,
            fault_rate=0.08,
            time_dependent=True,
        )

    def surface_cell() -> SurfaceCell:
        # An *empty* cell on purpose: n_jobs=0 exercises the nan-free
        # encoding guarantee (success_rate is a property, never a field).
        return SurfaceCell(
            x_low=0.5, x_high=1.75, y_low=0.0, y_high=0.15,
            n_jobs=0, n_succeeded=0, ci_low=0.0, ci_high=1.0,
        )

    def surface_report() -> SurfaceReport:
        return SurfaceReport(
            space="sample-space",
            x_axis="noise_scale",
            y_axis="fault_rate",
            n_draws=12,
            seed=7,
            cells=(surface_cell(),),
        )

    from ..kernelcache import KernelCacheStats
    from ..physics.charge_state import SolverStats

    def kernel_cache_stats() -> KernelCacheStats:
        return KernelCacheStats(
            n_entries=2,
            pixel_hits=3969,
            pixel_solves=3969,
            entry_hits=5,
            entry_misses=2,
            evictions=1,
        )

    def solver_stats() -> SolverStats:
        return SolverStats(
            n_points=400,
            n_state_scores=190464,
            n_bound_scores=2048,
            n_pruned_points=144,
            n_full_points=256,
        )

    from ..cluster.coordinator import ClusterStats
    from ..cluster import wire

    def cluster_stats() -> ClusterStats:
        return ClusterStats(
            n_workers=4,
            n_leases=15,
            n_steal_requests=1,
            n_stolen_jobs=3,
            n_worker_deaths=2,
            n_requeued_jobs=13,
            n_crash_markers=1,
            n_affinity_hits=6,
            n_rejected_peers=1,
            steal_latency_s=0.012,
        )

    # One sample per wire-message kind: the cluster control plane rides the
    # same strict-JSON round-trip contract as the checkpoint records, so a
    # field added to a message without as_dict coverage fails the audit.
    wire_samples = {
        wire.Register: lambda: wire.Register(pid=4242, host="node-a"),
        wire.Welcome: lambda: wire.Welcome(worker_id=1, heartbeat_s=0.2),
        wire.Task: wire.Task,
        wire.Lease: lambda: wire.Lease(job_ids=(3, 4, 5)),
        wire.Heartbeat: lambda: wire.Heartbeat(worker_id=1, current_job=-1, n_queued=2),
        wire.Steal: lambda: wire.Steal(max_jobs=4),
        wire.Stolen: lambda: wire.Stolen(job_ids=(5,)),
        wire.Result: lambda: wire.Result(job_id=3),
        wire.Crash: lambda: wire.Crash(job_id=3, message="ValueError: boom"),
        wire.Shutdown: wire.Shutdown,
    }

    register_contract_sample(StageTelemetry, telemetry)
    register_contract_sample(ClusterStats, cluster_stats)
    for message_cls, message_factory in wire_samples.items():
        register_contract_sample(message_cls, message_factory)
    register_contract_sample(KernelCacheStats, kernel_cache_stats)
    register_contract_sample(SolverStats, solver_stats)
    register_contract_sample(CampaignJobRecord, record)
    register_contract_sample(CampaignResult, result)
    register_contract_sample(Violation, lint_violation)
    register_contract_sample(ScenarioParams, scenario_params)
    register_contract_sample(SurfaceCell, surface_cell)
    register_contract_sample(SurfaceReport, surface_report)


def audit_record_contracts() -> list[Violation]:
    """Audit every strict-JSON record class for round-trip closure."""
    _register_builtin_samples()
    violations: list[Violation] = []
    for cls in _iter_record_classes():
        where = f"record:{cls.__module__}.{cls.__qualname__}"
        factory = _SAMPLE_FACTORIES.get(f"{cls.__module__}.{cls.__qualname__}")
        if factory is None:
            violations.append(
                _violation(
                    "contract-roundtrip",
                    where,
                    "defines as_dict/from_dict but has no contract sample; "
                    "register one with repro.lint.register_contract_sample "
                    "so the round-trip stays audited as fields evolve",
                )
            )
            continue
        sample = factory()
        _check_pickle(sample, where, violations)
        _check_repr(sample, where, violations)
        payload = sample.as_dict()
        try:
            encoded = json.dumps(payload, allow_nan=False)
        except (TypeError, ValueError) as exc:
            violations.append(
                _violation(
                    "contract-roundtrip",
                    where,
                    f"as_dict() output is not strict JSON ({exc}); encode "
                    "non-finite floats as tagged dicts",
                )
            )
            continue
        restored = cls.from_dict(json.loads(encoded))
        if restored != sample:
            violations.append(
                _violation(
                    "contract-roundtrip",
                    where,
                    "from_dict(as_dict()) does not reconstruct an equal "
                    "object — serialisation drift; checkpoints written today "
                    "would resume wrong tomorrow",
                )
            )
        if dataclasses.is_dataclass(cls):
            missing = [
                f.name for f in dataclasses.fields(cls) if f.name not in payload
            ]
            if missing:
                violations.append(
                    _violation(
                        "contract-roundtrip",
                        where,
                        f"as_dict() omits field(s) {', '.join(missing)}; new "
                        "fields silently fall out of checkpoints and saves",
                    )
                )
    return violations


def run_contract_audit() -> list[Violation]:
    """Run both audit halves; returns every violation found."""
    return audit_registry_contracts() + audit_record_contracts()


# ---------------------------------------------------------------------------
# Spawn round-trip helper (used by the picklability smoke tests)
# ---------------------------------------------------------------------------


def _spawn_probe(payload: bytes) -> str:
    """Worker body: unpickle in a fresh interpreter, return the repr."""
    return repr(pickle.loads(payload))


def spawn_roundtrip(objects: list) -> list[str]:
    """Ship every object to one spawn-start worker; return the child reprs.

    This is the real thing the in-process pickle check approximates: a
    fresh interpreter (no fork-inherited module state) rebuilds each object
    purely from its pickle, exactly like a ``ProcessPoolBackend`` worker
    under spawn start semantics.
    """
    import multiprocessing

    payloads = [pickle.dumps(obj) for obj in objects]
    context = multiprocessing.get_context("spawn")
    with context.Pool(processes=1) as pool:
        return pool.map(_spawn_probe, payloads)
