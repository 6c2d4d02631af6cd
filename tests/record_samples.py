"""Record fixtures: one sample per strict-JSON record class, and wire shapes.

Two fixture sets live here.

* :data:`SAMPLES` holds one hand-written sample per record class in the
  library (every class defining both ``as_dict`` and ``from_dict``, as
  :func:`record_classes` walks them), chosen to exercise each class's hard
  cases: a NaN field, nested telemetry, an empty surface cell.
  :func:`contract_failures` is the strict-JSON contract those samples are
  held to; ``tests/golden/test_golden_records.py`` runs it over every
  class and pins each sample's exact JSON, and
  ``tests/lint/test_picklability.py`` rebuilds each sample in a
  spawn-started interpreter.
* :data:`RECORDS` is shared by the process-pool and cluster record-path
  tests.  On every backend a record crosses the process boundary one way:
  pickled (the pool's result pipe, the cluster's ``Result`` frame).  Each
  entry names a shape a lossy encoding would get wrong — ``bool``
  collapsing to ``int``, the sign of a zero, NaN, a numpy scalar's dtype,
  an array's dtype, shape or memory order, a payload longer than one
  socket read, dict key order, the campaign's own record with a NaN field
  — and :func:`identical` compares strictly enough to see each.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import struct
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

import repro
from repro.campaign.results import CampaignJobRecord, CampaignResult
from repro.cluster import wire
from repro.cluster.coordinator import ClusterStats
from repro.core.result import StageTelemetry
from repro.kernelcache import KernelCacheStats
from repro.lint.violations import Violation
from repro.physics.charge_state import SolverStats
from repro.scenarios.devices import DeviceSpec
from repro.scenariospace.space import ScenarioParams
from repro.scenariospace.surface import SurfaceCell, SurfaceReport


def record_classes() -> list[type]:
    """Every class in ``repro`` defining both ``as_dict`` and ``from_dict``."""
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            # CLI entry points; importing one outside `python -m` would
            # execute nothing (they are __main__-guarded) but costs a parse.
            continue
        modules.append(importlib.import_module(info.name))
    found: list[type] = []
    for module in modules:
        for value in vars(module).values():
            if not isinstance(value, type) or value in found:
                continue
            if not value.__module__.startswith("repro"):
                continue
            if "as_dict" in vars(value) and "from_dict" in vars(value):
                found.append(value)
    return found


def qualified_name(cls: type) -> str:
    """``module.QualName``, the key a record class's golden is pinned under."""
    return f"{cls.__module__}.{cls.__qualname__}"


def contract_failures(classes, samples) -> list[str]:
    """Each way a record class breaks its strict-JSON contract on its sample.

    A class needs a sample in ``samples``; the sample's ``as_dict()`` must
    be strict JSON (non-finite floats travel as tagged dicts), emit every
    dataclass field (or the field silently falls out of journals, result
    files and frames), and decode through ``from_dict`` to an equal
    object.  Returns one message per broken check, empty when all hold.
    """
    failures: list[str] = []
    for cls in classes:
        name = qualified_name(cls)
        if cls not in samples:
            failures.append(f"{name}: defines as_dict/from_dict but has no sample")
            continue
        sample = samples[cls]
        payload = sample.as_dict()
        try:
            encoded = json.dumps(payload, allow_nan=False)
        except (TypeError, ValueError) as exc:
            failures.append(f"{name}: as_dict() is not strict JSON ({exc})")
            continue
        if is_dataclass(cls):
            missing = [f.name for f in fields(cls) if f.name not in payload]
            if missing:
                failures.append(f"{name}: as_dict() omits field(s) {', '.join(missing)}")
        if cls.from_dict(json.loads(encoded)) != sample:
            failures.append(f"{name}: from_dict(as_dict()) is not an equal object")
    return failures


_TELEMETRY = StageTelemetry(
    stage="anchors",
    outcome="ok",
    n_probes=12,
    n_requests=14,
    cache_hits=2,
    sim_elapsed_s=0.6,
    wall_s=0.0,
    detail="sample",
)

_JOB_RECORD = CampaignJobRecord(
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
    max_alpha_error=float("nan"),
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
    stage_telemetry=(_TELEMETRY,),
)

_SURFACE_CELL = SurfaceCell(
    # An *empty* cell on purpose: n_jobs=0 exercises the nan-free
    # encoding guarantee (success_rate is a property, never a field).
    x_low=0.5, x_high=1.75, y_low=0.0, y_high=0.15,
    n_jobs=0, n_succeeded=0, ci_low=0.0, ci_high=1.0,
)

#: Record class -> its sample; :func:`record_classes` must find no class
#: missing here.
SAMPLES: dict[type, object] = {
    StageTelemetry: _TELEMETRY,
    CampaignJobRecord: _JOB_RECORD,
    CampaignResult: CampaignResult(
        records=(_JOB_RECORD,),
        n_workers=2,
        wall_time_s=0.0,
        metadata={"n_jobs": 1, "backend": "serial"},
    ),
    Violation: Violation(
        path="src/repro/sample.py",
        line=7,
        rule="wall-clock",
        message="sample",
        snippet="t = time.time()",
    ),
    ScenarioParams: ScenarioParams(
        device=DeviceSpec(factory="grid_array", kwargs=(("cols", 3), ("rows", 2))),
        noise_scale=1.5,
        drift_mv_per_hour=12.0,
        fault_rate=0.08,
        time_dependent=True,
    ),
    SurfaceCell: _SURFACE_CELL,
    SurfaceReport: SurfaceReport(
        space="sample-space",
        x_axis="noise_scale",
        y_axis="fault_rate",
        n_draws=12,
        seed=7,
        cells=(_SURFACE_CELL,),
    ),
    KernelCacheStats: KernelCacheStats(
        n_entries=2,
        pixel_hits=3969,
        pixel_solves=3969,
        entry_hits=5,
        entry_misses=2,
        evictions=1,
    ),
    SolverStats: SolverStats(
        n_points=400,
        n_state_scores=190464,
        n_bound_scores=2048,
        n_pruned_points=144,
        n_full_points=256,
    ),
    ClusterStats: ClusterStats(
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
    ),
    # One message per wire kind: the cluster control plane rides the same
    # strict-JSON contract as the checkpoint records, so a message field
    # the record codec cannot carry fails the contract.
    wire.Register: wire.Register(pid=4242, host="node-a"),
    wire.Welcome: wire.Welcome(worker_id=1, heartbeat_s=0.2),
    wire.Task: wire.Task(),
    wire.Lease: wire.Lease(job_ids=(3, 4, 5)),
    wire.Heartbeat: wire.Heartbeat(worker_id=1, current_job=-1, n_queued=2),
    wire.Steal: wire.Steal(max_jobs=4),
    wire.Stolen: wire.Stolen(job_ids=(5,)),
    wire.Result: wire.Result(job_id=3),
    wire.Crash: wire.Crash(job_id=3, message="ValueError: boom"),
    wire.Shutdown: wire.Shutdown(),
}


@dataclass(frozen=True)
class OpaqueRecord:
    """An arbitrary record object: neither JSON-native nor columnar."""

    label: str
    value: float


_rng = np.random.default_rng(2024)

#: kind -> record; the kinds double as test ids.
RECORDS: dict[str, object] = {
    "none": None,
    "bool": True,
    "zero": 0,
    "int": 42,
    "negative-int": -7,
    "big-int": 2**70,
    "str": "a string",
    "float": 1.5,
    "negative-zero": -0.0,
    "nan": float("nan"),
    "negative-inf": float("-inf"),
    "numpy-float32": np.float32(1.5),
    "numpy-int64": np.int64(-3),
    "float64-array": np.arange(12, dtype=np.float64).reshape(3, 4),
    "int32-array": np.arange(7, dtype=np.int32),
    "bool-array": _rng.random(9) > 0.5,
    "nonfinite-array": np.array([np.nan, -0.0, np.inf, -np.inf]),
    "fortran-array": np.asfortranarray(_rng.standard_normal((5, 3))),
    # 2 MiB: longer than one 1 MiB wire read and any socket buffer.
    "large-array": _rng.standard_normal(1 << 18),
    "dict-of-columns": {
        "rows": np.arange(64, dtype=np.int64),
        "currents": _rng.standard_normal(64),
        "flags": _rng.random(64) > 0.5,
    },
    "mixed-dict": {"label": "job", "values": _rng.random(16)},
    "object-array": np.array(["a", 1, None], dtype=object),
    "dataclass": OpaqueRecord(label="opaque", value=float("inf")),
    "nested": ([1, (2.0, "x")], {"z": None, "a": b"\x00\xff"}),
    "campaign-record": _JOB_RECORD,
}


def identical(a, b) -> bool:
    """Type-, bit- and layout-exact equality (so NaN equals itself)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        if (a.dtype, a.shape, a.flags.f_contiguous) != (
            b.dtype,
            b.shape,
            b.flags.f_contiguous,
        ):
            return False
        if a.dtype.hasobject:
            return identical(a.tolist(), b.tolist())
        return a.tobytes() == b.tobytes()
    if isinstance(a, np.generic):
        return a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(identical(a[key], b[key]) for key in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(identical(x, y) for x, y in zip(a, b))
    if is_dataclass(a):
        return all(
            identical(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    return a == b
