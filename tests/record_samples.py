"""Record shapes a backend must hand back value-, type- and layout-exact.

Shared by the process-pool and cluster record-path tests.  On every
backend a record crosses the process boundary one way: pickled (the
pool's result pipe, the cluster's ``Result`` frame).  Each sample names a
shape a lossy encoding would get wrong — ``bool`` collapsing to ``int``,
the sign of a zero, NaN, a numpy scalar's dtype, an array's dtype, shape
or memory order, a payload longer than one socket read, dict key order,
the campaign's own record with a NaN field — and :func:`identical`
compares strictly enough to see each.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from repro.lint.contracts import _SAMPLE_FACTORIES, _register_builtin_samples


@dataclass(frozen=True)
class OpaqueRecord:
    """An arbitrary record object: neither JSON-native nor columnar."""

    label: str
    value: float


def _campaign_record():
    """The lint audit's ``CampaignJobRecord`` sample (NaN field included)."""
    _register_builtin_samples()
    return _SAMPLE_FACTORIES["repro.campaign.results.CampaignJobRecord"]()


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
    "campaign-record": _campaign_record(),
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
