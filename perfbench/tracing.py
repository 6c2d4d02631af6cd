"""Span recorder for the traced run: times each repro layer from outside.

``install`` wraps the public functions that ``layers.json`` names (and
their overrides in subclasses), so every call records one span: name,
start, end, parent span, the extraction it belongs to, and for batch
calls the batch length.  Spans live in flat arrays in memory and are
written once, at the end of the run, as Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` open.

Only a ``--trace 1`` run installs the wrappers, after its untraced passes;
the ``--trace 0`` run that measures end-to-end metrics never does.  Once
installed they stay for the life of the process.  The recorder keeps one span stack,
so it traces the calling thread only: every wrapped function of the serial
workloads, and the parent-side journal appends of a cluster campaign, run
on the main thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from array import array
from pathlib import Path

import numpy as np

LAYER_MAP = json.loads(Path(__file__).with_name("layers.json").read_text())

#: Spans whose first argument after ``self`` is a batch; its length is the
#: span's work count (pixels, points).
SIZED = frozenset(
    {"physics.solve", "kernelcache.fetch", "instrument.meter", "instrument.backend"}
)
#: Harness-side spans around the timed work; their self time is the share
#: no layer accounts for.
ROOTS = frozenset({"extract", "campaign.run"})


def _batch_len(args: tuple, kwargs: dict) -> int:
    batch = args[1] if len(args) > 1 else next(iter(kwargs.values()), None)
    try:
        return len(batch)
    except TypeError:  # a scalar pixel index
        return 1


class SpanRecorder:
    """Flat in-memory span store with one open-span stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        #: Method of each extraction, indexed by extraction id.
        self.methods: list[str] = []
        self._stack: list[int] = []
        self._extraction = -1
        self.clear()

    def clear(self) -> None:
        """Forget every span and extraction (names stay registered)."""
        if self._stack:
            raise RuntimeError("cannot clear spans while a span is open")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.extraction = array("q")
        self.size = array("q")
        self.methods = []
        self._extraction = -1

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, size: int) -> int:
        index = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.extraction.append(self._extraction)
        self.size.append(size)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def wrap(self, span_name: str, func):
        """``func`` recording one ``span_name`` span per call."""
        name_id = self.name_id(span_name)
        sized = span_name in SIZED
        clock = time.perf_counter
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            # Re-read the arrays on every call: clear() replaces them.
            index = recorder._open(name_id, _batch_len(args, kwargs) if sized else 0)
            started = clock()
            try:
                return func(*args, **kwargs)
            finally:
                recorder.end[index] = clock()
                recorder.start[index] = started
                recorder._stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, span_name: str, method: str | None = None):
        """A harness-side span; with ``method`` it opens a new extraction."""
        outer = self._extraction
        if method is not None:
            self._extraction = len(self.methods)
            self.methods.append(method)
        index = self._open(self.name_id(span_name), 0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self.start[index] = started
            self._stack.pop()
            self._extraction = outer

    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """Per-span columns plus duration, self time and extraction method."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        extraction = np.frombuffer(self.extraction, dtype=np.int64)
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        methods = np.array(self.methods + [""], dtype=object)
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": parent,
            "size": np.frombuffer(self.size, dtype=np.int64),
            "start": start,
            "duration": duration,
            "self": duration - child,
            # extraction -1 (outside any extraction) maps to the "" method.
            "method": methods[extraction],
        }

    def write_chrome_trace(self, path: Path) -> None:
        """All spans as Chrome trace-event JSON (complete ``X`` events)."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
            for index in range(len(self.start)):
                name = self.names[self.name[index]]
                start = self.start[index]
                handle.write(
                    ("" if index == 0 else ",\n")
                    + f'{{"name": "{name}", "cat": "{name.partition(".")[0]}", '
                    f'"ph": "X", "pid": 1, "tid": 1, '
                    f'"ts": {(start - origin) * 1e6:.3f}, '
                    f'"dur": {(self.end[index] - start) * 1e6:.3f}, '
                    f'"args": {{"span": {index}, "parent": {self.parent[index]}, '
                    f'"extraction": {self.extraction[index]}, '
                    f'"size": {self.size[index]}}}}}'
                )
            handle.write("\n]}\n")


def _targets(spec: str) -> list[tuple[object, str]]:
    """``(owner, attribute)`` pairs for ``module:Class.attr`` or ``module:func``.

    A class target also yields every subclass that overrides the method,
    so a call through any override is traced.
    """
    module_name, _, path = spec.partition(":")
    owner: object = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    if not isinstance(owner, type):
        return [(owner, attr)]
    found, pending = [], [owner]
    while pending:
        cls = pending.pop()
        if attr in vars(cls):
            found.append((cls, attr))
        pending.extend(cls.__subclasses__())
    return found


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer function ``layers.json`` names, in this process."""
    for span_name, specs in LAYER_MAP["spans"].items():
        for spec in specs:
            for owner, attr in _targets(spec):
                original = vars(owner)[attr]
                setattr(owner, attr, recorder.wrap(span_name, original))


def layer_metrics(
    recorder: SpanRecorder, n_fast: int, n_baseline: int, fast_probes: int
) -> dict:
    """Per-layer self times and counts from the recorded spans.

    Layer times are per fast extraction, summed over spans inside fast
    extractions; ``baseline.*`` are per baseline extraction.
    ``fast_probes`` is the physical probe count of those fast extractions.
    The unattributed ratio is the self time of the harness's root spans
    over their duration.
    """
    cols = recorder.arrays()
    ids = {name: index for index, name in enumerate(recorder.names)}
    fast = cols["method"] == "fast"
    baseline = cols["method"] == "baseline"

    def select(span_name: str, within) -> np.ndarray:
        return (cols["name"] == ids.get(span_name, -1)) & within

    def per(span_name: str, column: str, within, n: int, scale: float = 1.0) -> float:
        return float(cols[column][select(span_name, within)].sum()) * scale / max(n, 1)

    def calls(span_name: str) -> int:
        return int(select(span_name, fast).sum())

    ms = 1e3
    lookups = cols["size"][select("kernelcache.fetch", fast)].sum()
    under_fetch = np.zeros(len(cols["name"]), dtype=bool)
    nested = cols["parent"] >= 0
    under_fetch[nested] = cols["name"][cols["parent"][nested]] == ids.get("kernelcache.fetch", -1)
    solved = cols["size"][select("physics.solve", fast) & under_fetch].sum()
    backend_pixels = cols["size"][select("instrument.backend", fast)].sum()
    meter_pixels = cols["size"][select("instrument.meter", fast)].sum()
    roots = np.isin(cols["name"], [ids[name] for name in ROOTS if name in ids])
    top_roots = roots & (cols["parent"] < 0)
    root_time = float(cols["duration"][top_roots].sum())
    return {
        "physics.solve_self_ms": per("physics.solve", "self", fast, n_fast, ms),
        "physics.solve_points": per("physics.solve", "size", fast, n_fast),
        "physics.noise_self_ms": per("physics.noise", "self", fast, n_fast, ms),
        "physics.drift_self_ms": per("physics.drift", "self", fast, n_fast, ms),
        "kernelcache.self_ms": per("kernelcache.fetch", "self", fast, n_fast, ms),
        "kernelcache.pixel_hit_ratio": float(1.0 - solved / lookups) if lookups else 0.0,
        "kernelcache.lookups": float(lookups) / max(n_fast, 1),
        "instrument.meter_self_ms": per("instrument.meter", "self", fast, n_fast, ms),
        "instrument.backend_self_ms": per("instrument.backend", "self", fast, n_fast, ms),
        "instrument.meter_calls": calls("instrument.meter") / max(n_fast, 1),
        "instrument.backend_calls": calls("instrument.backend") / max(n_fast, 1),
        "instrument.pixels_per_backend_call": (
            float(backend_pixels) / calls("instrument.backend")
            if calls("instrument.backend") else 0.0
        ),
        "instrument.probe_ratio": fast_probes / meter_pixels if meter_pixels else 0.0,
        "faults.self_ms": per("faults.plan", "self", fast, n_fast, ms),
        "core.anchors_self_ms": per("core.anchors", "self", fast, n_fast, ms),
        "core.sweeps_self_ms": per("core.sweeps", "self", fast, n_fast, ms),
        "core.filter_self_ms": per("core.filter", "self", fast, n_fast, ms),
        "core.fit_self_ms": per("core.fit", "self", fast, n_fast, ms),
        "pipeline.self_ms": per("pipeline", "self", fast, n_fast, ms),
        "baseline.scan_ms": per("baseline.scan", "duration", baseline, n_baseline, ms),
        "baseline.canny_self_ms": per("baseline.canny", "self", baseline, n_baseline, ms),
        "baseline.hough_self_ms": per("baseline.hough", "self", baseline, n_baseline, ms),
        "campaign.session_ms": per("campaign.session", "duration", fast, n_fast, ms),
        "campaign.job_self_ms": per("campaign.job", "self", fast, n_fast, ms),
        "trace.unattributed_ratio": (
            float(cols["self"][roots].sum()) / root_time if root_time else 0.0
        ),
    }


def span_total_ms(recorder: SpanRecorder, span_name: str) -> float:
    """Summed inclusive duration of every ``span_name`` span, in ms."""
    if span_name not in recorder.names:
        return 0.0
    cols = recorder.arrays()
    mask = cols["name"] == recorder.names.index(span_name)
    return float(cols["duration"][mask].sum()) * 1e3
