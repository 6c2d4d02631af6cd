"""Built-in AST lint rules encoding the repo's determinism invariants.

Each rule is one recurring review-pass bug class from PRs 1–5, promoted
from reviewer folklore to a machine check:

``rng-global-state``
    Randomness must flow from a caller-supplied seed through
    :func:`numpy.random.default_rng` (see :mod:`repro.seeding`).  The
    module-level ``np.random.*`` functions and the stdlib :mod:`random`
    module share hidden global state, so any call site silently couples
    every run in the process — bit-identical parallel campaigns are
    impossible once one sneaks in.
``rng-unseeded``
    ``default_rng()`` with no arguments draws fresh OS entropy.  Seeds
    must arrive explicitly (ultimately from a ``SeedSequence``), even if
    the value is ``None`` at the API boundary — the *call site* has to
    show where the seed flows from.
``wall-clock``
    Simulated time belongs to :class:`~repro.instrument.timing.VirtualClock`.
    Reading the wall clock inside ``physics/``, ``instrument/``,
    ``pipeline/``, or ``core/`` leaks nondeterminism into results;
    telemetry wall timers in those packages carry an inline
    ``# repro: allow[wall-clock]`` pragma.
``silent-fallback``
    The ``("P1", "P2")`` gate-name bug class: a lookup that quietly
    substitutes a hard-coded default produces *plausible but wrong*
    results instead of a loud error.  Flags bare ``except:``, swallowed
    ``except Exception: pass``, and ``dict.get`` / ``getattr`` with
    hard-coded tuple defaults or gate/config-keyed string defaults.
``strict-json``
    Every ``json.dump(s)`` must pass ``allow_nan=False``: Python's
    default emits ``NaN`` / ``Infinity`` tokens no strict parser accepts,
    which breaks the checkpoint journal and record round-trip contracts.
``nan-record-field``
    A ``float("nan")`` literal flowing into a record constructor keyword
    must be deliberate: NaN fields need the tagged-dict JSON encoding and
    NaN-aware equality (:mod:`repro.campaign.results`), so each such site
    carries a pragma explaining which contract makes it safe.
``layer-order``
    Every import points down :data:`LAYERS`, at module level and inside
    functions alike: a package imports its own layer and earlier layers
    only, so the dependency graph has one direction and no cycle.  No
    pragma waives it; an upward import is fixed by moving code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from .rules import FileContext, register_rule
from .violations import Violation

__all__ = [
    "LAYERS",
    "LayerOrderRule",
    "NanRecordFieldRule",
    "RngGlobalStateRule",
    "RngUnseededRule",
    "SilentFallbackRule",
    "StrictJsonRule",
    "WallClockRule",
]

#: Packages where simulated time is the only legal clock.
CLOCKED_PACKAGES = ("physics", "instrument", "pipeline", "core")


def dotted_name(node: ast.AST) -> str:
    """Flatten ``a.b.c`` attribute chains to ``"a.b.c"`` ("" if not one)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _is_nonfinite_float_literal(node: ast.AST) -> bool:
    """Whether ``node`` is ``float("nan")`` / ``float("inf")`` / ``float("-inf")``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and not node.keywords
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and node.args[0].value.strip().lower().lstrip("+-") in ("nan", "inf", "infinity")
    )


@dataclass(frozen=True)
class RngGlobalStateRule:
    """No hidden-global-state randomness: ``np.random.*`` / stdlib ``random``."""

    name: str = "rng-global-state"
    description: str = (
        "randomness must flow from default_rng(seed); np.random.* module "
        "functions and the stdlib random module share hidden global state"
    )
    scope: tuple[str, ...] = ()

    #: ``np.random`` attributes that are legitimate, stateless entry points.
    ALLOWED_NUMPY: tuple[str, ...] = (
        "default_rng",
        "SeedSequence",
        "Generator",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    )

    def check(self, ctx: FileContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                violations.append(
                    ctx.violation(
                        self,
                        node.lineno,
                        "importing from the stdlib random module pulls in its "
                        "process-global generator; use numpy.random.default_rng "
                        "with an explicit seed instead",
                    )
                )
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if not dotted:
                continue
            parts = dotted.split(".")
            if (
                len(parts) >= 3
                and parts[0] in ("np", "numpy")
                and parts[1] == "random"
                and parts[2] not in self.ALLOWED_NUMPY
            ):
                violations.append(
                    ctx.violation(
                        self,
                        node.lineno,
                        f"{dotted}() drives numpy's module-global generator "
                        "(or the legacy RandomState API); derive a local "
                        "generator with default_rng(seed) so seeds flow from "
                        "SeedSequence",
                    )
                )
            elif parts[0] == "random" and len(parts) == 2 and parts[1][:1].islower():
                violations.append(
                    ctx.violation(
                        self,
                        node.lineno,
                        f"{dotted}() uses the stdlib process-global generator; "
                        "use numpy.random.default_rng with an explicit seed",
                    )
                )
        return violations


@dataclass(frozen=True)
class RngUnseededRule:
    """``default_rng()`` with no arguments draws hidden OS entropy."""

    name: str = "rng-unseeded"
    description: str = (
        "default_rng() without an argument draws fresh OS entropy; the call "
        "site must show where the seed flows from (a SeedSequence-derived "
        "value, even when it is None at the API boundary)"
    )
    scope: tuple[str, ...] = ()

    def check(self, ctx: FileContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and not node.args and not node.keywords):
                continue
            dotted = dotted_name(node.func)
            if dotted.split(".")[-1] == "default_rng":
                violations.append(
                    ctx.violation(
                        self,
                        node.lineno,
                        "default_rng() called without a seed; pass the seed "
                        "explicitly so determinism is auditable at the call site",
                    )
                )
        return violations


@dataclass(frozen=True)
class WallClockRule:
    """VirtualClock owns simulated time in the clocked packages."""

    name: str = "wall-clock"
    description: str = (
        "no wall-clock reads in physics/instrument/pipeline/core — "
        "VirtualClock owns simulated time; telemetry wall timers carry "
        "# repro: allow[wall-clock]"
    )
    scope: tuple[str, ...] = CLOCKED_PACKAGES

    TIME_FUNCTIONS: tuple[str, ...] = (
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "sleep",
    )
    DATETIME_FUNCTIONS: tuple[str, ...] = ("now", "utcnow", "today")

    def check(self, ctx: FileContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                imported = [
                    alias.name for alias in node.names if alias.name in self.TIME_FUNCTIONS
                ]
                if imported:
                    violations.append(
                        ctx.violation(
                            self,
                            node.lineno,
                            f"importing {', '.join(imported)} from time hides "
                            "wall-clock reads from review; call through the "
                            "module so every read is visible (and pragma'd)",
                        )
                    )
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if not dotted:
                continue
            parts = dotted.split(".")
            if parts[0] == "time" and len(parts) == 2 and parts[1] in self.TIME_FUNCTIONS:
                violations.append(
                    ctx.violation(
                        self,
                        node.lineno,
                        f"{dotted}() reads the wall clock inside a simulated-"
                        "time package; route timing through VirtualClock, or "
                        "pragma a telemetry-only timer",
                    )
                )
            elif parts[-1] in self.DATETIME_FUNCTIONS and any(
                part in ("datetime", "date") for part in parts[:-1]
            ):
                violations.append(
                    ctx.violation(
                        self,
                        node.lineno,
                        f"{dotted}() reads the wall clock inside a simulated-"
                        "time package; route timing through VirtualClock",
                    )
                )
        return violations


#: Lookup keys whose hard-coded string defaults have historically produced
#: plausible-but-wrong results (the ("P1", "P2") gate-name bug class).
_RISKY_KEY_MARKERS = ("gate", "method", "pipeline", "scenario", "backend", "config")


def _is_risky_key(value: object) -> bool:
    return isinstance(value, str) and any(
        marker in value.lower() for marker in _RISKY_KEY_MARKERS
    )


@dataclass(frozen=True)
class SilentFallbackRule:
    """No quietly substituted defaults on failure paths or risky lookups."""

    name: str = "silent-fallback"
    description: str = (
        "no bare except, no swallowed exceptions, and no dict.get/getattr "
        "with hard-coded tuple or gate/config-keyed string defaults — "
        "failed lookups must fail loudly"
    )
    scope: tuple[str, ...] = ()

    def check(self, ctx: FileContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                self._check_handler(ctx, node, violations)
            elif isinstance(node, ast.Call):
                self._check_lookup(ctx, node, violations)
        return violations

    def _check_handler(
        self, ctx: FileContext, node: ast.ExceptHandler, out: list[Violation]
    ) -> None:
        if node.type is None:
            out.append(
                ctx.violation(
                    self,
                    node.lineno,
                    "bare except: catches SystemExit and KeyboardInterrupt "
                    "and hides the failure class; catch a named exception",
                )
            )
            return
        swallows = len(node.body) == 1 and isinstance(node.body[0], ast.Pass)
        broad = isinstance(node.type, ast.Name) and node.type.id in (
            "Exception",
            "BaseException",
        )
        if swallows and broad:
            out.append(
                ctx.violation(
                    self,
                    node.lineno,
                    f"except {node.type.id}: pass swallows every failure "
                    "silently; handle, record, or re-raise it",
                )
            )

    def _check_lookup(
        self, ctx: FileContext, node: ast.Call, out: list[Violation]
    ) -> None:
        default: ast.AST | None = None
        what = ""
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and len(node.args) == 2
        ):
            key, default = node.args
            what = "dict.get"
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) == 3
        ):
            key, default = node.args[1], node.args[2]
            what = "getattr"
        if default is None:
            return
        if (
            isinstance(default, ast.Tuple)
            and default.elts
            and all(isinstance(element, ast.Constant) for element in default.elts)
        ):
            out.append(
                ctx.violation(
                    self,
                    node.lineno,
                    f"{what} with a hard-coded tuple default silently "
                    "substitutes fixed values when the lookup misses (the "
                    '("P1", "P2") gate-name bug); raise on a missing key instead',
                )
            )
            return
        key_value = key.value if isinstance(key, ast.Constant) else None
        if (
            _is_risky_key(key_value)
            and isinstance(default, ast.Constant)
            and isinstance(default.value, (str, int, float))
        ):
            out.append(
                ctx.violation(
                    self,
                    node.lineno,
                    f"{what}({key_value!r}, ...) quietly falls back to a "
                    "hard-coded default on a gate/config-class lookup; "
                    "resolve it loudly so a miss cannot mislabel results",
                )
            )


@dataclass(frozen=True)
class StrictJsonRule:
    """Every ``json.dump(s)`` call must pass ``allow_nan=False``."""

    name: str = "strict-json"
    description: str = (
        "json.dump/json.dumps must pass allow_nan=False; the default emits "
        "NaN/Infinity tokens that break strict parsers and the record "
        "round-trip contract"
    )
    scope: tuple[str, ...] = ()

    def check(self, ctx: FileContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted not in ("json.dump", "json.dumps"):
                continue
            strict = any(
                keyword.arg == "allow_nan"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
                for keyword in node.keywords
            )
            if not strict:
                violations.append(
                    ctx.violation(
                        self,
                        node.lineno,
                        f"{dotted}(...) without allow_nan=False can emit "
                        "NaN/Infinity tokens; encode non-finite floats "
                        "explicitly (tagged dicts) and pass allow_nan=False",
                    )
                )
        return violations


@dataclass(frozen=True)
class NanRecordFieldRule:
    """``float("nan")`` literals must not flow into record constructors."""

    name: str = "nan-record-field"
    description: str = (
        'float("nan")/float("inf") literals flowing into record-constructor '
        "keywords need the tagged-JSON and NaN-aware-equality contracts; "
        "each site carries a pragma naming the contract that makes it safe"
    )
    scope: tuple[str, ...] = ()

    def check(self, ctx: FileContext) -> list[Violation]:
        violations: list[Violation] = []
        # Names assigned a non-finite literal, with the assignment line:
        # ``x = float("nan")`` followed by ``SomeRecord(field=x)`` flags the
        # assignment (where the literal — and the pragma — naturally live).
        assigned: dict[str, int] = {}
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_nonfinite_float_literal(node.value)
            ):
                assigned[node.targets[0].id] = node.lineno
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted_name(node.func).split(".")[-1]
            if not callee[:1].isupper():
                continue
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                if _is_nonfinite_float_literal(keyword.value):
                    violations.append(
                        ctx.violation(
                            self,
                            keyword.value.lineno,
                            f"non-finite float literal passed directly to "
                            f"{callee}({keyword.arg}=...); record fields need "
                            "the tagged-JSON encoding contract — fix or pragma "
                            "with the contract that applies",
                        )
                    )
                elif (
                    isinstance(keyword.value, ast.Name)
                    and keyword.value.id in assigned
                ):
                    violations.append(
                        ctx.violation(
                            self,
                            assigned[keyword.value.id],
                            f"float non-finite literal assigned to "
                            f"{keyword.value.id!r} flows into "
                            f"{callee}({keyword.arg}=...); fix or pragma with "
                            "the contract that makes NaN safe in this record",
                        )
                    )
        return violations


#: The package order of ``repro``, lowest first.  A package may import its
#: own layer and earlier layers only; ``lint`` and the root ``__init__``
#: may import anything.
LAYERS: tuple[tuple[str, ...], ...] = (
    ("exceptions", "reprs", "strictjson", "registry", "seeding"),
    ("execution",),
    ("cluster",),
    ("physics", "kernelcache"),
    ("datasets", "visualization"),
    ("faults",),
    ("instrument",),
    ("scenarios",),
    ("core",),
    ("baseline",),
    ("pipeline",),
    ("analysis",),
    ("campaign",),
    ("scenariospace",),
)

_LAYER_RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}


def _imported_packages(node: ast.AST, package: tuple[str, ...]) -> list[str]:
    """The top-level ``repro`` names one import statement loads.

    ``package`` is the importing module's package path below ``repro``
    (``("core",)`` for ``core/sweeps.py``); relative imports resolve
    against it.  Importing from the root itself yields ``"repro"``.
    """
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        paths = [path[1:] for path in parts if path[0] == "repro"]
    elif isinstance(node, ast.ImportFrom):
        module = node.module.split(".") if node.module else []
        if node.level:
            if node.level - 1 > len(package):
                return []
            path = [*package[: len(package) - node.level + 1], *module]
        elif module[:1] == ["repro"]:
            path = module[1:]
        else:
            return []
        paths = [path] if path else [[alias.name] for alias in node.names]
    else:
        return []
    return [path[0] if path else "repro" for path in paths]


@dataclass(frozen=True)
class LayerOrderRule:
    """Every import points down :data:`LAYERS`."""

    name: str = "layer-order"
    description: str = (
        "a package imports only its own layer and earlier ones in LAYERS "
        "(repro.lint.ast_rules), at module level or inside a function; no "
        "pragma waives it"
    )
    scope: tuple[str, ...] = ()

    def check(self, ctx: FileContext) -> list[Violation]:
        # Paths are read relative to the lint root as the repro package:
        # ``core/sweeps.py`` is in layer ``core``.
        parts = Path(ctx.relpath).with_suffix("").parts
        rank = _LAYER_RANK.get(parts[0]) if parts else None
        if rank is None:
            return []
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            for target in _imported_packages(node, parts[:-1]):
                if _LAYER_RANK.get(target, len(LAYERS)) > rank:
                    violations.append(
                        ctx.violation(
                            self,
                            node.lineno,
                            f"{parts[0]} (layer {rank + 1}) imports {target}, "
                            "which is not at or below its layer; move the code "
                            "so the import points down",
                        )
                    )
        return violations


for _rule in (
    RngGlobalStateRule(),
    RngUnseededRule(),
    WallClockRule(),
    SilentFallbackRule(),
    StrictJsonRule(),
    NanRecordFieldRule(),
    LayerOrderRule(),
):
    register_rule(_rule)
