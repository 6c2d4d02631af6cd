"""Contract-audit and custom lint subsystem for the repo's own invariants.

Five PRs of review passes kept re-catching the same classes of bug by hand:
unseeded RNG and wall-clock reads breaking bit-identical determinism,
address-bearing ``__repr__``\\ s poisoning checkpoint fingerprints, silent
fallback defaults (the ``("P1", "P2")`` gate-name bug), and ``as_dict`` /
``from_dict`` drift in strict-JSON records.  This package turns those
reviewer-folklore invariants into a machine-checked gate with two halves:

* **AST lint rules** (:mod:`repro.lint.ast_rules`) — a :class:`~repro.lint.rules.LintRule`
  protocol plus a rule registry mirroring the scenario/pipeline/backend
  registries, walking every source file for RNG discipline, wall-clock
  discipline, silent fallbacks, strict-JSON hygiene, and NaN literals
  flowing into record fields.
* **Import-time contract audit** (:mod:`repro.lint.contracts`) — for every
  class reachable from the scenario, pipeline, and execution registries and
  every strict-JSON record class (most via :func:`repro.strictjson.record`):
  spawn picklability, content-based (address-free) ``__repr__``, ``as_dict``
  → ``from_dict`` round-trip closure, and registry name/alias uniqueness.

Run it as ``python -m repro.lint`` (see :mod:`repro.lint.cli`); suppress a
single deliberate violation with an inline ``# repro: allow[rule-name] --
justification`` pragma (:mod:`repro.lint.pragmas`) or a whole known-debt
set with a baseline file (:mod:`repro.lint.baseline`).
"""

from __future__ import annotations

# Importing the built-in rules registers them, exactly like the scenario
# and pipeline catalogues populate their registries on import.
from . import ast_rules as _ast_rules  # noqa: F401  (import for side effect)
from .baseline import Baseline
from .contracts import (
    register_contract_sample,
    run_contract_audit,
    spawn_roundtrip,
)
from .engine import LintReport, lint_paths, run_lint
from .pragmas import PragmaIndex
from .rules import (
    FileContext,
    LintRule,
    all_rules,
    get_rule,
    register_rule,
    rule_catalogue,
    rule_names,
)
from .violations import Violation

__all__ = [
    "Baseline",
    "FileContext",
    "LintReport",
    "LintRule",
    "PragmaIndex",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register_contract_sample",
    "register_rule",
    "rule_catalogue",
    "rule_names",
    "run_contract_audit",
    "run_lint",
    "spawn_roundtrip",
]
