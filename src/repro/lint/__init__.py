"""Custom lint subsystem for the repo's own invariants.

Reviews kept re-catching the same classes of bug by hand: unseeded RNG and
wall-clock reads breaking bit-identical determinism, address-bearing
``__repr__``\\ s poisoning checkpoint fingerprints, and silent fallback
defaults (the ``("P1", "P2")`` gate-name bug).  This package turns those
reviewer-folklore invariants into a machine-checked gate with two halves:

* **AST lint rules** (:mod:`repro.lint.ast_rules`) — a :class:`~repro.lint.rules.LintRule`
  protocol plus a rule registry mirroring the scenario/pipeline/backend
  registries, walking every source file for RNG discipline, wall-clock
  discipline, silent fallbacks, strict-JSON hygiene, NaN literals flowing
  into record fields, and the package layer order.
* **Import-time registry audit** (:mod:`repro.lint.contracts`) — for every
  object reachable from the scenario, pipeline, fault and execution
  registries: spawn picklability, content-based (address-free)
  ``__repr__``, and registry name/alias hygiene.

The strict-JSON round-trip of the library's record classes is held by the
test suite, over one sample per class (``tests/record_samples.py``).

Run it as ``python -m repro.lint`` (see :mod:`repro.lint.cli`); suppress a
single deliberate violation with an inline ``# repro: allow[rule-name] --
justification`` pragma (:mod:`repro.lint.pragmas`).  The ``layer-order``
rule takes no pragma: the package order it checks,
:data:`~repro.lint.ast_rules.LAYERS`, holds everywhere.
"""

from __future__ import annotations

# Importing the built-in rules registers them, exactly like the scenario
# and pipeline catalogues populate their registries on import.
from . import ast_rules as _ast_rules  # noqa: F401  (import for side effect)
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
    "FileContext",
    "LintReport",
    "LintRule",
    "PragmaIndex",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register_rule",
    "rule_catalogue",
    "rule_names",
    "run_lint",
]
