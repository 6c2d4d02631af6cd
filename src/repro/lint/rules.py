"""The :class:`LintRule` protocol and rule registry.

:data:`RULES` is one :class:`~repro.registry.Registry`, like the scenario,
pipeline, fault and execution-backend registries (:func:`register_rule` /
:func:`get_rule` / :func:`rule_names` / :func:`rule_catalogue`): the
built-ins in :mod:`repro.lint.ast_rules` register themselves on import, and
a project can register extra rules the same way it registers extra
scenarios.

Every rule belongs to an *exit class* — a bit in the CLI's exit code — so
CI logs show at a glance which invariant family regressed:

==========================  ===  ============================================
exit bit                    val  rule class
==========================  ===  ============================================
``EXIT_RNG``                  1  RNG discipline (seeds flow from SeedSequence)
``EXIT_WALL_CLOCK``           2  wall-clock discipline (VirtualClock owns time)
``EXIT_SILENT_FALLBACK``      4  silent fallback defaults / swallowed errors
``EXIT_STRICT_JSON``          8  strict-JSON hygiene (``allow_nan=False``)
``EXIT_NAN_RECORD``          16  NaN literals entering record fields
``EXIT_CONTRACT``            32  import-time contract audit
``EXIT_PRAGMA``              64  pragma hygiene (unknown rule, bare pragma)
==========================  ===  ============================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

from ..exceptions import ConfigurationError
from ..registry import Registry
from .pragmas import PragmaIndex
from .violations import Violation

__all__ = [
    "EXIT_CONTRACT",
    "EXIT_NAN_RECORD",
    "EXIT_PRAGMA",
    "EXIT_RNG",
    "EXIT_SILENT_FALLBACK",
    "EXIT_STRICT_JSON",
    "EXIT_WALL_CLOCK",
    "FileContext",
    "LintRule",
    "RULES",
    "all_rules",
    "exit_code_for",
    "get_rule",
    "register_rule",
    "rule_catalogue",
    "rule_names",
]

EXIT_RNG = 1
EXIT_WALL_CLOCK = 2
EXIT_SILENT_FALLBACK = 4
EXIT_STRICT_JSON = 8
EXIT_NAN_RECORD = 16
EXIT_CONTRACT = 32
EXIT_PRAGMA = 64


@dataclass(frozen=True)
class FileContext:
    """Everything a rule needs about one parsed source file."""

    path: Path
    relpath: str
    source: str
    tree: ast.AST
    pragmas: PragmaIndex
    lines: tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def from_source(cls, path: Path, relpath: str, source: str) -> "FileContext":
        """Parse a file's source into a ready-to-lint context."""
        return cls(
            path=path,
            relpath=relpath,
            source=source,
            tree=ast.parse(source, filename=str(path)),
            pragmas=PragmaIndex.from_source(source),
            lines=tuple(source.splitlines()),
        )

    def snippet(self, line: int) -> str:
        """The stripped source line at ``line`` (empty when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def violation(self, rule: "LintRule", line: int, message: str) -> Violation:
        """Build a violation located in this file."""
        return Violation(
            path=self.relpath,
            line=line,
            rule=rule.name,
            message=message,
            snippet=self.snippet(line),
        )


@runtime_checkable
class LintRule(Protocol):
    """One machine-checked invariant over a source file's AST.

    Attributes
    ----------
    name:
        Registry key, and the name pragmas suppress (``"wall-clock"``).
    description:
        One line for ``--list-rules`` and the README table.
    exit_bit:
        The rule's exit class (one of the ``EXIT_*`` constants).
    scope:
        Package-directory names the rule is confined to (empty = every
        file).  A file is in scope when any of its path parts, relative
        to the lint root, matches a scope entry — so the wall-clock rule
        applies under ``physics/`` but not under ``campaign/``, whose
        telemetry wall timers are sanctioned.
    """

    name: str
    description: str
    exit_bit: int
    scope: tuple[str, ...]

    def check(self, ctx: FileContext) -> list[Violation]:
        """Scan one file; return every violation found (pragmas are the
        engine's business, not the rule's)."""
        ...


#: Registered rules, in registration order.
RULES: Registry[LintRule] = Registry("lint rule")


def register_rule(rule: LintRule, overwrite: bool = False) -> LintRule:
    """Add a rule to the registry (returns it, so it chains)."""
    return RULES.register(rule.name, rule, overwrite)


get_rule = RULES.get
rule_names = RULES.names
all_rules = RULES.values


def rule_catalogue() -> str:
    """Plain-text table of every registered rule (name, exit bit, summary)."""
    lines = ["Lint rule catalogue", "=" * 19]
    width = max((len(name) for name in rule_names()), default=0)
    for rule in all_rules():
        scope = ", ".join(rule.scope) if rule.scope else "everywhere"
        lines.append(f"{rule.name:<{width}}  [exit {rule.exit_bit:>2}]  {rule.description}")
        lines.append(f"{'':<{width}}             scope: {scope}")
    return "\n".join(lines)


def exit_code_for(violations: list[Violation]) -> int:
    """OR together the exit bits of every rule that fired."""
    code = 0
    for violation in violations:
        try:
            code |= get_rule(violation.rule).exit_bit
        except ConfigurationError:
            # Contract and pragma findings use reserved rule names that are
            # not in the registry; map them by prefix.
            if violation.rule.startswith("contract-"):
                code |= EXIT_CONTRACT
            else:
                code |= EXIT_PRAGMA
    return code
