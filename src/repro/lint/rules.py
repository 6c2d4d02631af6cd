"""The :class:`LintRule` protocol and rule registry.

:data:`RULES` is one :class:`~repro.registry.Registry`, like the scenario,
pipeline, fault and execution-backend registries (:func:`register_rule` /
:func:`get_rule` / :func:`rule_names` / :func:`rule_catalogue`): the
built-ins in :mod:`repro.lint.ast_rules` register themselves on import, and
a project can register extra rules the same way it registers extra
scenarios.

A rule is known by its name alone: the CLI exits 1 whichever rules fired,
and the text and JSON reports count the violations per rule name
(:attr:`~repro.lint.engine.LintReport.counts`), so CI logs show which
invariant regressed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol, runtime_checkable

from ..registry import Registry
from .pragmas import PragmaIndex
from .violations import Violation

__all__ = [
    "FileContext",
    "LintRule",
    "RULES",
    "all_rules",
    "get_rule",
    "register_rule",
    "rule_catalogue",
    "rule_names",
]

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
    scope:
        Package-directory names the rule is confined to (empty = every
        file).  A file is in scope when any of its path parts, relative
        to the lint root, matches a scope entry — so the wall-clock rule
        applies under ``physics/`` but not under ``campaign/``, whose
        telemetry wall timers are sanctioned.
    """

    name: str
    description: str
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
    """Plain-text table of every registered rule (name, summary, scope)."""
    lines = ["Lint rule catalogue", "=" * 19]
    width = max((len(name) for name in rule_names()), default=0)
    for rule in all_rules():
        scope = ", ".join(rule.scope) if rule.scope else "everywhere"
        lines.append(f"{rule.name:<{width}}  {rule.description}")
        lines.append(f"{'':<{width}}  scope: {scope}")
    return "\n".join(lines)
