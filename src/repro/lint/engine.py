"""The lint engine: walk files, run rules, apply pragmas.

:func:`run_lint` is the one entry point the CLI and the tests share.  The
engine owns everything that is *not* a rule's business: which files are in
a rule's scope, whether a violation is suppressed by an inline pragma (the
``layer-order`` rule never is), pragma hygiene (unknown rule names always;
justification-less pragmas in strict mode), and folding the contract audit
into the same report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import ConfigurationError
from .ast_rules import LayerOrderRule
from .contracts import run_contract_audit
from .rules import FileContext, LintRule, all_rules, exit_code_for, rule_names
from .violations import Violation

__all__ = ["LintReport", "lint_paths", "run_lint"]

#: Reserved rule name for pragma-hygiene findings (exit bit EXIT_PRAGMA).
PRAGMA_RULE = "pragma-hygiene"


@dataclass(frozen=True)
class LintReport:
    """Everything one lint run produced, ready to render or serialise."""

    violations: tuple[Violation, ...]
    suppressed: tuple[Violation, ...]
    n_files: int
    strict: bool = False

    @property
    def exit_code(self) -> int:
        """OR of the exit bits of every reported rule class (0 = clean)."""
        return exit_code_for(list(self.violations))

    @property
    def counts(self) -> dict[str, int]:
        """Violation counts per rule, in rule order."""
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def format_text(self) -> str:
        """The human-facing report."""
        lines = [violation.format() for violation in sorted(self.violations)]
        lines.append("")
        summary = (
            f"checked {self.n_files} files: {len(self.violations)} violation(s)"
            f" ({len(self.suppressed)} pragma-suppressed)"
        )
        if self.counts:
            per_rule = ", ".join(f"{rule}={n}" for rule, n in sorted(self.counts.items()))
            summary += f" [{per_rule}]"
        lines.append(summary)
        return "\n".join(lines)

    def format_json(self) -> str:
        """The machine-facing report (strict JSON)."""
        payload = {
            "violations": [v.as_dict() for v in sorted(self.violations)],
            "suppressed": [v.as_dict() for v in sorted(self.suppressed)],
            "counts": self.counts,
            "n_files": self.n_files,
            "strict": self.strict,
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, indent=2, allow_nan=False)


@dataclass(frozen=True)
class _FileFindings:
    """Per-file rule output before pragmas are applied."""

    context: FileContext
    violations: list[Violation] = field(default_factory=list)


def _iter_source_files(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    return sorted(path for path in root.rglob("*.py") if path.is_file())


def _in_scope(rule: LintRule, relpath: str) -> bool:
    if not rule.scope:
        return True
    parts = Path(relpath).parts
    return any(part in rule.scope for part in parts)


def _pragma_hygiene(
    findings: list[_FileFindings], strict: bool, known: tuple[str, ...]
) -> list[Violation]:
    """Unknown rule names always fail; bare pragmas fail in strict mode."""
    out: list[Violation] = []
    known_set = set(known) | {PRAGMA_RULE}
    for finding in findings:
        for pragma in finding.context.pragmas.all_pragmas():
            unknown = [
                name
                for name in pragma.rules
                if name not in known_set and not name.startswith("contract-")
            ]
            if not pragma.rules:
                unknown = ["<empty>"]
            if unknown:
                out.append(
                    Violation(
                        path=finding.context.relpath,
                        line=pragma.line,
                        rule=PRAGMA_RULE,
                        message=(
                            f"pragma names unknown rule(s) {', '.join(unknown)}; "
                            "a typo here silently disables nothing — fix the name"
                        ),
                        snippet=finding.context.snippet(pragma.line),
                    )
                )
            elif strict and pragma.is_bare:
                out.append(
                    Violation(
                        path=finding.context.relpath,
                        line=pragma.line,
                        rule=PRAGMA_RULE,
                        message=(
                            "pragma without a justification; strict mode "
                            "requires `# repro: allow[rule] -- why it is safe`"
                        ),
                        snippet=finding.context.snippet(pragma.line),
                    )
                )
    return out


def lint_paths(
    paths: list[Path], root: Path | None = None, rules: list[LintRule] | None = None
) -> list[_FileFindings]:
    """Parse and rule-check every file; pragmas are not yet applied."""
    chosen = list(rules) if rules is not None else list(all_rules())
    findings: list[_FileFindings] = []
    for path in paths:
        relpath = str(path.relative_to(root)) if root is not None else str(path)
        try:
            source = path.read_text(encoding="utf-8")
            context = FileContext.from_source(path, relpath, source)
        except (OSError, SyntaxError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot lint {path}: {exc}") from exc
        finding = _FileFindings(context=context)
        for rule in chosen:
            if _in_scope(rule, relpath):
                finding.violations.extend(rule.check(context))
        findings.append(finding)
    return findings


def run_lint(
    root: str | Path,
    rules: list[str] | None = None,
    strict: bool = False,
    contracts: bool = True,
) -> LintReport:
    """Lint every ``.py`` file under ``root`` (plus the contract audit).

    Parameters
    ----------
    root:
        Directory (or single file) to walk.
    rules:
        Rule names to run; ``None`` runs every registered rule.
    strict:
        Fail justification-less pragmas too.
    contracts:
        Whether to fold the import-time contract audit into the report.
    """
    root = Path(root)
    if not root.exists():
        raise ConfigurationError(f"lint root {root} does not exist")
    chosen = (
        None
        if rules is None
        else [rule for rule in all_rules() if rule.name in set(rules)]
    )
    if rules is not None:
        unknown = set(rules) - set(rule_names())
        if unknown:
            raise ConfigurationError(
                f"unknown lint rule(s): {', '.join(sorted(unknown))}; "
                f"known: {', '.join(rule_names())}"
            )
    findings = lint_paths(
        _iter_source_files(root),
        root=root if root.is_dir() else root.parent,
        rules=chosen,
    )

    live: list[Violation] = []
    suppressed: list[Violation] = []
    for finding in findings:
        for violation in finding.violations:
            if violation.rule != LayerOrderRule.name and finding.context.pragmas.allows(
                violation.rule, violation.line
            ):
                suppressed.append(violation)
            else:
                live.append(violation)
    live.extend(_pragma_hygiene(findings, strict, rule_names()))

    if contracts:
        live.extend(run_contract_audit())
    return LintReport(
        violations=tuple(live),
        suppressed=tuple(suppressed),
        n_files=len(findings),
        strict=strict,
    )
