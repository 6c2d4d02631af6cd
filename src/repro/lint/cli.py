"""``python -m repro.lint`` — the invariant gate, as a command.

Examples
--------
Lint the installed ``repro`` package (the default root)::

    python -m repro.lint

Gate CI (pragmas need justifications)::

    python -m repro.lint --strict

Exit codes: 0 when the report is clean, 1 when it holds any violation
(the report's ``counts`` name the rules that fired), and 2 on a usage
error: an unknown flag (argparse's own code), a missing root or an unknown
``--rules`` name.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..exceptions import ConfigurationError
from .engine import run_lint
from .rules import rule_catalogue


def _default_root() -> Path:
    """The installed ``repro`` package — works from any working directory."""
    import repro

    return Path(repro.__file__).parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Machine-check the repo's determinism, strict-JSON, and registry "
            "invariants (AST rules + import-time contract audit)."
        ),
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help="directory or file to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="CI gate mode: justification-less pragmas are violations too",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report as strict JSON instead of text",
    )
    parser.add_argument(
        "--no-contracts",
        action="store_true",
        help="skip the import-time contract audit (AST rules only)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(rule_catalogue())
        return 0
    root = Path(args.root) if args.root is not None else _default_root()
    rules = (
        [name.strip() for name in args.rules.split(",") if name.strip()]
        if args.rules
        else None
    )
    try:
        report = run_lint(
            root, rules=rules, strict=args.strict, contracts=not args.no_contracts
        )
    except ConfigurationError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return 2
    print(report.format_json() if args.json else report.format_text())
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
