"""Inline suppression pragmas: ``# repro: allow[rule-name] -- justification``.

A pragma silences the named rule(s) on its own source line only; there
are no broad waivers.  The syntax is deliberately rigid so a typo cannot
silently disable nothing:

``# repro: allow[wall-clock]``
    Suppress the ``wall-clock`` rule on this line.
``# repro: allow[wall-clock,strict-json] -- telemetry wall timer``
    Suppress several rules, with a recorded justification.

Unknown rule names in a pragma are themselves reported (rule
``pragma-hygiene``), and in ``--strict`` mode a pragma without a
justification is too: the acceptance bar is "fixed, or pragma'd *with
justification*".
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

PRAGMA_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]\s*(?:--\s*(?P<why>.*\S))?\s*$"
)


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# repro: allow[...]`` comment."""

    line: int
    rules: tuple[str, ...]
    justification: str = ""

    @property
    def is_bare(self) -> bool:
        """Whether the pragma omits the ``-- justification`` trailer."""
        return not self.justification


@dataclass(frozen=True)
class PragmaIndex:
    """Every pragma in one file, indexed by line for suppression lookups."""

    by_line: dict[int, Pragma] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str) -> "PragmaIndex":
        """Parse all pragmas out of a file's source text.

        Tokenises rather than regex-scanning whole lines, so pragma syntax
        *mentioned inside a string or docstring* (this module's own docs,
        a lint rule's error message) is not mistaken for a live pragma.
        """
        by_line: dict[int, Pragma] = {}
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = PRAGMA_RE.search(token.string)
            if match is None:
                continue
            lineno = token.start[0]
            rules = tuple(
                name.strip() for name in match.group("rules").split(",") if name.strip()
            )
            by_line[lineno] = Pragma(
                line=lineno,
                rules=rules,
                justification=(match.group("why") or "").strip(),
            )
        return cls(by_line=by_line)

    def allows(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is suppressed on ``line``."""
        pragma = self.by_line.get(line)
        return pragma is not None and rule in pragma.rules

    def pragma_for(self, rule: str, line: int) -> Pragma | None:
        """The pragma suppressing ``rule`` on ``line``, if any."""
        pragma = self.by_line.get(line)
        if pragma is not None and rule in pragma.rules:
            return pragma
        return None

    def all_pragmas(self) -> tuple[Pragma, ...]:
        """Every pragma in the file, in line order."""
        return tuple(self.by_line[line] for line in sorted(self.by_line))
