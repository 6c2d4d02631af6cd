"""The one currency every lint half trades in: a :class:`Violation`.

AST rules, the registry audit, and pragma hygiene all report through this
record, so the CLI's text and JSON reports share one shape.  Like every
other record in the library it is strict-JSON round-trippable
(``as_dict`` / ``from_dict``), and its exact JSON is pinned with theirs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..strictjson import record


@record
@dataclass(frozen=True, order=True)
class Violation:
    """One finding: a rule, where it fired, and why.

    Attributes
    ----------
    path:
        File the violation lives in, as reported (relative to the lint
        root for AST rules; a dotted module path for contract findings).
    line:
        1-based line number; 0 for findings with no source location
        (contract-audit findings on live objects).
    rule:
        Registry name of the rule that fired (``"wall-clock"``).
    message:
        Human-readable explanation, including the fix direction.
    snippet:
        The stripped source line (empty for contract findings).
    """

    path: str
    line: int
    rule: str
    message: str
    snippet: str = ""

    def format(self) -> str:
        """The canonical one-line rendering: ``path:line rule: message``."""
        location = f"{self.path}:{self.line}" if self.line else self.path
        return f"{location} {self.rule}: {self.message}"
