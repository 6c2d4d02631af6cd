"""Pragma parsing and pragma hygiene."""

from pathlib import Path

from repro.lint.engine import PRAGMA_RULE, run_lint
from repro.lint.pragmas import PragmaIndex

FIXTURES = Path(__file__).parent / "fixtures"


class TestPragmaParsing:
    def test_bare_and_justified_pragmas(self):
        index = PragmaIndex.from_source(
            "x = 1  # repro: allow[wall-clock]\n"
            "y = 2  # repro: allow[wall-clock,strict-json] -- telemetry timer\n"
        )
        assert index.allows("wall-clock", 1)
        assert index.pragma_for("wall-clock", 1).is_bare
        assert index.allows("strict-json", 2)
        assert index.pragma_for("wall-clock", 2).justification == "telemetry timer"
        assert not index.allows("strict-json", 1)
        assert not index.allows("wall-clock", 3)

    def test_pragma_text_inside_strings_is_inert(self):
        index = PragmaIndex.from_source(
            '"""docs show # repro: allow[wall-clock] syntax"""\n'
            'msg = "# repro: allow[strict-json]"\n'
        )
        assert index.all_pragmas() == ()


class TestPragmaHygiene:
    def test_unknown_rule_name_is_reported_in_every_mode(self):
        report = run_lint(
            FIXTURES / "pragma_unknown.py", contracts=False, strict=False
        )
        assert [v.rule for v in report.violations] == [PRAGMA_RULE]
        assert "wall-clcok" in report.violations[0].message

    def test_bare_pragma_suppresses_in_default_mode(self):
        report = run_lint(FIXTURES / "pragma_bare.py", contracts=False)
        assert report.violations == ()
        assert [v.rule for v in report.suppressed] == ["strict-json"]

    def test_bare_pragma_fails_strict_mode(self):
        report = run_lint(FIXTURES / "pragma_bare.py", contracts=False, strict=True)
        assert [v.rule for v in report.violations] == [PRAGMA_RULE]
        assert "justification" in report.violations[0].message
