"""``python -m repro.lint`` CLI: exit codes and the JSON report."""

import json
from pathlib import Path

from repro.lint.cli import USAGE_ERROR, main
from repro.lint.rules import (
    EXIT_LAYER,
    EXIT_NAN_RECORD,
    EXIT_PRAGMA,
    EXIT_RNG,
    EXIT_SILENT_FALLBACK,
    EXIT_STRICT_JSON,
    EXIT_WALL_CLOCK,
)

FIXTURES = Path(__file__).parent / "fixtures"

CORPUS_EXIT = (
    EXIT_RNG
    | EXIT_WALL_CLOCK
    | EXIT_SILENT_FALLBACK
    | EXIT_STRICT_JSON
    | EXIT_NAN_RECORD
    | EXIT_PRAGMA
    | EXIT_LAYER
)


class TestExitCodes:
    def test_corpus_ors_one_bit_per_rule_class(self):
        assert main([str(FIXTURES), "--no-contracts"]) == CORPUS_EXIT

    def test_single_file_reports_only_its_class(self):
        code = main([str(FIXTURES / "strict_json_trigger.py"), "--no-contracts"])
        assert code == EXIT_STRICT_JSON

    def test_clean_file_exits_zero(self, capsys):
        code = main([str(FIXTURES / "rng_clean.py"), "--no-contracts"])
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        code = main([str(FIXTURES), "--rules", "no-such-rule", "--no-contracts"])
        assert code == USAGE_ERROR
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_root_is_a_usage_error(self, tmp_path):
        assert main([str(tmp_path / "nowhere"), "--no-contracts"]) == USAGE_ERROR

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out
        assert "strict-json" in out


class TestJsonReport:
    def test_shape_and_strictness(self, capsys):
        code = main([str(FIXTURES), "--no-contracts", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == code == CORPUS_EXIT
        assert payload["n_files"] > 0
        assert set(payload["counts"]) >= {"rng-global-state", "strict-json"}
        assert set(payload) == {
            "violations",
            "suppressed",
            "counts",
            "n_files",
            "strict",
            "exit_code",
        }
        first = payload["violations"][0]
        assert set(first) == {"path", "line", "rule", "message", "snippet"}
