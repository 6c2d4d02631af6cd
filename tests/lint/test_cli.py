"""``python -m repro.lint`` CLI: exit codes and the JSON report."""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.lint.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

#: The rules the fixture corpus triggers, one or more violations each.
CORPUS_RULES = {
    "rng-global-state",
    "rng-unseeded",
    "wall-clock",
    "silent-fallback",
    "strict-json",
    "nan-record-field",
    "pragma-hygiene",  # fixtures/pragma_unknown.py
    "layer-order",
}


def lint_json(capsys, *argv):
    """Exit code and parsed JSON report of one CLI run."""
    code = main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestExitCodes:
    def test_corpus_exits_one_and_counts_every_rule(self, capsys):
        code, payload = lint_json(capsys, str(FIXTURES), "--no-contracts")
        assert code == 1
        assert set(payload["counts"]) == CORPUS_RULES

    def test_single_file_reports_only_its_class(self, capsys):
        code, payload = lint_json(
            capsys, str(FIXTURES / "strict_json_trigger.py"), "--no-contracts"
        )
        assert code == 1
        assert set(payload["counts"]) == {"strict-json"}

    def test_clean_file_exits_zero(self, capsys):
        code = main([str(FIXTURES / "rng_clean.py"), "--no-contracts"])
        assert code == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_unknown_rule_is_a_usage_error(self, capsys):
        code = main([str(FIXTURES), "--rules", "no-such-rule", "--no-contracts"])
        assert code == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_root_is_a_usage_error(self, tmp_path):
        assert main([str(tmp_path / "nowhere"), "--no-contracts"]) == 2

    def test_usage_error_and_violation_exit_apart(self, tmp_path):
        # As a command: an unknown flag is argparse's usage error (2), a
        # wall-clock violation is a violation (1).
        clocked = tmp_path / "core" / "clocked.py"
        clocked.parent.mkdir()
        clocked.write_text("import time\n\nSTARTED = time.time()\n")
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}

        def lint(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.lint", *argv],
                capture_output=True,
                text=True,
                env=env,
                check=False,
            )

        usage = lint("--baseline", "x")
        assert usage.returncode == 2
        assert "unrecognized arguments" in usage.stderr
        violation = lint(str(tmp_path), "--no-contracts", "--json")
        assert violation.returncode == 1
        assert json.loads(violation.stdout)["counts"] == {"wall-clock": 1}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out
        assert "strict-json" in out
        assert "[exit" not in out


class TestJsonReport:
    def test_shape_and_strictness(self, capsys):
        code, payload = lint_json(capsys, str(FIXTURES), "--no-contracts")
        assert payload["exit_code"] == code == 1
        assert payload["n_files"] > 0
        assert set(payload["counts"]) == CORPUS_RULES
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
