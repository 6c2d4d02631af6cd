"""Every AST rule against its trigger/no-trigger fixture corpus.

The fixtures under ``fixtures/`` are a regression corpus: one file per
rule seeded with every form the rule must catch, one file per rule with
the nearest legitimate idioms it must leave alone.  The directory layout
matters — ``fixtures/core/`` puts files in the ``wall-clock`` rule's
scope, ``fixtures/analysis/`` outside it, and the ``layer-order`` rule
reads ``fixtures/`` as the ``repro`` package root.
"""

from pathlib import Path

import pytest

import repro
from repro.lint.ast_rules import LAYERS
from repro.lint.engine import run_lint
from repro.lint.rules import (
    EXIT_LAYER,
    EXIT_NAN_RECORD,
    EXIT_PRAGMA,
    EXIT_RNG,
    EXIT_SILENT_FALLBACK,
    EXIT_STRICT_JSON,
    EXIT_WALL_CLOCK,
    rule_names,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def report():
    return run_lint(FIXTURES, contracts=False)


def rules_hit(report, filename):
    return {v.rule for v in report.violations if Path(v.path).name == filename}


def count(report, filename, rule):
    return sum(
        1
        for v in report.violations
        if Path(v.path).name == filename and v.rule == rule
    )


class TestTriggerCorpus:
    def test_rng_global_state(self, report):
        assert rules_hit(report, "rng_trigger.py") == {"rng-global-state"}
        # np.random.normal, np.random.rand, random.random, random.randint,
        # and the `from random import gauss` line.
        assert count(report, "rng_trigger.py", "rng-global-state") == 5

    def test_rng_unseeded(self, report):
        assert rules_hit(report, "rng_unseeded_trigger.py") == {"rng-unseeded"}
        assert count(report, "rng_unseeded_trigger.py", "rng-unseeded") == 2

    def test_wall_clock(self, report):
        assert rules_hit(report, "wall_clock_trigger.py") == {"wall-clock"}
        # time.time, time.perf_counter, time.sleep, datetime.now,
        # date.today, and the `from time import ...` line.
        assert count(report, "wall_clock_trigger.py", "wall-clock") == 6

    def test_silent_fallback(self, report):
        assert rules_hit(report, "silent_fallback_trigger.py") == {"silent-fallback"}
        # bare except, except Exception: pass, tuple-default .get,
        # risky-key .get, risky-key getattr, tuple-default getattr.
        assert count(report, "silent_fallback_trigger.py", "silent-fallback") == 6

    def test_strict_json(self, report):
        assert rules_hit(report, "strict_json_trigger.py") == {"strict-json"}
        assert count(report, "strict_json_trigger.py", "strict-json") == 2

    def test_nan_record_field(self, report):
        assert rules_hit(report, "nan_record_trigger.py") == {"nan-record-field"}
        assert count(report, "nan_record_trigger.py", "nan-record-field") == 2

    def test_layer_order(self, report):
        assert rules_hit(report, "layer_order_trigger.py") == {"layer-order"}
        # A module-level absolute import, one inside a function, and a
        # relative one whose pragma waives nothing.
        assert count(report, "layer_order_trigger.py", "layer-order") == 3
        assert not [
            v for v in report.suppressed if Path(v.path).name == "layer_order_trigger.py"
        ]

    def test_nan_flagged_at_assignment_line(self, report):
        lines = {
            v.line: v.snippet
            for v in report.violations
            if Path(v.path).name == "nan_record_trigger.py"
        }
        assert any("worst_error" in snippet for snippet in lines.values())

    def test_exit_code_is_the_or_of_regressed_bits(self, report):
        assert report.exit_code == (
            EXIT_RNG
            | EXIT_WALL_CLOCK
            | EXIT_SILENT_FALLBACK
            | EXIT_STRICT_JSON
            | EXIT_NAN_RECORD
            | EXIT_PRAGMA  # fixtures/pragma_unknown.py
            | EXIT_LAYER
        )


class TestNoTriggerCorpus:
    @pytest.mark.parametrize(
        "filename",
        [
            "rng_clean.py",
            "silent_fallback_clean.py",
            "strict_json_clean.py",
            "nan_record_clean.py",
            "wall_clock_out_of_scope.py",
            "layer_order_clean.py",
        ],
    )
    def test_clean_fixture_reports_nothing(self, report, filename):
        assert rules_hit(report, filename) == set()

    def test_justified_pragma_suppresses(self, report):
        assert rules_hit(report, "wall_clock_pragma.py") == set()
        suppressed = [
            v
            for v in report.suppressed
            if Path(v.path).name == "wall_clock_pragma.py"
        ]
        assert len(suppressed) == 2
        assert {v.rule for v in suppressed} == {"wall-clock"}


class TestRuleSelection:
    def test_rules_filter_runs_only_named_rules(self):
        report = run_lint(FIXTURES, rules=["strict-json"], contracts=False)
        # Pragma hygiene is not optional — the typo'd pragma in the corpus
        # is still reported; every other AST rule is switched off.
        assert {v.rule for v in report.violations} == {"strict-json", "pragma-hygiene"}

    def test_all_builtin_rules_are_registered(self):
        assert set(rule_names()) >= {
            "rng-global-state",
            "rng-unseeded",
            "wall-clock",
            "silent-fallback",
            "strict-json",
            "nan-record-field",
            "layer-order",
        }

    def test_layers_name_every_package_but_lint(self):
        root = Path(repro.__file__).parent
        top_level = {
            path.stem
            for path in root.iterdir()
            if (path.suffix == ".py" and path.stem != "__init__")
            or (path / "__init__.py").is_file()
        }
        layered = [name for layer in LAYERS for name in layer]
        assert len(layered) == len(set(layered))
        assert set(layered) == top_level - {"lint"}
