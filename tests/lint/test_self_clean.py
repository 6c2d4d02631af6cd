"""The acceptance criterion as a test: the library lints clean, strictly.

Runs the full lint (AST rules, the layer order included, + contract
audit) over ``src/repro`` in strict mode — exactly the CI gate.  Every
violation in the tree has been fixed or carries a justified inline
pragma; a change that regresses any invariant fails here before it fails
in CI.
"""

from pathlib import Path

import repro
from repro.lint.engine import run_lint


def test_library_is_strict_lint_clean_with_empty_baseline():
    report = run_lint(Path(repro.__file__).parent, strict=True)
    assert report.violations == (), "\n" + "\n".join(
        violation.format() for violation in report.violations
    )
    assert report.exit_code == 0
    # The suppression budget is explicit: every pragma carries a
    # justification (strict mode enforces it), and the count only moves
    # when someone deliberately sanctions a new wall-clock/NaN site.  The
    # eight sites: the max_alpha_error sentinels in campaign/worker.py, NaN
    # for no ground truth and inf for a crashed job (2); the stage telemetry
    # wall-time timers in pipeline/composer.py (3); the cluster affinity
    # proxy in cluster/backend.py (3), where a missing duck-typed job field
    # degrades scheduler placement but can never mislabel a result.
    assert len(report.suppressed) == 8
