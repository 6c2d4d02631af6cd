"""The distilled-failure regression suite: replay every mined scenario.

Each entry of :data:`repro.scenariospace.MINED_REGRESSIONS` is replayed on
its recorded seed and asserted against the golden expectations in
``tests/golden/mined_regressions.json`` — bit-identical, like the scenario
goldens.  The suite is a ledger, not a graveyard:

* ``status == "open"`` — the failure is still expected.  The test asserts
  it *still reproduces exactly*; if a change fixes it, the test fails with
  instructions to flip the status (and keep pinning the fix forever).
* ``status == "fixed"`` — the once-mined failure must now succeed.

Regenerate deliberately (after a change that is *supposed* to alter the
records) with::

    PYTHONPATH=src python tests/scenarios/test_mined_regressions.py --regenerate
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.scenarios import get_scenario
from repro.scenariospace import MINED_REGRESSIONS, regression_record

FIXTURE_PATH = (
    Path(__file__).parent.parent / "golden" / "mined_regressions.json"
)


def normalized_record_dict(record) -> dict:
    """The record's strict-JSON view with wall-clock fields pinned to 0."""
    pinned = replace(
        record,
        wall_elapsed_s=0.0,
        stage_telemetry=tuple(t.normalized(0.0) for t in record.stage_telemetry),
    )
    return pinned.as_dict()


def load_fixtures() -> dict:
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)


def test_corpus_is_large_enough():
    assert len(MINED_REGRESSIONS) >= 3


def test_every_regression_is_registered():
    for regression in MINED_REGRESSIONS:
        assert get_scenario(regression.name).name == regression.name


def test_fixture_file_has_no_stale_entries():
    assert set(load_fixtures()) == {r.name for r in MINED_REGRESSIONS}


@pytest.mark.parametrize(
    "regression", MINED_REGRESSIONS, ids=lambda r: r.name
)
def test_mined_regression_replays_exactly(regression):
    fixtures = load_fixtures()
    assert regression.name in fixtures, (
        f"missing golden fixture {regression.name!r}; regenerate with "
        "PYTHONPATH=src python tests/scenarios/test_mined_regressions.py "
        "--regenerate"
    )
    expected = fixtures[regression.name]
    record = regression_record(regression)
    if regression.status == "open":
        assert not record.success, (
            f"mined regression {regression.name!r} no longer fails — the "
            "underlying bug appears fixed. Flip its status to 'fixed' and "
            "regenerate the fixture so the fix stays pinned."
        )
        assert record.failure_category == regression.failure_category
    else:
        assert record.success, (
            f"fixed regression {regression.name!r} fails again — "
            f"({record.failure_category}: {record.failure_reason})"
        )
    # Exact equality on purpose (same contract as the scenario goldens):
    # JSON round-trips doubles by shortest repr, so == catches single-ulp
    # drift anywhere in the probe/noise/fault/extraction stack.
    assert normalized_record_dict(record) == expected["record"]


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the fixture JSON"
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate")
    fixtures = {}
    for regression in MINED_REGRESSIONS:
        record = regression_record(regression)
        fixtures[regression.name] = {
            "status": regression.status,
            "params": regression.params.as_dict(),
            "seed": [regression.seed_entropy, list(regression.seed_spawn_key)],
            "record": normalized_record_dict(record),
        }
    FIXTURE_PATH.write_text(
        json.dumps(fixtures, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(fixtures)} fixtures to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
