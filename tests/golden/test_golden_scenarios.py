"""Golden regression fixtures: seeded end-to-end extraction on scenarios.

Each fixture is one seeded extraction run on a named scenario whose key
outputs — virtualization-matrix entries, probe counts, and simulated time —
are snapshotted into ``scenario_extractions.json`` and asserted
*bit-identical* here.  The probe path, the noise samplers, the drift state,
and the clock are all deterministic given the seed, so any refactor that
silently changes a single bit anywhere in that stack fails these tests
instead of drifting the evaluation.

Regenerate deliberately (after a change that is *supposed* to alter the
numbers) with::

    PYTHONPATH=src python tests/golden/test_golden_scenarios.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.pipeline import FastVirtualGateExtractor
from repro.scenarios import get_scenario

FIXTURE_PATH = Path(__file__).with_name("scenario_extractions.json")

#: (scenario, seed, resolution) triples pinned by the fixtures.  quiet_lab is
#: the deterministic reference; the other two exercise time-dependent noise
#: and device drift through the whole probe path.
GOLDEN_RUNS: tuple[tuple[str, int, int], ...] = (
    ("quiet_lab", 17, 48),
    ("drifting_sensor", 17, 48),
    ("telegraph_storm", 23, 48),
)


def run_golden(scenario_name: str, seed: int, resolution: int) -> dict:
    """One seeded end-to-end extraction, condensed to the snapshotted keys."""
    session = get_scenario(scenario_name).open_session(
        resolution=resolution, seed=seed
    )
    result = FastVirtualGateExtractor().extract(session)
    meter = session.meter
    return {
        "scenario": scenario_name,
        "seed": seed,
        "resolution": resolution,
        "success": result.success,
        "alpha_12": result.alpha_12,
        "alpha_21": result.alpha_21,
        "n_probes": meter.n_probes,
        "n_requests": meter.n_requests,
        "n_unique_pixels": meter.log.n_unique_pixels,
        "elapsed_s": meter.elapsed_s,
    }


def _fixture_key(run: tuple[str, int, int]) -> str:
    name, seed, resolution = run
    return f"{name}@seed{seed}r{resolution}"


def load_fixtures() -> dict:
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("run", GOLDEN_RUNS, ids=_fixture_key)
def test_golden_extraction_is_bit_identical(run):
    fixtures = load_fixtures()
    key = _fixture_key(run)
    assert key in fixtures, (
        f"missing golden fixture {key!r}; regenerate with "
        "PYTHONPATH=src python tests/golden/test_golden_scenarios.py --regenerate"
    )
    expected = fixtures[key]
    actual = run_golden(*run)
    # Exact equality on purpose: JSON round-trips doubles exactly (repr), so
    # == catches single-ulp drift that approx comparisons would wave through.
    assert actual == expected


def test_fixture_file_has_no_stale_entries():
    known = {_fixture_key(run) for run in GOLDEN_RUNS}
    assert set(load_fixtures()) == known


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the fixture JSON"
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate")
    fixtures = {_fixture_key(run): run_golden(*run) for run in GOLDEN_RUNS}
    FIXTURE_PATH.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fixtures)} fixtures to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
