"""Golden regression fixtures for the Canny+Hough baseline.

The scenario and array goldens pin the fast method; these pin the
conventional baseline it is compared against (§3, §5.1).  Each fixture runs
the ``hough-baseline`` extractor on one input and snapshots its outcome, the
size of the Canny edge map, and every Hough line (rho, theta, votes) into
``baseline_extractions.json``, asserted *exactly* here.  The inputs are the
twelve Table-1 diagrams, replayed, and two seeded 63x63 device sessions
whose full scans carry scenario noise, so a rewrite of the edge detector or
the accumulator that moves a single pixel or vote fails these tests.

Regenerate deliberately (after a change that is *supposed* to alter the
numbers) with::

    PYTHONPATH=src python tests/golden/test_golden_baseline.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baseline import CannyEdgeDetector, HoughTransform
from repro.datasets import load_benchmark
from repro.instrument import ExperimentSession
from repro.pipeline import HoughBaselineExtractor
from repro.scenarios import get_scenario

FIXTURE_PATH = Path(__file__).with_name("baseline_extractions.json")

#: Table-1 diagrams (1-based, as in the paper) pinned by the fixtures.
GOLDEN_CSDS: tuple[int, ...] = tuple(range(1, 13))

#: (scenario, seed, resolution) device sessions pinned by the fixtures:
#: the quiet reference and a telegraph-noise scan.
GOLDEN_SESSIONS: tuple[tuple[str, int, int], ...] = (
    ("quiet_lab", 17, 63),
    ("telegraph_storm", 17, 63),
)

GOLDEN_RUNS: tuple[tuple, ...] = tuple(("csd", index) for index in GOLDEN_CSDS) + tuple(
    ("session", *run) for run in GOLDEN_SESSIONS
)


def _open_session(run: tuple) -> ExperimentSession:
    if run[0] == "csd":
        return ExperimentSession.from_csd(load_benchmark(run[1]))
    _, name, seed, resolution = run
    return get_scenario(name).open_session(resolution=resolution, seed=seed)


def run_golden(run: tuple) -> dict:
    """One baseline extraction, condensed to the snapshotted keys."""
    session = _open_session(run)
    extractor = HoughBaselineExtractor()
    result = extractor.extract(session)
    # The full scan measured every pixel; rerun edges and lines on exactly
    # that image so failed extractions pin them too.
    image = session.meter.measured_image()
    edges = CannyEdgeDetector(extractor.config.canny).detect(image)
    lines = HoughTransform(extractor.config.hough).find_lines(edges)
    return {
        "success": result.success,
        "alpha_12": result.alpha_12,
        "alpha_21": result.alpha_21,
        "n_edge_pixels": int(np.count_nonzero(edges)),
        "n_hough_lines": len(lines),
        "lines": [[line.rho, line.theta_rad, line.votes] for line in lines],
    }


def _fixture_key(run: tuple) -> str:
    if run[0] == "csd":
        return f"table1-csd{run[1]:02d}"
    _, name, seed, resolution = run
    return f"{name}@seed{seed}r{resolution}"


def load_fixtures() -> dict:
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("run", GOLDEN_RUNS, ids=_fixture_key)
def test_golden_baseline_is_bit_identical(run):
    fixtures = load_fixtures()
    key = _fixture_key(run)
    assert key in fixtures, (
        f"missing golden fixture {key!r}; regenerate with "
        "PYTHONPATH=src python tests/golden/test_golden_baseline.py --regenerate"
    )
    # Exact equality on purpose: JSON round-trips doubles by shortest repr,
    # so == catches a single moved edge pixel, vote or ulp.
    assert run_golden(run) == fixtures[key]


def test_fixtures_cover_the_table1_split():
    fixtures = load_fixtures()
    successes = [fixtures[_fixture_key(("csd", index))]["success"] for index in GOLDEN_CSDS]
    assert successes == [False, False, True, True, True, True, False] + [True] * 5


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
    fixtures = {_fixture_key(run): run_golden(run) for run in GOLDEN_RUNS}
    FIXTURE_PATH.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fixtures)} fixtures to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
