"""Golden regression fixtures for large-array virtual gate extraction.

The scenario goldens pin the pairwise probe path; these pin the *array*
layer on top of it — 6+ dot devices, including a 2-D lattice whose bond
graph exercises the explicit-adjacency walk — by snapshotting each pair's
extracted coefficients, the probe totals, and the simulated time into
``array_extractions.json`` and asserting them bit-identical.

Regenerate deliberately (after a change that is *supposed* to alter the
numbers) with::

    PYTHONPATH=src python tests/golden/test_golden_arrays.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.physics import DotArrayDevice, WhiteNoise
from repro.pipeline import ArrayVirtualGateExtractor

FIXTURE_PATH = Path(__file__).with_name("array_extractions.json")

#: (label, device factory kwargs, seed, resolution) pinned by the fixtures.
GOLDEN_ARRAYS: tuple[tuple[str, dict, int, int], ...] = (
    ("linear6", {"factory": "linear_array", "n_dots": 6}, 29, 32),
    ("grid2x3", {"factory": "grid_array", "rows": 2, "cols": 3}, 29, 32),
)


def _build_device(spec: dict) -> DotArrayDevice:
    kwargs = dict(spec)
    factory = kwargs.pop("factory")
    return getattr(DotArrayDevice, factory)(**kwargs)


def run_golden(label: str, spec: dict, seed: int, resolution: int) -> dict:
    """One seeded array extraction, condensed to the snapshotted keys."""
    device = _build_device(spec)
    extractor = ArrayVirtualGateExtractor(
        resolution=resolution, noise=WhiteNoise(sigma_na=0.01), seed=seed
    )
    result = extractor.extract(device)
    return {
        "label": label,
        "device": device.name,
        "seed": seed,
        "resolution": resolution,
        "n_pairs": result.n_pairs,
        "all_succeeded": result.all_pairs_succeeded,
        "max_alpha_error": result.max_alpha_error(),
        "total_probes": result.total_probes,
        "total_elapsed_s": result.total_elapsed_s,
        "pairs": [
            {
                "dots": [record.dot_a, record.dot_b],
                "gates": [record.gate_x, record.gate_y],
                "alpha_12": record.result.matrix.alpha_12
                if record.result.matrix is not None
                else None,
                "alpha_21": record.result.matrix.alpha_21
                if record.result.matrix is not None
                else None,
            }
            for record in result.pair_records
        ],
    }


def _fixture_key(run: tuple[str, dict, int, int]) -> str:
    label, _, seed, resolution = run
    return f"{label}@seed{seed}r{resolution}"


def load_fixtures() -> dict:
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("run", GOLDEN_ARRAYS, ids=_fixture_key)
def test_golden_array_extraction_is_bit_identical(run):
    fixtures = load_fixtures()
    key = _fixture_key(run)
    assert key in fixtures, (
        f"missing golden fixture {key!r}; regenerate with "
        "PYTHONPATH=src python tests/golden/test_golden_arrays.py --regenerate"
    )
    expected = fixtures[key]
    actual = run_golden(*run)
    # Exact equality on purpose: JSON round-trips doubles by shortest repr,
    # so == catches single-ulp drift in the array layer's seed spawning,
    # pair ordering, or the probe path beneath it.
    assert actual == expected


def test_grid_fixture_covers_every_lattice_bond():
    fixtures = load_fixtures()
    pairs = fixtures["grid2x3@seed29r32"]["pairs"]
    bonds = [tuple(entry["dots"]) for entry in pairs]
    assert bonds == [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]


def test_fixture_file_has_no_stale_entries():
    known = {_fixture_key(run) for run in GOLDEN_ARRAYS}
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
    fixtures = {_fixture_key(run): run_golden(*run) for run in GOLDEN_ARRAYS}
    FIXTURE_PATH.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fixtures)} fixtures to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
