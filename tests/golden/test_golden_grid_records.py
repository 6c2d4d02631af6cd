"""Golden regression fixture: campaign-grid records on a static backend.

The slice is the fast-method jobs of the seed-1 campaign grid that
perfbench's ``grid-fast-serial`` workload runs (three devices at 63x63,
static noise scales 0.0 and 1.0, 10 repeats each), restricted to the
4-dot chain's ``P3``-``P4`` pair: 20 jobs whose backends do not depend on
the probe time, so a pixel reads the same value whenever it is probed.
The grid is rebuilt with the workload's arguments and its expansion
filtered, so every job keeps the seed it has in the full list.  Each
record is pinned as its strict-JSON ``normalized()`` view (wall-clock
fields set to 0) in ``grid_static_records.json`` and asserted
*bit-identical*.

Regenerate deliberately (after a change that is *supposed* to alter the
records) with::

    PYTHONPATH=src python tests/golden/test_golden_grid_records.py --regenerate
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.campaign import CampaignGrid, DeviceSpec
from repro.campaign.worker import run_campaign_job

FIXTURE_PATH = Path(__file__).with_name("grid_static_records.json")

SEED = 1
GRID_DEVICES = (
    DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),
    DeviceSpec.of("double_dot", cross_coupling=(0.32, 0.27)),
    DeviceSpec.of("linear_array", n_dots=4),
)
SLICE_DEVICE = GRID_DEVICES[2]
SLICE_GATES = ("P3", "P4")


def slice_jobs() -> list:
    """The fast jobs on the 4-dot chain's P3-P4 pair, with their grid seeds."""
    grid = CampaignGrid(
        devices=GRID_DEVICES,
        resolutions=(63,),
        noise_scales=(0.0, 1.0),
        methods=("fast",),
        n_repeats=10,
        seed=SEED,
    )
    return [
        job
        for job in grid.expand()
        if job.method == "fast"
        and job.device == SLICE_DEVICE
        and (job.gate_x, job.gate_y) == SLICE_GATES
    ]


def normalized_record_dict(record) -> dict:
    """The record's strict-JSON view with wall-clock fields pinned to 0."""
    pinned = dataclasses.replace(
        record,
        wall_elapsed_s=0.0,
        stage_telemetry=tuple(t.normalized(0.0) for t in record.stage_telemetry),
    )
    return pinned.as_dict()


def run_slice() -> list[dict]:
    return [normalized_record_dict(run_campaign_job(job)) for job in slice_jobs()]


def load_fixture() -> list[dict]:
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)


def test_slice_covers_both_noise_scales():
    jobs = slice_jobs()
    assert len(jobs) == 20
    assert sorted({job.noise_scale for job in jobs}) == [0.0, 1.0]
    assert {job.scenario for job in jobs} == {None}


def test_static_grid_records_are_bit_identical():
    assert FIXTURE_PATH.exists(), (
        "missing golden fixture; regenerate with "
        "PYTHONPATH=src python tests/golden/test_golden_grid_records.py --regenerate"
    )
    # Exact equality on purpose: JSON round-trips doubles exactly (repr).
    assert run_slice() == load_fixture()


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the fixture JSON"
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate")
    records = run_slice()
    FIXTURE_PATH.write_text(
        json.dumps(records, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    print(f"wrote {len(records)} records to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
