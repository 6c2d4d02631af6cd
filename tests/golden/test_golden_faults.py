"""Golden regression fixtures: fault-injected campaign jobs.

Every probe of these jobs runs through a fault-injecting backend, so the
meter's retry loop, its fault-free prefix commits and its mid-batch
failure path all shape the records.  Two groups are pinned, each as the
``normalized()`` strict-JSON view of every record (wall-clock fields set
to 0) in ``fault_campaign_records.json``, asserted *bit-identical*:

* ``registered`` — the first grid double dot (cross coupling 0.25, 0.22),
  P1-P2 at 63x63, under ``quiet_lab`` and ``drifting_sensor``, with the
  registered ``transient-reads``, ``probe-hangs`` and ``flaky-lab``
  conditions, 2 repeats each: 12 jobs that ride out 167 retries.
* ``flood`` — the same two environments, 2 repeats, under a
  ``TransientReadFault(rate=0.5)`` condition the jobs carry as their
  ``fault_models`` (nothing is added to the global fault registry).  Every
  job exhausts its retries mid-batch and fails as ``instrument-fault``.

Regenerate deliberately (after a change that is *supposed* to alter the
records) with::

    PYTHONPATH=src python tests/golden/test_golden_faults.py --regenerate
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.campaign import CampaignGrid, DeviceSpec
from repro.campaign.worker import run_campaign_job
from repro.faults import TransientReadFault, fault_names

FIXTURE_PATH = Path(__file__).with_name("fault_campaign_records.json")

SEED = 17
DEVICE = DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22))
ENVIRONMENTS = ("quiet_lab", "drifting_sensor")
REGISTERED_FAULTS = ("transient-reads", "probe-hangs", "flaky-lab")
FLOOD_NAME = "transient-flood"
FLOOD_MODELS = (TransientReadFault(rate=0.5),)


def _registered_records() -> list:
    grid = CampaignGrid(
        devices=(DEVICE,),
        resolutions=(63,),
        scenarios=ENVIRONMENTS,
        faults=REGISTERED_FAULTS,
        methods=("fast",),
        n_repeats=2,
        seed=SEED,
    )
    return [run_campaign_job(job) for job in grid.expand()]


def _flood_records() -> list:
    grid = CampaignGrid(
        devices=(DEVICE,),
        resolutions=(63,),
        scenarios=ENVIRONMENTS,
        methods=("fast",),
        n_repeats=2,
        seed=SEED,
    )
    return [
        run_campaign_job(
            dataclasses.replace(job, fault=FLOOD_NAME, fault_models=FLOOD_MODELS)
        )
        for job in grid.expand()
    ]


GROUPS = {"registered": _registered_records, "flood": _flood_records}


def normalized_record_dict(record) -> dict:
    """The record's strict-JSON view with wall-clock fields pinned to 0."""
    pinned = dataclasses.replace(
        record,
        wall_elapsed_s=0.0,
        stage_telemetry=tuple(t.normalized(0.0) for t in record.stage_telemetry),
    )
    return pinned.as_dict()


def run_group(name: str) -> list[dict]:
    return [normalized_record_dict(record) for record in GROUPS[name]()]


def load_fixtures() -> dict:
    with FIXTURE_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_fault_campaign_records_are_bit_identical(group):
    fixtures = load_fixtures()
    assert group in fixtures, (
        f"missing golden fixture {group!r}; regenerate with "
        "PYTHONPATH=src python tests/golden/test_golden_faults.py --regenerate"
    )
    # Exact equality on purpose: JSON round-trips doubles exactly (repr).
    assert run_group(group) == fixtures[group]


def test_fixture_file_has_no_stale_entries():
    assert set(load_fixtures()) == set(GROUPS)


def test_groups_exercise_retries_and_exhaustion():
    fixtures = load_fixtures()
    registered = fixtures["registered"]
    assert len(registered) == 12
    assert sum(r["n_probe_retries"] for r in registered) == 167
    flood = fixtures["flood"]
    assert len(flood) == 4
    assert {r["failure_category"] for r in flood} == {"instrument-fault"}
    assert all(r["fault"] == FLOOD_NAME for r in flood)


def test_flood_condition_stays_out_of_the_registry():
    _flood_records()
    assert FLOOD_NAME not in fault_names()


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the fixture JSON"
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate")
    fixtures = {name: run_group(name) for name in sorted(GROUPS)}
    FIXTURE_PATH.write_text(json.dumps(fixtures, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(fixtures)} fixture groups to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
