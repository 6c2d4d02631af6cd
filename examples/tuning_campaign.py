"""Batch-tuning campaign: tune a fleet of devices in one declarative run.

The paper demonstrates probe-efficient extraction for a single plunger-gate
pair; a production bring-up repeats that extraction across many devices,
gate pairs, and operating conditions.  This example declares a 50+-job grid
— three device variants, two resolutions, three noise amplitudes, several
repeats — fans it out over the execution backend a spec names, and prints
the aggregate report: success rate, probe totals, and the failure taxonomy
of whatever went wrong.

Per-job seeds are spawned from the grid's root seed, so the campaign is
fully reproducible and gives bit-identical results on every backend.

Run with::

    python examples/tuning_campaign.py [backend]

where ``backend`` is a spec such as ``serial``, ``process:4`` (the
default) or ``cluster:local:2``.
"""

from __future__ import annotations

import sys

from repro import CampaignGrid, DeviceSpec, TuningCampaign


def main() -> None:
    backend = sys.argv[1] if len(sys.argv) > 1 else "process:4"

    grid = CampaignGrid(
        devices=(
            DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),
            DeviceSpec.of("double_dot", cross_coupling=(0.35, 0.30)),
            DeviceSpec.of("linear_array", n_dots=3),
        ),
        resolutions=(63, 100),
        noise_scales=(0.0, 1.0, 4.0),
        methods=("fast",),
        n_repeats=3,
        seed=2024,
    )
    # 4 gate pairs x 2 resolutions x 3 noise scales x 3 repeats = 72 jobs.
    print(f"running {grid.n_jobs} jobs on backend {backend!r} ...")

    result = TuningCampaign(grid, backend=backend).run()

    print()
    print(result.format_report(max_rows=15))
    print()

    # Drill-down: how does the success rate degrade with noise?
    print("success rate by noise scale:")
    for scale in grid.noise_scales:
        records = result.records_for(noise_scale=scale)
        succeeded = sum(1 for r in records if r.success)
        print(f"  {scale:g}x lab noise: {succeeded}/{len(records)}")

    failures = result.failed_records()
    if failures:
        print()
        print("failed jobs:")
        for record in failures[:10]:
            print(f"  {record.label}: [{record.failure_category}] "
                  f"{record.failure_reason or 'ground-truth mismatch'}")


if __name__ == "__main__":
    main()
