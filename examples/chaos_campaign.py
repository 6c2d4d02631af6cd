"""Chaos campaign: tuning a device fleet while the lab misbehaves.

A real bring-up never runs against a perfect lab: readout glitches, probes
hang, sensors rail, and worker processes die.  This example runs the same
tuning grid twice — once fault-free and once with injected fault conditions
as a campaign axis — and compares the outcomes:

1. a clean reference run (the ``None`` fault rows match it bit for bit);
2. a chaos run where ``faults=`` sweeps named fault conditions from the
   fault registry: ``"flaky-lab"`` (transient read errors + probe hangs +
   dropout bursts, ridden out by the meter's retry/backoff policy) and
   ``"worker-crashes"`` (seed-chosen jobs hard-kill their worker, which the
   execution layer converts into ``worker_error`` records instead of
   aborting the campaign).

Everything is deterministic: fault draws are keyed by the probe timestamp
and the job's own spawned seed, so the same jobs fail the same way at any
worker count, on any backend — chaos runs are as reproducible (and as
resumable) as clean ones.

Run with::

    python examples/chaos_campaign.py
"""

from __future__ import annotations

from repro import CampaignGrid, DeviceSpec, TuningCampaign, fault_names


def build_grid(faults) -> CampaignGrid:
    return CampaignGrid(
        devices=(
            DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),
            DeviceSpec.of("linear_array", n_dots=3),
        ),
        resolutions=(63,),
        noise_scales=(0.0,),
        methods=("fast",),
        faults=faults,
        n_repeats=1,
        seed=13,
    )


def main() -> None:
    print(f"registered fault conditions: {', '.join(fault_names())}\n")

    # 1. The fault-free reference.
    clean_grid = build_grid(faults=(None,))
    clean = TuningCampaign(clean_grid, backend="process:2").run()
    print(f"clean run: {clean.n_succeeded}/{clean.n_jobs} jobs succeeded\n")

    # 2. The same gate pairs, now swept across injected fault conditions.
    chaos_grid = build_grid(faults=(None, "flaky-lab", "worker-crashes"))
    print(f"chaos grid: {chaos_grid.n_jobs} jobs "
          f"({clean_grid.n_jobs} per fault condition)")
    chaos = TuningCampaign(chaos_grid, backend="process:2").run()

    # Chaos is deterministic: a serial re-run of the same grid reproduces
    # every record — values, failures, and retry counts — bit for bit
    # (``normalized()`` pins the wall-clock fields, the only
    # nondeterministic content).
    serial = TuningCampaign(chaos_grid).run()
    assert serial.normalized() == chaos.normalized()
    print("determinism check: serial re-run reproduces the chaos bit for bit")

    fault_free = [r for r in chaos.records if r.fault is None]
    print(f"fault-free rows: {sum(r.success for r in fault_free)}"
          f"/{len(fault_free)} succeeded, zero retries")
    flaky = [r for r in chaos.records if r.fault == "flaky-lab"]
    crashed = [r for r in chaos.records if r.failure_category == "worker_error"]
    print(f"flaky-lab rows: {sum(r.success for r in flaky)}/{len(flaky)} "
          f"succeeded through {sum(r.n_probe_retries for r in flaky)} probe retries")
    print(f"worker crashes survived as records: {len(crashed)} "
          f"(campaign still completed all {chaos.n_jobs} jobs)\n")

    # The report grows a "Fault resilience" section whenever fault
    # conditions (or probe retries) appear in the records.
    print(chaos.format_report(max_rows=12))


if __name__ == "__main__":
    main()
