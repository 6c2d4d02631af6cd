"""Detect-and-retune on a drifting device (scenario extension).

A virtualization matrix is only correct for the device *as it was measured*.
This example tunes a double dot inside the ``drifting_sensor`` scenario —
the charge-sensor operating point creeps 30 mV per simulated hour — then
lets the device idle and age.  After each idle period the workflow re-probes
a handful of reference pixels it already paid for (16 dwell times, versus
~400 for an extraction) and only re-extracts when the device has measurably
moved.

Run with::

    python examples/drifting_device.py
"""

from __future__ import annotations

from repro.pipeline import AutoTuningWorkflow
from repro.scenarios import get_scenario


def main() -> None:
    scenario = get_scenario("drifting_sensor")
    print(f"scenario: {scenario.describe()}")
    print(f"          {scenario.story}")
    print()

    workflow = AutoTuningWorkflow.for_scenario(scenario, resolution=64, seed=11)
    outcome = workflow.run_with_retuning(
        scenario.build_device(),
        idle_time_s=1800.0,          # half an hour between looks
        n_cycles=3,
        staleness_threshold_na=0.08,  # ~8x the white-noise floor
        n_check_pixels=16,
    )

    initial = outcome.initial
    print("1. initial bring-up")
    print(f"   window search + extraction: {initial.total_probes} probes, "
          f"{initial.total_elapsed_s:.0f} s simulated")
    print(f"   alpha_12 = {initial.extraction.alpha_12:.4f}, "
          f"alpha_21 = {initial.extraction.alpha_21:.4f}")
    print()

    print("2. idle periods: check cheaply, retune only when stale")
    for i, cycle in enumerate(outcome.cycles, start=1):
        check = cycle.check
        verdict = "STALE -> retune" if check.stale else "fresh -> keep matrix"
        print(f"   cycle {i}: t = {check.checked_at_s:6.0f} s, "
              f"max deviation {check.max_deviation_na:.3f} nA over "
              f"{check.n_check_pixels} reference pixels "
              f"(threshold {check.threshold_na:.3f}) -> {verdict}")
        if cycle.extraction is not None:
            extraction = cycle.extraction
            if extraction.success:
                print(f"            re-extracted: alpha_12 = {extraction.alpha_12:.4f}, "
                      f"alpha_21 = {extraction.alpha_21:.4f} "
                      f"({extraction.probe_stats.n_probes} probes)")
            else:
                # A failed re-extraction is a real outcome on a degraded
                # device — the matrix stays stale until the next cycle.
                print(f"            re-extraction FAILED: {extraction.failure_reason} "
                      f"({extraction.probe_stats.n_probes} probes)")
    print()

    print("3. totals")
    print(f"   retunes: {outcome.n_retunes}/{len(outcome.cycles)} cycles")
    print(f"   probes over the whole timeline: {outcome.total_probes}")
    print(f"   final simulated age: {outcome.final_elapsed_s:.0f} s")
    print(f"   final matrix success: {outcome.final_extraction.success}")


if __name__ == "__main__":
    main()
