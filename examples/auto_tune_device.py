"""Auto-tuning workflow (experimental extension): from gate ranges to virtual gates.

The paper's benchmarks start from charge-stability diagrams that were already
cropped around the lowest charge states.  This example starts one step
earlier: given only the safe plunger-gate ranges of a simulated double dot, it

1. runs the coarse transition-window search (a 24x24 scan over the full range),
2. opens a fine measurement window around the first charge transitions,
3. runs the fast virtual gate extraction inside that window,

and reports the combined probe/time budget of the whole bring-up.

Run with::

    python examples/auto_tune_device.py
"""

from __future__ import annotations

from repro import DotArrayDevice, standard_lab_noise
from repro.pipeline import AutoTuningWorkflow
from repro.visualization import ascii_heatmap


def main() -> None:
    device = DotArrayDevice.double_dot(
        cross_coupling=(0.35, 0.30), voltage_range=(0.0, 0.06), name="uncharted-device"
    )
    workflow = AutoTuningWorkflow(resolution=100, noise=standard_lab_noise(), seed=4)
    outcome = workflow.run(device)

    search = outcome.window_search
    print("1. coarse window search")
    print(f"   coarse scan: {search.n_probes} probes, {search.elapsed_s:.1f} s simulated")
    print(f"   first-transition corner estimate: "
          f"({search.corner_voltage[0]:.4f} V, {search.corner_voltage[1]:.4f} V)")
    print(f"   estimated addition spacing: "
          f"({search.estimated_spacing[0]:.4f} V, {search.estimated_spacing[1]:.4f} V)")
    print(f"   chosen window: x = {search.x_window[0]:.4f}..{search.x_window[1]:.4f} V, "
          f"y = {search.y_window[0]:.4f}..{search.y_window[1]:.4f} V")
    print()
    print("   coarse image of the full gate range:")
    print(ascii_heatmap(search.coarse_image, max_rows=20, max_cols=40))
    print()

    extraction = outcome.extraction
    if not extraction.success:
        raise SystemExit(f"extraction failed: {extraction.failure_reason}")
    truth = device.ground_truth_alphas(0, 1, "P1", "P2")
    print("2. fast extraction inside the found window")
    print(f"   alpha_12 = {extraction.alpha_12:.4f}   (true {truth[0]:.4f})")
    print(f"   alpha_21 = {extraction.alpha_21:.4f}   (true {truth[1]:.4f})")
    print(f"   extraction probes: {extraction.probe_stats.n_probes} "
          f"({100 * extraction.probe_stats.probe_fraction:.1f}% of the fine window)")
    print()
    print("3. total bring-up budget for this gate pair")
    print(f"   probes: {outcome.total_probes}")
    print(f"   simulated time: {outcome.total_elapsed_s:.1f} s "
          f"(a single full 100x100 scan alone would take 500 s)")


if __name__ == "__main__":
    main()
