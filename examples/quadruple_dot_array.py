"""Quadruple-dot array scenario: sequential pairwise virtual gate extraction.

The paper's Figure 1 device has four plunger gates (P1..P4).  Establishing
virtual gates for the whole array takes n-1 = 3 pairwise extractions (§2.3);
this example runs them against a simulated quadruple dot, assembles the full
4x4 virtualization matrix, and reports the cost of the whole procedure.

It also uses the 1-D channel-potential substrate to confirm the chosen
plunger/barrier operating point actually forms four dots (the Figure 1(b)
picture) before any tuning is attempted.

Run with::

    python examples/quadruple_dot_array.py
"""

from __future__ import annotations

import numpy as np

from repro import ArrayVirtualGateExtractor, DotArrayDevice, SessionFactory
from repro.physics import ChannelPotential, standard_lab_noise


def check_dot_formation() -> None:
    """Figure 1(b): four wells under the four plunger gates."""
    stack = ChannelPotential.standard_stack(n_plungers=4)
    voltages = {f"P{i}": 0.6 for i in range(1, 5)}
    voltages.update({f"B{i}": 0.4 for i in range(1, 6)})
    wells = stack.find_wells(voltages, min_confinement_mev=1.0)
    print(f"channel potential check: {len(wells)} dots formed at "
          + ", ".join(f"{w.position_nm:.0f} nm" for w in wells))
    print()


def main() -> None:
    check_dot_formation()

    device = DotArrayDevice.quadruple_dot(
        nearest_cross_fraction=0.28, next_nearest_cross_fraction=0.06
    )
    lab = SessionFactory(device, resolution=100, noise=standard_lab_noise())
    outcome = ArrayVirtualGateExtractor(lab, seed=2024).extract()

    print(f"device: {device.name} with gates {', '.join(device.gate_names)}")
    print(f"pairwise extractions run: {outcome.n_pairs}")
    for record in outcome.pair_records:
        result = record.result
        status = "ok " if result.success else "FAIL"
        extracted = (
            f"a12={result.matrix.alpha_12:.3f} a21={result.matrix.alpha_21:.3f}"
            if result.matrix is not None
            else "-"
        )
        print(
            f"  [{status}] {record.gate_x}-{record.gate_y}: {extracted}   "
            f"(true {record.true_alpha_12:.3f}/{record.true_alpha_21:.3f}), "
            f"{result.probe_stats.n_probes} probes, "
            f"{result.probe_stats.elapsed_s:.1f} s"
        )
    print()
    np.set_printoptions(precision=3, suppress=True)
    print("full 4x4 virtualization matrix (V' = M V):")
    print(outcome.virtualization.matrix)
    print()
    print(f"total probes: {outcome.total_probes}")
    print(f"total simulated runtime: {outcome.total_elapsed_s:.1f} s")
    full_scan = 0.05 * outcome.n_pairs * 100 * 100
    print(
        f"three full 100x100 scans would have taken {full_scan:.0f} s "
        f"-> {full_scan / outcome.total_elapsed_s:.1f}x faster array bring-up"
    )
    print(f"worst coefficient error vs ground truth: {outcome.max_alpha_error():.4f}")


if __name__ == "__main__":
    main()
