"""Noise-robustness study: when does fast extraction (and the baseline) break?

The paper's two failing benchmarks are devices whose charge noise swamps the
sensor signal.  This example maps that boundary systematically: it sweeps the
noise amplitude from noiseless to hopeless on a 100x100 device and reports,
for both the fast extraction and the Canny/Hough baseline,

* the success rate over several seeds,
* the mean coefficient error of the successful runs,
* the probe fraction the fast method needed.

Every diagram runs through both methods as campaign jobs, so the campaign
worker scores them, as it scores Table 1.

Run with::

    python examples/noise_robustness_study.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import format_table
from repro.campaign import TABLE1_METHODS, TuningCampaign, diagram_jobs
from repro.datasets import NoiseRecipe, SyntheticCSDConfig


NOISE_SCALES = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
N_SEEDS = 3
RESOLUTION = 100


def build_diagram(scale: float, seed: int):
    return SyntheticCSDConfig(
        name=f"noise-study-{scale:g}-{seed}",
        resolution=RESOLUTION,
        cross_coupling=(0.26, 0.22),
        noise=NoiseRecipe(
            white_sigma_na=0.012 * scale,
            pink_sigma_na=0.015 * scale,
            drift_na=0.02 * scale,
        ),
        seed=3000 + seed,
    ).build_csd()


def main() -> None:
    # One campaign: every diagram through the fast method, then the baseline.
    diagrams = [build_diagram(scale, seed) for scale in NOISE_SCALES for seed in range(N_SEEDS)]
    records = TuningCampaign(diagram_jobs(diagrams, TABLE1_METHODS)).run().records
    rows = []
    for k, scale in enumerate(NOISE_SCALES):
        group = records[2 * N_SEEDS * k : 2 * N_SEEDS * (k + 1)]
        fast, baseline = group[::2], group[1::2]
        fast_errors = [r.max_alpha_error for r in fast if r.success]
        rows.append(
            [
                f"{scale:g}x",
                f"{sum(r.success for r in fast)}/{N_SEEDS}",
                f"{sum(r.success for r in baseline)}/{N_SEEDS}",
                f"{np.mean(fast_errors):.4f}" if fast_errors else "-",
                f"{100 * np.mean([r.probe_fraction for r in fast]):.1f}%",
            ]
        )
    print(
        format_table(
            ["noise scale", "fast success", "baseline success", "fast |alpha err|", "fast probes"],
            rows,
            title=(
                "Noise robustness on a 100x100 double dot "
                "(1x = the suite's standard lab-noise level)"
            ),
        )
    )
    print()
    print("Interpretation: both methods hold up to several times the standard noise")
    print("level; the pathological benchmarks 1-2 of the suite sit far beyond the")
    print("breaking point, which is why the paper (and this reproduction) report")
    print("failures there for both methods.")


if __name__ == "__main__":
    main()
