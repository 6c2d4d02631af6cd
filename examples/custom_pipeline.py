"""Write a custom tuning stage, register an ablation pipeline, cost it.

The tuning path is a composition of stages over a shared context
(:mod:`repro.pipeline`), so a method variant is a few lines, not a fork of
the extractor.  This example:

1. writes a custom ``Stage`` — a coarse pre-scan that widens the fit's
   anchor margin when the image looks noisy (a toy "adaptive" step, but it
   shows the whole protocol: read the context, probe through ``ctx.meter``,
   leave artifacts in ``ctx.extras``);
2. registers an ablation variant (``no-postprocess``) built from the stock
   stages plus the custom one;
3. runs the registered ``fast-extraction`` default, the stock
   ``no-anchors`` ablation, and the custom variant on the same seeded
   scenario, and prints each run's **per-stage cost table** — the telemetry
   the composer records for every stage (probes, cache hits, simulated
   seconds, wall milliseconds);
4. sweeps the variants as a campaign *method axis*, showing the same
   telemetry aggregated into the campaign report's per-stage breakdown.

Run with::

    python examples/custom_pipeline.py
"""

from __future__ import annotations

import numpy as np

from repro import CampaignGrid, DeviceSpec, TuningCampaign
from repro.analysis import format_stage_costs
from repro.core import ExtractionConfig
from repro.pipeline import (
    AnchorStage,
    FilterStage,
    FitStage,
    StageOutcome,
    SweepStage,
    TuningPipeline,
    ValidateStage,
    get_pipeline,
    pipeline_names,
    register_pipeline,
)
from repro.scenarios import get_scenario

SCENARIO = "standard_lab"
RESOLUTION = 64
SEED = 21


class NoiseFloorProbeStage:
    """Custom stage: estimate the noise floor from a handful of probes.

    Probes a short row segment near the grid's lower-left corner (cheap:
    eight dwell times) and stores the sample standard deviation in
    ``ctx.extras["noise_floor_na"]``.  Downstream stages — or a reader of
    the telemetry — can see what the environment looks like before the
    extraction spends its budget.
    """

    name = "noise-floor"

    def run(self, ctx) -> StageOutcome:
        rows = np.full(8, 2)
        cols = np.arange(2, 10)
        currents = ctx.meter.get_currents(rows, cols)
        floor = float(np.std(np.diff(currents)))
        ctx.extras["noise_floor_na"] = floor
        ctx.metadata["noise_floor_na"] = floor
        return StageOutcome(detail=f"noise floor ~{floor:.4f} nA")


def build_custom_pipeline() -> TuningPipeline:
    """The ablation variant: noise-floor probe + no post-processing filter."""
    return TuningPipeline(
        "no-postprocess",
        [
            NoiseFloorProbeStage(),
            AnchorStage(),
            SweepStage(),
            FilterStage(apply_filter=False),
            FitStage(),
            ValidateStage(),
        ],
        default_config=ExtractionConfig.paper_defaults,
        description="Custom example: noise-floor probe, unfiltered points.",
    )


def main() -> None:
    register_pipeline("no-postprocess", build_custom_pipeline)
    print(f"registered pipelines: {', '.join(pipeline_names())}\n")

    for name in ("fast-extraction", "no-anchors", "no-postprocess"):
        session = get_scenario(SCENARIO).open_session(
            resolution=RESOLUTION, seed=SEED
        )
        result = get_pipeline(name).run(session)
        verdict = "success" if result.success else f"FAILED ({result.failure_reason})"
        print(f"== {name}: {verdict}")
        if result.metadata.get("noise_floor_na") is not None:
            print(f"   noise floor estimate: {result.metadata['noise_floor_na']:.4f} nA")
        print(format_stage_costs(result.stage_telemetry))
        print(
            f"   total: {result.probe_stats.n_probes} probes "
            f"({100.0 * result.probe_stats.probe_fraction:.1f}% of the grid), "
            f"{result.probe_stats.elapsed_s:.1f}s simulated\n"
        )

    # The variants sweep as a campaign method axis by registry name, and the
    # report's per-stage breakdown answers "where did the probes go" per
    # method.
    grid = CampaignGrid(
        devices=(DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),),
        resolutions=(RESOLUTION,),
        noise_scales=(1.0,),
        methods=("fast", "no-anchors", "no-postprocess"),
        n_repeats=2,
        seed=SEED,
    )
    result = TuningCampaign(grid).run()
    print(result.format_report())


if __name__ == "__main__":
    main()
