"""Experiment runners: one function per reproduced table, figure, or ablation.

Each runner builds its workload from the synthetic substrate and returns
plain data structures plus a formatted text report.  Table 1, the
ablations and the noise and resolution sweeps replay their diagrams as
campaign jobs (:func:`diagram_jobs`), scored by the same worker, record
and failure taxonomy as every other campaign; they run serially, and a
caller who wants a backend hands the same job list to
``TuningCampaign(jobs, backend=...)``.  Figure 7 needs the meter's probe
mask and the array extension measures a simulated array, so those two
call their extractors directly.  ``tests/analysis/test_experiments.py``
runs every runner at its experiment's full input and asserts the property
the paper draws from it; Table 1 itself is replayed exactly by perfbench's
``table1`` workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from ..analysis.reporting import (
    format_summary,
    format_table,
    format_table1,
    pair_speedup,
    summarize_suite,
)
from ..core.config import AnchorConfig, ExtractionConfig
from ..core.extraction import METHOD_NAME
from ..datasets.qflow import load_benchmark, load_suite
from ..datasets.synthetic import NoiseRecipe, SyntheticCSDConfig
from ..exceptions import ConfigurationError
from ..instrument.session import ExperimentSession, SessionFactory
from ..physics.csd import ChargeStabilityDiagram
from ..physics.dot_array import DotArrayDevice
from ..pipeline.array_extraction import ArrayVirtualGateExtractor
from ..pipeline.composer import TuningPipeline
from ..pipeline.registry import FastVirtualGateExtractor, get_pipeline
from .engine import TuningCampaign
from .grid import CampaignJob, DeviceSpec
from .results import CampaignJobRecord

#: The two methods Table 1 compares, in the order each diagram runs them.
TABLE1_METHODS: tuple[str, ...] = ("fast", "baseline")


def diagram_jobs(
    diagrams: Sequence[ChargeStabilityDiagram],
    methods: Sequence[str | TuningPipeline],
) -> tuple[CampaignJob, ...]:
    """Campaign jobs that replay every diagram through every method.

    Diagram-major: diagram ``i`` runs ``methods[m]`` as job
    ``i * len(methods) + m``.  A method is a registered pipeline name, or a
    :class:`~repro.pipeline.composer.TuningPipeline` the job carries (named
    by its ``name``), which is how an ablation runs a configuration no
    registered pipeline has.  Diagrams must be square: a record's
    ``resolution`` is the diagram's side.
    """
    jobs = []
    for diagram in diagrams:
        n_rows, n_cols = diagram.shape
        if n_rows != n_cols:
            raise ConfigurationError(
                f"diagram jobs replay square diagrams; got {n_rows}x{n_cols}"
            )
        for method in methods:
            pipeline = method if isinstance(method, TuningPipeline) else None
            jobs.append(
                CampaignJob(
                    job_id=len(jobs),
                    device=DeviceSpec(),
                    gate_x=diagram.gate_x,
                    gate_y=diagram.gate_y,
                    dot_a=0,
                    dot_b=1,
                    resolution=n_rows,
                    noise_scale=0.0,
                    method=method if pipeline is None else pipeline.name,
                    repeat=0,
                    seed=None,
                    pipeline=pipeline,
                    diagram=diagram,
                )
            )
    return tuple(jobs)


def _run(
    diagrams: Sequence[ChargeStabilityDiagram], methods: Sequence[str | TuningPipeline]
) -> tuple[CampaignJobRecord, ...]:
    """Records of every diagram through every method, in job-id order."""
    return TuningCampaign(diagram_jobs(diagrams, methods)).run().records


def _aggregate(records: Sequence[CampaignJobRecord]) -> tuple[float, float, float]:
    """Success rate, mean finite ``max_alpha_error`` and mean probe fraction."""
    errors = [r.max_alpha_error for r in records if np.isfinite(r.max_alpha_error)]
    return (
        sum(1 for r in records if r.success) / float(len(records)),
        float(np.mean(errors)) if errors else float("inf"),
        float(np.mean([r.probe_fraction for r in records])),
    )


def _format_rate_table(title: str, headers: list[str], labels: list[str], rows) -> str:
    """One line per row: its label, success rate, alpha error and probe fraction."""
    table_rows = [
        [
            label,
            f"{100.0 * row.success_rate:.0f}%",
            f"{row.mean_alpha_error:.4f}" if np.isfinite(row.mean_alpha_error) else "inf",
            f"{100.0 * row.mean_probe_fraction:.1f}%",
        ]
        for label, row in zip(labels, rows)
    ]
    return format_table(headers, table_rows, title=title)


# ----------------------------------------------------------------------
# E1 / E3: Table 1 and the headline speedup claim
# ----------------------------------------------------------------------
def run_table1(
    indices: tuple[int, ...] | None = None,
) -> tuple[tuple[CampaignJobRecord, ...], str]:
    """Reproduce Table 1 over the full suite (or a subset of 1-based indices).

    Runs the 24-job Table-1 campaign, or the jobs of the chosen CSDs: each
    CSD goes through the fast method, then the baseline, as jobs
    ``2(i - 1)`` and ``2(i - 1) + 1`` for CSD ``i``.  Returns the records
    in job-id order with the table and summary.
    """
    jobs = diagram_jobs(load_suite(), TABLE1_METHODS)
    if indices is not None:
        jobs = tuple(job for job in jobs if job.job_id // 2 + 1 in indices)
    records = TuningCampaign(jobs).run().records
    report = format_table1(records) + "\n\n" + format_summary(summarize_suite(records))
    return records, report


# ----------------------------------------------------------------------
# E2: Figure 7 — probed points of selected benchmarks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ProbeMapResult:
    """Probe map of the fast extraction on one benchmark (Figure 7)."""

    index: int
    name: str
    shape: tuple[int, int]
    probe_mask: np.ndarray
    n_probes: int
    probe_fraction: float
    success: bool


def run_figure7(indices: tuple[int, ...] = (6, 10)) -> list[ProbeMapResult]:
    """Reproduce Figure 7: which pixels the fast method probes on CSD 6 and 10."""
    results = []
    for index in indices:
        csd = load_benchmark(index)
        session = ExperimentSession.from_csd(csd)
        extraction = FastVirtualGateExtractor().extract(session)
        mask = session.meter.log.probe_mask(csd.shape)
        results.append(
            ProbeMapResult(
                index=index,
                name=str(csd.metadata.get("name", f"benchmark-{index}")),
                shape=csd.shape,
                probe_mask=mask,
                n_probes=extraction.probe_stats.n_probes,
                probe_fraction=extraction.probe_stats.probe_fraction,
                success=extraction.success,
            )
        )
    return results


# ----------------------------------------------------------------------
# A1: sweep / post-processing ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AblationRow:
    """One configuration of an ablation study, aggregated over benchmarks."""

    label: str
    success_rate: float
    mean_alpha_error: float
    mean_probe_fraction: float


#: Benchmarks used for ablations: the ten that are not pathological-noise cases.
ABLATION_INDICES: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12)


def _run_ablation(
    variants: list[tuple[str, str | TuningPipeline]], indices: tuple[int, ...], title: str
) -> tuple[list[AblationRow], str]:
    """Every variant over the chosen benchmarks, one row per variant."""
    records = _run([load_benchmark(i) for i in indices], [method for _, method in variants])
    rows = [
        AblationRow(label, *_aggregate(records[k :: len(variants)]))
        for k, (label, _) in enumerate(variants)
    ]
    report = _format_rate_table(
        title,
        ["configuration", "success rate", "mean |alpha error|", "mean probe fraction"],
        [row.label for row in rows],
        rows,
    )
    return rows, report


def run_ablation_sweeps(
    indices: tuple[int, ...] = ABLATION_INDICES,
) -> tuple[list[AblationRow], str]:
    """Ablate the sweep directions and the erroneous-point filter (§4.3.2).

    Each variant is a registered pipeline, run at the paper's configuration.
    """
    variants = [
        ("both sweeps + filter (paper)", METHOD_NAME),
        ("row sweep only", "row-sweep-only"),
        ("column sweep only", "column-sweep-only"),
        ("both sweeps, no filter", "no-filter"),
    ]
    return _run_ablation(variants, indices, "Ablation: sweeps and post-processing")


def _fast_pipeline_with(**anchor_settings) -> TuningPipeline:
    """The fast pipeline with these anchor settings, named after them.

    The name becomes the job's method, so a variant's records and job
    labels (and with them a checkpoint fingerprint) tell it apart.
    """
    fast = get_pipeline(METHOD_NAME)
    settings = ", ".join(f"{key}={value}" for key, value in anchor_settings.items())
    return TuningPipeline(
        f"{fast.name}[{settings}]",
        fast.stages,
        method_name=fast.method_name,
        default_config=partial(ExtractionConfig, anchors=AnchorConfig(**anchor_settings)),
    )


def run_ablation_anchors(
    indices: tuple[int, ...] = ABLATION_INDICES,
) -> tuple[list[AblationRow], str]:
    """Ablate the anchor preprocessing (§4.4): Gaussian weighting and margin.

    The paper's variant is the registered fast pipeline; the others are
    that pipeline with one anchor setting changed, carried by their jobs.
    """
    variants = [
        ("paper anchors (masks + Gaussian)", METHOD_NAME),
        ("no Gaussian weighting", _fast_pipeline_with(gaussian_sigma_fraction=2.0)),
        ("narrow Gaussian prior", _fast_pipeline_with(gaussian_sigma_fraction=0.10)),
        ("no start margin", _fast_pipeline_with(start_margin_fraction=0.0)),
    ]
    return _run_ablation(variants, indices, "Ablation: anchor preprocessing")


# ----------------------------------------------------------------------
# A3: robustness against noise amplitude
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NoiseSweepRow:
    """Outcome of the fast extraction at one noise amplitude."""

    noise_scale: float
    success_rate: float
    mean_alpha_error: float
    mean_probe_fraction: float


def run_noise_sweep(
    noise_scales: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0),
    resolution: int = 100,
    n_seeds: int = 3,
) -> tuple[list[NoiseSweepRow], str]:
    """Success rate of the fast method as the noise floor grows (robustness)."""
    diagrams = [
        SyntheticCSDConfig(
            name=f"noise-sweep-{scale:g}-{seed}",
            resolution=resolution,
            cross_coupling=(0.26, 0.22),
            noise=NoiseRecipe(
                white_sigma_na=0.012 * scale,
                pink_sigma_na=0.015 * scale,
                drift_na=0.02 * scale,
            ),
            seed=1000 + seed,
        ).build_csd()
        for scale in noise_scales
        for seed in range(n_seeds)
    ]
    records = _run(diagrams, ("fast",))
    rows = [
        NoiseSweepRow(scale, *_aggregate(records[k * n_seeds : (k + 1) * n_seeds]))
        for k, scale in enumerate(noise_scales)
    ]
    report = _format_rate_table(
        "Noise robustness of the fast extraction",
        ["noise scale", "success rate", "mean |alpha error|", "probe fraction"],
        [f"{scale:g}x" for scale in noise_scales],
        rows,
    )
    return rows, report


# ----------------------------------------------------------------------
# A4: resolution scaling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResolutionScalingRow:
    """Cost of both methods at one CSD resolution."""

    resolution: int
    fast_probes: int
    fast_fraction: float
    fast_elapsed_s: float
    baseline_elapsed_s: float
    speedup: float


def run_resolution_scaling(
    resolutions: tuple[int, ...] = (63, 100, 150, 200),
    seed: int = 7,
) -> tuple[list[ResolutionScalingRow], str]:
    """Probe fraction and speedup as a function of scan resolution."""
    diagrams = [
        SyntheticCSDConfig(
            name=f"resolution-{resolution}",
            resolution=resolution,
            cross_coupling=(0.26, 0.22),
            seed=seed,
        ).build_csd()
        for resolution in resolutions
    ]
    records = _run(diagrams, TABLE1_METHODS)
    rows = []
    for resolution, fast, baseline in zip(resolutions, records[::2], records[1::2]):
        speedup = pair_speedup(fast, baseline)
        rows.append(
            ResolutionScalingRow(
                resolution=resolution,
                fast_probes=fast.n_probes,
                fast_fraction=fast.probe_fraction,
                fast_elapsed_s=fast.sim_elapsed_s,
                baseline_elapsed_s=baseline.sim_elapsed_s,
                speedup=speedup if speedup is not None else float("nan"),
            )
        )
    headers = ["resolution", "fast probes", "probe fraction", "fast runtime", "baseline runtime", "speedup"]
    table_rows = [
        [
            f"{row.resolution}x{row.resolution}",
            str(row.fast_probes),
            f"{100.0 * row.fast_fraction:.1f}%",
            f"{row.fast_elapsed_s:.1f}s",
            f"{row.baseline_elapsed_s:.1f}s",
            f"{row.speedup:.2f}x",
        ]
        for row in rows
    ]
    report = format_table(headers, table_rows, title="Scaling with CSD resolution")
    return rows, report


# ----------------------------------------------------------------------
# E6: n-dot array extraction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArrayScalingRow:
    """Cost and accuracy of the array extension for one array size."""

    n_dots: int
    n_pairs: int
    total_probes: int
    total_elapsed_s: float
    max_alpha_error: float
    all_pairs_succeeded: bool


def run_array_scaling(
    dot_counts: tuple[int, ...] = (2, 3, 4),
    resolution: int = 80,
) -> tuple[list[ArrayScalingRow], str]:
    """Sequential pairwise extraction cost for growing linear arrays (§2.3)."""
    rows = []
    for n_dots in dot_counts:
        factory = SessionFactory(
            DotArrayDevice.linear_array(n_dots=n_dots), resolution=resolution
        )
        outcome = ArrayVirtualGateExtractor(factory, seed=42).extract()
        rows.append(
            ArrayScalingRow(
                n_dots=n_dots,
                n_pairs=outcome.n_pairs,
                total_probes=outcome.total_probes,
                total_elapsed_s=outcome.total_elapsed_s,
                max_alpha_error=outcome.max_alpha_error(),
                all_pairs_succeeded=outcome.all_pairs_succeeded,
            )
        )
    headers = ["dots", "pairs", "total probes", "total runtime", "max |alpha error|", "all pairs ok"]
    table_rows = [
        [
            str(row.n_dots),
            str(row.n_pairs),
            str(row.total_probes),
            f"{row.total_elapsed_s:.1f}s",
            f"{row.max_alpha_error:.4f}" if np.isfinite(row.max_alpha_error) else "inf",
            "yes" if row.all_pairs_succeeded else "no",
        ]
        for row in rows
    ]
    report = format_table(headers, table_rows, title="n-dot array extraction (sequential pairwise)")
    return rows, report
