"""Experiment runners: one function per reproduced table, figure, or ablation.

Each runner builds its workload from the synthetic substrate, executes the
relevant method(s), and returns plain data structures plus a formatted text
report.  ``tests/analysis/test_experiments.py`` runs every runner at its
experiment's full input and asserts the property the paper draws from it;
Table 1 itself is replayed exactly by perfbench's ``table1`` workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.config import AnchorConfig, ExtractionConfig
from ..core.extraction import METHOD_NAME
from ..datasets.qflow import load_benchmark, load_suite
from ..datasets.synthetic import NoiseRecipe, SyntheticCSDConfig
from ..instrument.session import ExperimentSession, SessionFactory
from ..physics.dot_array import DotArrayDevice
from ..pipeline.array_extraction import ArrayVirtualGateExtractor
from ..pipeline.registry import FastVirtualGateExtractor, get_pipeline
from .comparison import BenchmarkRecord, ComparisonRunner
from .metrics import SuccessCriterion, accuracy_metrics
from .reporting import format_summary, format_table, format_table1, summarize_suite


# ----------------------------------------------------------------------
# E1 / E3: Table 1 and the headline speedup claim
# ----------------------------------------------------------------------
def run_table1(indices: tuple[int, ...] | None = None) -> tuple[list[BenchmarkRecord], str]:
    """Reproduce Table 1 over the full suite (or a subset of 1-based indices)."""
    if indices is None:
        suite = load_suite()
        records = ComparisonRunner().run_suite(suite)
    else:
        runner = ComparisonRunner()
        records = [
            runner.run_benchmark(load_benchmark(i), index=i) for i in indices
        ]
    summary = summarize_suite(records)
    report = format_table1(records) + "\n\n" + format_summary(summary)
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
    details: dict = field(default_factory=dict)


def _evaluate_config_on_suite(
    config: ExtractionConfig,
    indices: tuple[int, ...],
    pipeline: str = METHOD_NAME,
) -> tuple[float, float, float]:
    criterion = SuccessCriterion()
    successes = 0
    alpha_errors: list[float] = []
    fractions: list[float] = []
    for index in indices:
        csd = load_benchmark(index)
        session = ExperimentSession.from_csd(csd)
        result = get_pipeline(pipeline).run(session, config=config)
        geometry = csd.geometry
        if criterion.evaluate(result, geometry):
            successes += 1
        if geometry is not None:
            metrics = accuracy_metrics(result, geometry)
            if np.isfinite(metrics.max_alpha_error):
                alpha_errors.append(metrics.max_alpha_error)
        fractions.append(result.probe_stats.probe_fraction)
    success_rate = successes / float(len(indices))
    mean_error = float(np.mean(alpha_errors)) if alpha_errors else float("inf")
    mean_fraction = float(np.mean(fractions)) if fractions else 0.0
    return success_rate, mean_error, mean_fraction


#: Benchmarks used for ablations: the ten that are not pathological-noise cases.
ABLATION_INDICES: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12)


def run_ablation_sweeps(
    indices: tuple[int, ...] = ABLATION_INDICES,
) -> tuple[list[AblationRow], str]:
    """Ablate the sweep directions and the erroneous-point filter (§4.3.2).

    Each variant is a registered pipeline, run at the paper's configuration.
    """
    base = ExtractionConfig.paper_defaults()
    variants = [
        ("both sweeps + filter (paper)", METHOD_NAME),
        ("row sweep only", "row-sweep-only"),
        ("column sweep only", "column-sweep-only"),
        ("both sweeps, no filter", "no-filter"),
    ]
    rows = []
    for label, pipeline in variants:
        success_rate, mean_error, mean_fraction = _evaluate_config_on_suite(
            base, indices, pipeline
        )
        rows.append(
            AblationRow(
                label=label,
                success_rate=success_rate,
                mean_alpha_error=mean_error,
                mean_probe_fraction=mean_fraction,
            )
        )
    report = _format_ablation(rows, title="Ablation: sweeps and post-processing")
    return rows, report


def run_ablation_anchors(
    indices: tuple[int, ...] = ABLATION_INDICES,
) -> tuple[list[AblationRow], str]:
    """Ablate the anchor preprocessing (§4.4): Gaussian weighting and margin."""
    base = ExtractionConfig.paper_defaults()
    variants = [
        ("paper anchors (masks + Gaussian)", base),
        (
            "no Gaussian weighting",
            base.replace(anchors=AnchorConfig(gaussian_sigma_fraction=2.0)),
        ),
        (
            "narrow Gaussian prior",
            base.replace(anchors=AnchorConfig(gaussian_sigma_fraction=0.10)),
        ),
        (
            "no start margin",
            base.replace(anchors=AnchorConfig(start_margin_fraction=0.0)),
        ),
    ]
    rows = []
    for label, config in variants:
        success_rate, mean_error, mean_fraction = _evaluate_config_on_suite(config, indices)
        rows.append(
            AblationRow(
                label=label,
                success_rate=success_rate,
                mean_alpha_error=mean_error,
                mean_probe_fraction=mean_fraction,
            )
        )
    report = _format_ablation(rows, title="Ablation: anchor preprocessing")
    return rows, report


def _format_ablation(rows: list[AblationRow], title: str) -> str:
    headers = ["configuration", "success rate", "mean |alpha error|", "mean probe fraction"]
    table_rows = [
        [
            row.label,
            f"{100.0 * row.success_rate:.0f}%",
            f"{row.mean_alpha_error:.4f}" if np.isfinite(row.mean_alpha_error) else "inf",
            f"{100.0 * row.mean_probe_fraction:.1f}%",
        ]
        for row in rows
    ]
    return format_table(headers, table_rows, title=title)


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
    criterion = SuccessCriterion()
    rows = []
    for scale in noise_scales:
        successes = 0
        errors: list[float] = []
        fractions: list[float] = []
        for seed in range(n_seeds):
            config = SyntheticCSDConfig(
                name=f"noise-sweep-{scale:g}-{seed}",
                resolution=resolution,
                cross_coupling=(0.26, 0.22),
                noise=NoiseRecipe(
                    white_sigma_na=0.012 * scale,
                    pink_sigma_na=0.015 * scale,
                    drift_na=0.02 * scale,
                ),
                seed=1000 + seed,
            )
            csd = config.build_csd()
            session = ExperimentSession.from_csd(csd)
            result = FastVirtualGateExtractor().extract(session)
            if criterion.evaluate(result, csd.geometry):
                successes += 1
            if csd.geometry is not None:
                metrics = accuracy_metrics(result, csd.geometry)
                if np.isfinite(metrics.max_alpha_error):
                    errors.append(metrics.max_alpha_error)
            fractions.append(result.probe_stats.probe_fraction)
        rows.append(
            NoiseSweepRow(
                noise_scale=scale,
                success_rate=successes / float(n_seeds),
                mean_alpha_error=float(np.mean(errors)) if errors else float("inf"),
                mean_probe_fraction=float(np.mean(fractions)),
            )
        )
    headers = ["noise scale", "success rate", "mean |alpha error|", "probe fraction"]
    table_rows = [
        [
            f"{row.noise_scale:g}x",
            f"{100.0 * row.success_rate:.0f}%",
            f"{row.mean_alpha_error:.4f}" if np.isfinite(row.mean_alpha_error) else "inf",
            f"{100.0 * row.mean_probe_fraction:.1f}%",
        ]
        for row in rows
    ]
    report = format_table(headers, table_rows, title="Noise robustness of the fast extraction")
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
    runner = ComparisonRunner()
    rows = []
    for resolution in resolutions:
        config = SyntheticCSDConfig(
            name=f"resolution-{resolution}",
            resolution=resolution,
            cross_coupling=(0.26, 0.22),
            seed=seed,
        )
        record = runner.run_benchmark(config.build_csd(), index=resolution)
        rows.append(
            ResolutionScalingRow(
                resolution=resolution,
                fast_probes=record.fast.n_probes,
                fast_fraction=record.fast.probe_fraction,
                fast_elapsed_s=record.fast.elapsed_s,
                baseline_elapsed_s=record.baseline.elapsed_s,
                speedup=record.speedup if record.speedup is not None else float("nan"),
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
