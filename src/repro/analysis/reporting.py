"""Plain-text report formatting for the reproduced tables.

No plotting library is assumed; every experiment renders to aligned text
tables (the same rows and columns as the paper's Table 1) plus a short
summary block with the aggregate numbers the paper quotes in its abstract
(speedup range, average probe fraction, success counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import speedup


def format_table(headers: list[str], rows: list[list[str]], title: str | None = None) -> str:
    """Render an aligned plain-text table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _success_label(success: bool) -> str:
    return "Success" if success else "Fail"


def pair_speedup(fast, baseline) -> float | None:
    """Baseline over fast simulated runtime of one diagram's two records.

    ``None`` unless the fast method succeeded: a failed fast run has no
    speedup to claim.
    """
    if not fast.success:
        return None
    return speedup(baseline.sim_elapsed_s, fast.sim_elapsed_s)


def _table1_pairs(records: Sequence) -> list[tuple]:
    """``(CSD number, fast record, baseline record)`` per Table-1 diagram.

    ``records`` are the records of a Table-1 campaign in job-id order
    (:func:`repro.campaign.experiments.run_table1`), which numbers its jobs
    as :func:`~repro.campaign.experiments.diagram_jobs` does: CSD ``i``
    runs through the fast method as job ``2(i - 1)`` and through the
    baseline as job ``2(i - 1) + 1``.
    """
    return [
        (fast.job_id // 2 + 1, fast, baseline)
        for fast, baseline in zip(records[::2], records[1::2])
    ]


def table1_rows(records: Sequence) -> list[list[str]]:
    """Rows of the reproduced Table 1 from a Table-1 campaign's records."""
    rows = []
    for index, fast, baseline in _table1_pairs(records):
        # Table-1 diagrams are square: a record's resolution is its side.
        size = fast.resolution
        value = pair_speedup(fast, baseline)
        rows.append(
            [
                str(index),
                f"{size}x{size}",
                _success_label(fast.success),
                _success_label(baseline.success),
                f"{fast.n_probes} ({100.0 * fast.n_probes / size**2:.2f}%)",
                f"{baseline.n_probes} (100%)",
                f"{fast.sim_elapsed_s:.2f}s",
                f"{baseline.sim_elapsed_s:.2f}s",
                "N/A" if value is None else f"{value:.2f}x",
            ]
        )
    return rows


TABLE1_HEADERS = [
    "CSD",
    "Size",
    "Fast",
    "Baseline",
    "Points (fast)",
    "Points (baseline)",
    "Runtime (fast)",
    "Runtime (baseline)",
    "Speedup",
]


def format_table1(records: Sequence) -> str:
    """The reproduced Table 1 as a plain-text table."""
    return format_table(
        TABLE1_HEADERS,
        table1_rows(records),
        title="Table 1 (reproduced): fast virtual gate extraction vs Canny+Hough baseline",
    )


@dataclass(frozen=True)
class SuiteSummary:
    """Aggregate numbers over a benchmark suite (the abstract's claims)."""

    n_benchmarks: int
    fast_successes: int
    baseline_successes: int
    min_speedup: float
    max_speedup: float
    mean_probe_fraction: float


def summarize_suite(records: Sequence) -> SuiteSummary:
    """Aggregate a Table-1 campaign's records."""
    pairs = _table1_pairs(records)
    succeeded = [(fast, baseline) for _, fast, baseline in pairs if fast.success]
    speedups = [pair_speedup(fast, baseline) for fast, baseline in succeeded]
    fractions = [fast.probe_fraction for fast, _ in succeeded]
    return SuiteSummary(
        n_benchmarks=len(pairs),
        fast_successes=len(succeeded),
        baseline_successes=sum(1 for _, _, baseline in pairs if baseline.success),
        min_speedup=float(min(speedups)) if speedups else float("nan"),
        max_speedup=float(max(speedups)) if speedups else float("nan"),
        mean_probe_fraction=float(np.mean(fractions)) if fractions else float("nan"),
    )


def format_summary(summary: SuiteSummary) -> str:
    """Human-readable summary block."""
    lines = [
        "Summary",
        f"  benchmarks:            {summary.n_benchmarks}",
        f"  fast successes:        {summary.fast_successes}/{summary.n_benchmarks}",
        f"  baseline successes:    {summary.baseline_successes}/{summary.n_benchmarks}",
        f"  speedup range:         {summary.min_speedup:.2f}x .. {summary.max_speedup:.2f}x",
        f"  mean probe fraction:   {100.0 * summary.mean_probe_fraction:.1f}%",
    ]
    return "\n".join(lines)


def format_accuracy_table(records: Sequence) -> str:
    """Extra table: extracted-vs-true coefficients per benchmark (both methods)."""
    headers = [
        "CSD",
        "true a12",
        "true a21",
        "fast a12",
        "fast a21",
        "baseline a12",
        "baseline a21",
    ]
    rows = [
        [
            str(index),
            _fmt(fast.true_alpha_12),
            _fmt(fast.true_alpha_21),
            _fmt(fast.alpha_12),
            _fmt(fast.alpha_21),
            _fmt(baseline.alpha_12),
            _fmt(baseline.alpha_21),
        ]
        for index, fast, baseline in _table1_pairs(records)
    ]
    return format_table(headers, rows, title="Extracted vs true virtualization coefficients")


def _fmt(value: float | None) -> str:
    if value is None or not np.isfinite(value):
        return "-"
    return f"{value:.3f}"


CAMPAIGN_HEADERS = [
    "Job",
    "Device",
    "Gates",
    "Method",
    "Res",
    "Noise",
    "Verdict",
    "Max |a err|",
    "Probes",
    "Runtime",
    "Failure",
]


def campaign_rows(rows: list[dict]) -> list[list[str]]:
    """Table rows from per-job campaign dicts (see ``CampaignResult.job_rows``)."""
    out = []
    for row in rows:
        out.append(
            [
                str(row["job_id"]),
                str(row["device"]),
                f"{row['gate_x']}-{row['gate_y']}",
                str(row["method"]),
                str(row["resolution"]),
                # Scenario jobs run under the named environment; static jobs
                # under a multiple of the standard noise mix.
                str(row["scenario"])
                if row.get("scenario")
                else f"{row['noise_scale']:g}x",
                _success_label(bool(row["success"])),
                _fmt(row["max_alpha_error"]),
                f"{row['n_probes']} ({100.0 * row['probe_fraction']:.1f}%)",
                f"{row['sim_elapsed_s']:.1f}s",
                "-" if row["success"] else str(row["failure_category"]),
            ]
        )
    return out


def format_campaign_table(rows: list[dict], max_rows: int | None = None) -> str:
    """Per-job campaign table, optionally truncated to the first ``max_rows``."""
    shown = rows if max_rows is None else rows[:max_rows]
    table = format_table(
        CAMPAIGN_HEADERS,
        campaign_rows(shown),
        title="Batch-tuning campaign: per-job outcomes",
    )
    if max_rows is not None and len(rows) > max_rows:
        table += f"\n... ({len(rows) - max_rows} more jobs)"
    return table


STAGE_BREAKDOWN_HEADERS = [
    "Method",
    "Stage",
    "Runs",
    "Probes",
    "Probe share",
    "Sim time",
    "Wall",
]


def aggregate_stage_costs(rows: list[dict]) -> dict[tuple[str, str], dict]:
    """Per-(method, stage) cost totals from per-job campaign dicts.

    Each job dict may carry ``stage_telemetry`` (a sequence of
    :class:`~repro.core.result.StageTelemetry`); jobs without telemetry
    contribute nothing.  The single aggregation behind both the rendered
    breakdown table and :meth:`repro.campaign.results.CampaignResult.stage_breakdown`.
    """
    totals: dict[tuple[str, str], dict] = {}
    for row in rows:
        method = str(row.get("method"))
        for telemetry in row.get("stage_telemetry") or ():
            entry = totals.setdefault(
                (method, telemetry.stage),
                {"n_runs": 0, "n_probes": 0, "sim_elapsed_s": 0.0, "wall_s": 0.0},
            )
            entry["n_runs"] += 1
            entry["n_probes"] += telemetry.n_probes
            entry["sim_elapsed_s"] += telemetry.sim_elapsed_s
            entry["wall_s"] += telemetry.wall_s
    return totals


def stage_breakdown_rows(rows: list[dict]) -> list[list[str]]:
    """Per-(method, stage) aggregate rows from per-job campaign dicts.

    "Probe share" is the stage's fraction of its *method's* total probes —
    the per-method answer to "where did the probes go".
    """
    totals = aggregate_stage_costs(rows)
    method_probes: dict[str, int] = {}
    for (method, _stage), entry in totals.items():
        method_probes[method] = method_probes.get(method, 0) + entry["n_probes"]
    out = []
    for (method, stage), entry in totals.items():
        denominator = method_probes.get(method, 0)
        share = (
            f"{100.0 * entry['n_probes'] / denominator:.1f}%"
            if denominator
            else "-"
        )
        out.append(
            [
                method,
                stage,
                str(entry["n_runs"]),
                str(entry["n_probes"]),
                share,
                f"{entry['sim_elapsed_s']:.1f}s",
                f"{1e3 * entry['wall_s']:.1f}ms",
            ]
        )
    return out


def format_stage_costs(stage_telemetry) -> str:
    """Per-stage cost table of one run's telemetry (plain text).

    Accepts any iterable of :class:`~repro.core.result.StageTelemetry`
    (``result.stage_telemetry``, ``auto_tune_result.stage_telemetry``).
    """
    rows = [
        [
            t.stage,
            t.outcome,
            str(t.n_probes),
            str(t.cache_hits),
            f"{t.sim_elapsed_s:.2f}s",
            f"{1e3 * t.wall_s:.1f}ms",
        ]
        for t in stage_telemetry
    ]
    return format_table(
        ["Stage", "Outcome", "Probes", "Cache hits", "Sim time", "Wall"],
        rows,
        title="Per-stage cost",
    )


def format_stage_breakdown(rows: list[dict]) -> str:
    """Per-stage cost table over a campaign's jobs (empty string if no telemetry).

    Rows keep first-appearance order — method by method, stage by stage in
    execution order — so the table reads like the pipelines ran.
    """
    breakdown = stage_breakdown_rows(rows)
    if not breakdown:
        return ""
    return format_table(
        STAGE_BREAKDOWN_HEADERS,
        breakdown,
        title="Per-stage probe accounting: where did the probes go",
    )


FAULT_RESILIENCE_HEADERS = [
    "Fault condition",
    "Jobs",
    "Succeeded",
    "Probe retries",
    "Worker crashes",
]


def aggregate_fault_resilience(rows: list[dict]) -> dict[str, dict]:
    """Per-fault-condition outcome totals from per-job campaign dicts.

    Groups jobs by their injected fault condition (``"none"`` for
    fault-free jobs) and totals successes, probe-level retries, and
    worker-death records — the numbers that say whether the retry stack
    actually absorbed the injected misbehaviour.
    """
    totals: dict[str, dict] = {}
    for row in rows:
        condition = str(row.get("fault") or "none")
        entry = totals.setdefault(
            condition,
            {"n_jobs": 0, "n_succeeded": 0, "n_probe_retries": 0, "n_crashes": 0},
        )
        entry["n_jobs"] += 1
        entry["n_succeeded"] += bool(row.get("success"))
        entry["n_probe_retries"] += int(row.get("n_probe_retries") or 0)
        entry["n_crashes"] += row.get("failure_category") == "worker_error"
    return totals


def format_fault_resilience(rows: list[dict]) -> str:
    """Fault-resilience table over a campaign's jobs.

    Empty string when nothing was injected — no job carries a fault
    condition or a probe retry — so fault-free campaign reports render
    exactly as they did before the fault axis existed.
    """
    if not any(row.get("fault") or row.get("n_probe_retries") for row in rows):
        return ""
    totals = aggregate_fault_resilience(rows)
    table_rows = [
        [
            condition,
            str(entry["n_jobs"]),
            f"{entry['n_succeeded']}/{entry['n_jobs']}",
            str(entry["n_probe_retries"]),
            str(entry["n_crashes"]),
        ]
        for condition, entry in totals.items()
    ]
    return format_table(
        FAULT_RESILIENCE_HEADERS,
        table_rows,
        title="Fault resilience: outcomes under injected conditions",
    )


SURFACE_HEADERS = ["region", "", "jobs", "success", "rate", "95% CI"]


def format_surface_table(
    x_axis: str, y_axis: str, cells: list[dict], title: str | None = None
) -> str:
    """Success-surface table from per-cell dicts (see ``SurfaceCell``).

    One row per region, lowest severities first; empty regions render with
    a ``-`` rate so coverage gaps are visible rather than silently absent.
    """

    def _bounds(low: float, high: float, axis: str) -> str:
        if low == high:
            return f"{axis}={low:g}"
        return f"{axis} [{low:g}, {high:g})"

    rows = []
    for cell in cells:
        n_jobs = int(cell["n_jobs"])
        n_succeeded = int(cell["n_succeeded"])
        rate = f"{100.0 * n_succeeded / n_jobs:.0f}%" if n_jobs else "-"
        rows.append(
            [
                _bounds(cell["x_low"], cell["x_high"], x_axis),
                _bounds(cell["y_low"], cell["y_high"], y_axis),
                str(n_jobs),
                f"{n_succeeded}/{n_jobs}" if n_jobs else "-",
                rate,
                f"[{100.0 * cell['ci_low']:.0f}%, {100.0 * cell['ci_high']:.0f}%]",
            ]
        )
    return format_table(SURFACE_HEADERS, rows, title=title)


def format_campaign_summary(summary: dict) -> str:
    """Aggregate block of a campaign (see ``CampaignResult.summary``).

    A partial result — one rebuilt from an interrupted run's checkpoint
    journal, where fewer records exist than the grid expanded into — is
    flagged with a ``completed`` line so the aggregates read as
    "so far", not as the finished campaign.
    """
    rate = summary["success_rate"]
    fraction = summary["mean_probe_fraction"]
    lines = [
        "Campaign summary",
        f"  jobs:                  {summary['n_jobs']}",
    ]
    n_expected = summary.get("n_expected", summary["n_jobs"])
    if n_expected > summary["n_jobs"]:
        lines.append(
            f"  completed:             {summary['n_jobs']}/{n_expected} (partial)"
        )
    lines += [
        f"  succeeded:             {summary['n_succeeded']}/{summary['n_jobs']}"
        + (f" ({100.0 * rate:.1f}%)" if np.isfinite(rate) else ""),
        f"  total probes:          {summary['total_probes']}",
        f"  simulated time:        {summary['total_sim_elapsed_s']:.1f}s",
        f"  mean probe fraction:   "
        + (f"{100.0 * fraction:.1f}%" if np.isfinite(fraction) else "-"),
        f"  workers:               {summary['n_workers']}",
        f"  wall time:             {summary['wall_time_s']:.2f}s",
    ]
    taxonomy = summary.get("failure_taxonomy") or {}
    if taxonomy:
        lines.append("  failure taxonomy:")
        for category, count in sorted(taxonomy.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"    {category}: {count}")
    return "\n".join(lines)
