"""Aggregated outcomes of a batch-tuning campaign.

A campaign's product is not one matrix but a *population* of runs, so the
result object is organised around aggregate questions: what fraction
succeeded, what did the fleet cost in probes and simulated time, and — for
the runs that failed — *how* did they fail (the failure taxonomy).  Per-job
records stay available for drill-down, and the whole object renders through
the same plain-text table machinery as the paper's reproduced tables
(:mod:`repro.analysis.reporting`).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from ..analysis.reporting import (
    aggregate_stage_costs,
    format_campaign_summary,
    format_campaign_table,
    format_fault_resilience,
    format_stage_breakdown,
)
from ..core.result import StageTelemetry
from ..execution.checkpoint import CheckpointJournal
from ..strictjson import record


@record
@dataclass(frozen=True, eq=False)
class CampaignJobRecord:
    """Condensed, picklable outcome of one campaign job.

    Journals and saved results store it via :func:`repro.strictjson.record`'s
    ``as_dict``/``from_dict``; report tables use :meth:`CampaignResult.job_rows`.

    Equality is field-by-field with NaN comparing equal to NaN: a record
    with an undefined ground truth (``max_alpha_error`` is NaN when the
    session has no geometry) must still satisfy the bit-for-bit
    round-trip and resume-equality contracts, which IEEE ``nan != nan``
    would break.
    """

    job_id: int
    label: str
    device: str
    method: str
    resolution: int
    noise_scale: float
    repeat: int
    gate_x: str
    gate_y: str
    success: bool
    extractor_success: bool
    alpha_12: float | None
    alpha_21: float | None
    true_alpha_12: float | None
    true_alpha_21: float | None
    max_alpha_error: float
    n_probes: int
    probe_fraction: float
    sim_elapsed_s: float
    wall_elapsed_s: float
    failure_category: str
    failure_reason: str
    scenario: str | None = None
    #: Injected fault condition the job ran under (``None`` = fault-free).
    #: Defaults keep journals written before the fault axis loadable.
    fault: str | None = None
    #: Probe-level retry attempts the session's meter spent riding out
    #: injected faults (0 for fault-free jobs and pre-fault journals).
    n_probe_retries: int = 0
    stage_telemetry: tuple[StageTelemetry, ...] = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CampaignJobRecord):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if (
                isinstance(mine, float)
                and isinstance(theirs, float)
                and math.isnan(mine)
                and math.isnan(theirs)
            ):
                continue
            if mine != theirs:
                return False
        return True

    def __hash__(self) -> int:
        # Custom __eq__ suppresses the dataclass-generated hash; restore
        # hashability, normalising NaN so equal records hash equally.
        def norm(value):
            if isinstance(value, float) and math.isnan(value):
                return "nan"
            return value

        return hash(tuple(norm(getattr(self, f.name)) for f in fields(self)))


@record
@dataclass(frozen=True)
class CampaignResult:
    """Everything a finished campaign produced, ordered by job id."""

    records: tuple[CampaignJobRecord, ...]
    n_workers: int
    wall_time_s: float
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def n_jobs(self) -> int:
        """Total number of jobs that ran."""
        return len(self.records)

    @property
    def n_succeeded(self) -> int:
        """Jobs whose extraction matched the ground truth."""
        return sum(1 for r in self.records if r.success)

    @property
    def success_rate(self) -> float:
        """Fraction of jobs that succeeded (``nan`` for an empty campaign)."""
        if not self.records:
            return float("nan")
        return self.n_succeeded / float(self.n_jobs)

    @property
    def total_probes(self) -> int:
        """Physical probes spent across the whole campaign."""
        return sum(r.n_probes for r in self.records)

    @property
    def total_sim_elapsed_s(self) -> float:
        """Simulated experiment time summed over all jobs."""
        return float(sum(r.sim_elapsed_s for r in self.records))

    def failure_taxonomy(self) -> dict[str, int]:
        """Failure-category counts over the non-successful jobs."""
        return dict(
            Counter(r.failure_category for r in self.records if not r.success)
        )

    def failed_records(self) -> tuple[CampaignJobRecord, ...]:
        """The jobs that did not succeed."""
        return tuple(r for r in self.records if not r.success)

    def records_for(
        self,
        method: str | None = None,
        noise_scale: float | None = None,
        scenario: str | None = None,
    ) -> tuple[CampaignJobRecord, ...]:
        """Filter records by method, noise scale, and/or scenario name."""
        out = self.records
        if method is not None:
            out = tuple(r for r in out if r.method == method)
        if noise_scale is not None:
            out = tuple(r for r in out if r.noise_scale == noise_scale)
        if scenario is not None:
            out = tuple(r for r in out if r.scenario == scenario)
        return out

    def mean_probe_fraction(self) -> float:
        """Average probe fraction over the successful jobs."""
        fractions = [r.probe_fraction for r in self.records if r.success]
        return float(np.mean(fractions)) if fractions else float("nan")

    @property
    def n_expected(self) -> int:
        """Jobs the campaign was *supposed* to run (``n_jobs`` when unknown).

        A result reconstructed from a partial checkpoint journal, or an
        interrupted run, can hold fewer records than the grid expanded
        into; the expected total travels in ``metadata["n_jobs"]``.
        """
        return int(self.metadata.get("n_jobs", self.n_jobs))

    @property
    def is_partial(self) -> bool:
        """Whether this result covers fewer jobs than the campaign expected."""
        return self.n_jobs < self.n_expected

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate numbers as a plain dict."""
        return {
            "n_jobs": self.n_jobs,
            "n_expected": self.n_expected,
            "n_succeeded": self.n_succeeded,
            "success_rate": self.success_rate,
            "total_probes": self.total_probes,
            "total_sim_elapsed_s": self.total_sim_elapsed_s,
            "mean_probe_fraction": self.mean_probe_fraction(),
            "n_workers": self.n_workers,
            "wall_time_s": self.wall_time_s,
            "failure_taxonomy": self.failure_taxonomy(),
        }

    def job_rows(self) -> list[dict]:
        """Per-job dict rows in job-id order, for the report tables.

        Unlike :meth:`CampaignJobRecord.as_dict` these carry the plain
        Python values (infinities stay floats, not JSON-safe tags) — they
        feed formatters, not serialisers.
        """
        return [
            {f.name: getattr(record, f.name) for f in fields(CampaignJobRecord)}
            for record in self.records
        ]

    def stage_breakdown(self) -> dict[tuple[str, str], dict]:
        """Per-(method, stage) cost aggregates over the whole campaign.

        Maps ``(method, stage)`` to ``{"n_runs", "n_probes",
        "sim_elapsed_s", "wall_s"}`` totals — the "where did the probes go"
        view the per-stage telemetry exists for.  Records without telemetry
        (failure records, pre-pipeline journals) simply contribute nothing.
        """
        return aggregate_stage_costs(self.job_rows())

    def format_report(self, max_rows: int | None = None) -> str:
        """Full plain-text report: per-job table, aggregates, stage costs.

        Renders partial results (an interrupted run's journal, a truncated
        resume) exactly like complete ones, with the summary flagging how
        many of the expected jobs have records.  The per-stage breakdown
        appears whenever any record carries stage telemetry, and the fault
        resilience section whenever any job ran under an injected fault
        condition (or spent probe retries).
        """
        rows = self.job_rows()
        table = format_campaign_table(rows, max_rows=max_rows)
        report = table + "\n\n" + format_campaign_summary(self.summary())
        breakdown = format_stage_breakdown(rows)
        if breakdown:
            report += "\n\n" + breakdown
        resilience = format_fault_resilience(rows)
        if resilience:
            report += "\n\n" + resilience
        return report

    # ------------------------------------------------------------------
    def normalized(self, wall_time_s: float = 0.0) -> "CampaignResult":
        """The execution-agnostic content view, for determinism comparisons.

        Pins every wall-clock measurement (``wall_time_s``, each record's
        ``wall_elapsed_s``, and each stage-telemetry row's ``wall_s``) and
        strips execution policy — ``n_workers`` and the
        ``backend``/``backend_spec``/``source`` metadata keys — which
        legitimately differ between runs of the same campaign.
        Everything left is deterministic, so
        ``a.normalized() == b.normalized()`` asserts bit-identical results
        across backends, worker counts, and interrupt/resume cycles.
        """
        records = tuple(
            replace(
                r,
                wall_elapsed_s=wall_time_s,
                stage_telemetry=tuple(
                    t.normalized(wall_time_s) for t in r.stage_telemetry
                ),
            )
            for r in self.records
        )
        metadata = {
            key: value
            for key, value in self.metadata.items()
            if key not in ("backend", "backend_spec", "source")
        }
        return replace(
            self,
            records=records,
            wall_time_s=wall_time_s,
            n_workers=0,
            metadata=metadata,
        )

    def save(self, path: str | Path) -> Path:
        """Write the whole result as one JSON document; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            # allow_nan=False guards the strict-JSON contract: a non-finite
            # float that slipped past the record encoding fails loudly here
            # instead of emitting an Infinity token no other tool can parse.
            json.dump(self.as_dict(), handle, indent=2, allow_nan=False)
            handle.write("\n")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "CampaignResult":
        """Read a result previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    @classmethod
    def from_journal(
        cls, path: str | Path, n_expected: int | None = None
    ) -> "CampaignResult":
        """A (possibly partial) result from a checkpoint journal's records.

        This is the drill-down view onto a live, interrupted, or dead run:
        whatever the journal holds renders through the same tables and
        summaries as a finished campaign.  ``n_expected`` marks the total
        the campaign was meant to run so reports can flag partiality;
        ``n_workers`` is 0 because a journal does not record who ran it.
        """
        journal = CheckpointJournal(path, deserialize=CampaignJobRecord.from_dict)
        completed = journal.load()
        records = tuple(
            completed[job_id] for job_id in sorted(completed)
        )
        return cls(
            records=records,
            n_workers=0,
            wall_time_s=0.0,
            metadata={
                "n_jobs": int(n_expected) if n_expected is not None else len(records),
                "source": "journal",
            },
        )
