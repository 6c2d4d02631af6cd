"""Evaluation machinery: success metrics and report tables."""

from .metrics import (
    AccuracyMetrics,
    SuccessCriterion,
    accuracy_metrics,
    speedup,
)
from .reporting import (
    CAMPAIGN_HEADERS,
    TABLE1_HEADERS,
    SuiteSummary,
    campaign_rows,
    format_accuracy_table,
    format_campaign_summary,
    format_campaign_table,
    format_stage_costs,
    format_summary,
    format_table,
    format_table1,
    pair_speedup,
    summarize_suite,
    table1_rows,
)

__all__ = [
    "AccuracyMetrics",
    "SuccessCriterion",
    "accuracy_metrics",
    "speedup",
    "CAMPAIGN_HEADERS",
    "SuiteSummary",
    "TABLE1_HEADERS",
    "campaign_rows",
    "format_accuracy_table",
    "format_campaign_summary",
    "format_campaign_table",
    "format_stage_costs",
    "format_summary",
    "format_table",
    "format_table1",
    "pair_speedup",
    "summarize_suite",
    "table1_rows",
]
