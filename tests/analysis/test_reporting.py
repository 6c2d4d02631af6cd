"""Tests for report formatting (Table 1 and summaries)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    TABLE1_HEADERS,
    format_accuracy_table,
    format_summary,
    format_table,
    format_table1,
    summarize_suite,
    table1_rows,
)
from repro.campaign import TABLE1_METHODS, TuningCampaign, diagram_jobs


@pytest.fixture(scope="module")
def records(small_benchmark_config):
    # The same diagram twice: Table-1 rows 1 and 2.
    csd = small_benchmark_config.build_csd()
    return TuningCampaign(diagram_jobs([csd, csd], TABLE1_METHODS)).run().records


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
        lines = text.split("\n")
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert "---" in lines[2]
        assert len(lines) == 5

    def test_wide_cells_expand_columns(self):
        text = format_table(["h"], [["very long cell"]])
        assert "very long cell" in text


class TestTable1:
    def test_rows_have_all_columns(self, records):
        rows = table1_rows(records)
        assert len(rows) == 2
        assert [row[0] for row in rows] == ["1", "2"]
        assert all(len(row) == len(TABLE1_HEADERS) for row in rows)

    def test_formatted_table_mentions_success_and_speedup(self, records):
        text = format_table1(records)
        assert "Success" in text
        assert "x" in text  # speedup suffix
        assert "48x48" in text
        assert "(100%)" in text

    def test_accuracy_table(self, records):
        text = format_accuracy_table(records)
        assert "true a12" in text
        assert text.count("\n") >= 3


class TestSummary:
    def test_summarize_counts_and_range(self, records):
        summary = summarize_suite(records)
        assert summary.n_benchmarks == 2
        assert summary.fast_successes == 2
        assert summary.baseline_successes == 2
        assert summary.min_speedup <= summary.max_speedup
        assert 0 < summary.mean_probe_fraction < 1

    def test_format_summary_text(self, records):
        text = format_summary(summarize_suite(records))
        assert "fast successes" in text
        assert "2/2" in text
