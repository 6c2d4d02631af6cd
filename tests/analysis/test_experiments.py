"""Tests for the experiment runners.

Every experiment runs at its full input and asserts the property the paper
draws from it; only Table 1 runs a subset here, because perfbench's
``table1`` workload replays all twelve rows exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    run_ablation_anchors,
    run_ablation_sweeps,
    run_array_scaling,
    run_figure7,
    run_noise_sweep,
    run_resolution_scaling,
    run_table1,
)
from repro.datasets import load_benchmark


class TestTable1Subset:
    def test_subset_of_small_benchmarks(self):
        records, report = run_table1(indices=(3, 4))
        assert len(records) == 2
        assert all(record.fast.success for record in records)
        assert "Table 1" in report
        assert "Summary" in report


class TestFigure7:
    def test_probes_hug_the_transition_lines_on_csd_6_and_10(self):
        results = run_figure7(indices=(6, 10))
        assert [result.index for result in results] == [6, 10]
        for result in results:
            csd = load_benchmark(result.index)
            assert result.shape == csd.shape
            assert result.probe_mask.shape == csd.shape
            assert result.probe_mask.sum() == result.n_probes
            assert result.success
            assert 0.05 < result.probe_fraction < 0.18

            geometry = csd.geometry
            rows, cols = np.nonzero(result.probe_mask)
            vx = csd.x_voltages[cols]
            vy = csd.y_voltages[rows]
            d_steep = np.abs(
                vy - (geometry.crossing_y + geometry.slope_steep * (vx - geometry.crossing_x))
            )
            d_shallow = np.abs(
                vy
                - (geometry.crossing_y + geometry.slope_shallow * (vx - geometry.crossing_x))
            )
            nearest = np.minimum(d_steep, d_shallow)
            span = float(csd.y_voltages[-1] - csd.y_voltages[0])
            # Most probed pixels hug one of the two transition lines; over a
            # full raster scan the same statistic would be about 25%.
            assert np.mean(nearest < 0.15 * span) > 0.5


class TestAblations:
    def test_paper_sweeps_match_or_beat_every_variant(self):
        rows, report = run_ablation_sweeps()
        assert "Ablation" in report
        by_label = {row.label: row for row in rows}
        assert list(by_label) == [
            "both sweeps + filter (paper)",
            "row sweep only",
            "column sweep only",
            "both sweeps, no filter",
        ]
        paper = by_label["both sweeps + filter (paper)"]
        row_only = by_label["row sweep only"]
        column_only = by_label["column sweep only"]
        no_filter = by_label["both sweeps, no filter"]

        assert paper.success_rate >= 0.9
        assert paper.success_rate >= row_only.success_rate
        assert paper.success_rate >= column_only.success_rate
        # Both sweeps cost more probes than either single sweep.
        assert paper.mean_probe_fraction >= row_only.mean_probe_fraction
        assert paper.mean_probe_fraction >= column_only.mean_probe_fraction
        # The filter never hurts the success rate and does not change probe cost.
        assert paper.success_rate >= no_filter.success_rate
        assert paper.mean_probe_fraction == pytest.approx(
            no_filter.mean_probe_fraction, rel=0.05
        )

    def test_paper_anchors_match_or_beat_every_variant(self):
        rows, report = run_ablation_anchors()
        assert "Ablation" in report
        by_label = {row.label: row for row in rows}
        paper = by_label["paper anchors (masks + Gaussian)"]
        assert paper.success_rate >= 0.9
        for label, row in by_label.items():
            assert paper.success_rate >= row.success_rate - 1e-9, label
        # The mask sweeps every variant shares dominate the anchor search's
        # cost, so every variant stays in the same probe band.
        for row in rows:
            assert 0.03 < row.mean_probe_fraction < 0.25


class TestNoiseSweep:
    def test_success_degrades_with_noise(self):
        rows, report = run_noise_sweep(noise_scales=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0), n_seeds=3)
        assert "Noise robustness" in report
        assert [row.noise_scale for row in rows] == [0.0, 1.0, 2.0, 4.0, 8.0, 16.0]
        assert rows[0].success_rate == 1.0
        assert rows[1].success_rate == 1.0  # the suite's standard level is easy
        # Success never improves by more than one seed as the noise grows.
        for earlier, later in zip(rows, rows[1:]):
            assert later.success_rate <= earlier.success_rate + 1.0 / 3 + 1e-9
        for row in rows:
            assert 0.02 < row.mean_probe_fraction < 0.25


class TestResolutionScaling:
    def test_probe_fraction_decreases_with_resolution(self):
        rows, report = run_resolution_scaling(resolutions=(63, 100, 150, 200))
        assert "Scaling" in report
        assert [row.resolution for row in rows] == [63, 100, 150, 200]
        # Probes grow about linearly while pixels grow quadratically ...
        fractions = [row.fast_fraction for row in rows]
        assert all(later < earlier for earlier, later in zip(fractions, fractions[1:]))
        # ... so the speedup over the full-scan baseline grows monotonically.
        speedups = [row.speedup for row in rows]
        assert all(later > earlier for earlier, later in zip(speedups, speedups[1:]))
        assert speedups[0] > 4.0
        assert speedups[-1] > 12.0
        # The baseline scans every pixel at the paper's 50 ms dwell.
        for row in rows:
            assert row.baseline_elapsed_s == pytest.approx(0.05 * row.resolution**2)


class TestArrayScaling:
    def test_pairs_grow_linearly(self):
        rows, report = run_array_scaling(dot_counts=(2, 3, 4), resolution=80)
        assert "n-dot array" in report
        assert [row.n_pairs for row in rows] == [1, 2, 3]
        assert all(row.all_pairs_succeeded for row in rows)
        assert all(
            np.isfinite(row.max_alpha_error) and row.max_alpha_error < 0.12 for row in rows
        )
        probes = [row.total_probes for row in rows]
        assert probes[0] < probes[1] < probes[2]
        per_pair = [row.total_probes / row.n_pairs for row in rows]
        assert max(per_pair) / min(per_pair) < 1.6
        # Each pairwise extraction stays far cheaper than a full 80x80 scan.
        for row in rows:
            assert row.total_probes / row.n_pairs < 0.25 * 80 * 80
