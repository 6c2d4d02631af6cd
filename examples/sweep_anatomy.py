"""Anatomy of one fast extraction run (the paper's Figures 4, 5, and 6).

This example instruments a single extraction on a benchmark diagram and
prints every intermediate artefact of Section 4:

* the anchor points found by the diagonal probe + mask preprocessing (§4.4),
* the transition points located by the row-major and column-major sweeps
  inside the shrinking triangle (§4.3.2, Figure 5),
* the effect of the erroneous-point filter (Figure 6),
* the fitted two-piece-wise transition-line shape and the resulting slopes
  and virtualization coefficients (§4.3.3),
* the probe map — which pixels were actually measured (Figure 7 style).

Run with::

    python examples/sweep_anatomy.py
"""

from __future__ import annotations

from repro import ExperimentSession, FastVirtualGateExtractor
from repro.datasets import load_benchmark
from repro.visualization import ascii_csd, ascii_probe_map


def main() -> None:
    csd = load_benchmark(6)
    session = ExperimentSession.from_csd(csd)
    result = FastVirtualGateExtractor().extract(session)
    if not result.success:
        raise SystemExit(f"extraction failed: {result.failure_reason}")

    anchors = result.anchors
    points = result.points
    fit = result.fit

    print(f"benchmark: {csd.metadata['name']}  ({csd.shape[0]}x{csd.shape[1]} pixels)")
    print()
    print("1. anchor preprocessing (Section 4.4)")
    print(f"   diagonal pixels probed: {len(anchors.diagonal_pixels)}")
    print(f"   starting point:         (row={anchors.start_point.row}, col={anchors.start_point.col})")
    print(f"   steep-line anchor:      (row={anchors.steep_anchor.row}, col={anchors.steep_anchor.col})")
    print(f"   shallow-line anchor:    (row={anchors.shallow_anchor.row}, col={anchors.shallow_anchor.col})")
    print()
    print("2. shrinking-triangle sweeps (Section 4.3.2)")
    row_trace, column_trace = points.row_sweep, points.column_sweep
    print(f"   row-major sweep:    {row_trace.n_points} points, "
          f"{row_trace.total_probed_segments} candidate pixels examined")
    print(f"   column-major sweep: {column_trace.n_points} points, "
          f"{column_trace.total_probed_segments} candidate pixels examined")
    print()
    print("3. erroneous-point filtering")
    print(f"   raw points:      {len(points.raw_points)}")
    print(f"   after filtering: {points.n_filtered}")
    print()
    print("   CSD with the filtered transition points overlaid as '+':")
    print(ascii_csd(csd, max_rows=28, max_cols=56, overlay_points=list(points.filtered_points)))
    print()
    print("4. slope fit (Section 4.3.3)")
    print(f"   fitted intersection: ({fit.intersection_voltage[0]:.4f} V, "
          f"{fit.intersection_voltage[1]:.4f} V)")
    print(f"   steep slope:   {fit.slope_steep:.3f}   (true {csd.geometry.slope_steep:.3f})")
    print(f"   shallow slope: {fit.slope_shallow:.3f}   (true {csd.geometry.slope_shallow:.3f})")
    print(f"   residual rms:  {fit.residual_rms:.5f} V over {fit.n_points_used} points")
    print()
    print("5. result")
    print(f"   alpha_12 = {result.matrix.alpha_12:.4f}   (true {csd.geometry.alpha_12:.4f})")
    print(f"   alpha_21 = {result.matrix.alpha_21:.4f}   (true {csd.geometry.alpha_21:.4f})")
    stats = result.probe_stats
    print(f"   probes: {stats.n_probes} / {stats.n_pixels} pixels "
          f"({100 * stats.probe_fraction:.1f}%), simulated runtime {stats.elapsed_s:.1f} s")
    print()
    print("6. probe map (Figure 7 style, 'o' = measured pixel):")
    print(
        ascii_probe_map(
            csd.shape,
            session.meter.probe_mask(),
            max_rows=28,
            max_cols=56,
        )
    )


if __name__ == "__main__":
    main()
