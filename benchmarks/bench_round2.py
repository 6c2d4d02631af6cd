"""Benchmark: round-two overhead cuts — solver pruning and the kernel cache.

One file measures both layers of the round-two performance work and
persists them as ``BENCH_9.json`` for :mod:`benchmarks.perf_gate`:

* **solver** — bound-certified lattice pruning while rasterising a 6-dot
  chain's default CSD window (:func:`compare_pruning`); exact equality plus
  the lattice-score reduction;
* **cache** — the process-wide kernel cache on a repeat-heavy serial
  campaign (reuses :func:`bench_campaign.compare_kernel_cache`); exact
  record equality plus the wall-time speedup.

This file is both a pytest benchmark (like its siblings) and a standalone
script for CI smoke runs and the persisted perf trajectory::

    PYTHONPATH=src python benchmarks/bench_round2.py --smoke
    PYTHONPATH=src python benchmarks/bench_round2.py --json BENCH_9.json
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np
import pytest
from _emit import emit_json
from bench_campaign import compare_kernel_cache

from repro.physics import ChargeStateSolver, CSDSimulator, DotArrayDevice

#: Lattice-score reduction the pruned solver must reach on a 6-dot chain's
#: default window (it lands around 30x in practice).
TARGET_PRUNE_RATIO = 5.0

#: Dots in the pruning-section device; 6 gives a 4096-state lattice.
PRUNE_DOTS = 6


def compare_pruning(resolution: int, n_dots: int = PRUNE_DOTS) -> dict:
    """Rasterise one device window with and without solver pruning.

    Returns the comparison payload: wall times, lattice-score counts for both
    solvers (the pruned side pays for bound evaluations too, so its count is
    ``n_state_scores + n_bound_scores``), and exact equality of the maps.
    """
    device = DotArrayDevice.linear_array(n_dots)
    window = CSDSimulator(device).default_window()
    (x_min, x_max), (y_min, y_max) = window
    xs = np.linspace(x_min, x_max, resolution)
    ys = np.linspace(y_min, y_max, resolution)

    def rasterise(prune: bool) -> tuple[np.ndarray, float, int]:
        solver = ChargeStateSolver(
            device.capacitance,
            max_electrons_per_dot=device.solver.max_electrons_per_dot,
            prune=prune,
        )
        start = time.perf_counter()
        occupations = solver.occupation_map("P1", "P2", xs, ys)
        elapsed = time.perf_counter() - start
        stats = solver.stats
        return occupations, elapsed, stats.n_state_scores + stats.n_bound_scores

    full_map, full_s, full_scores = rasterise(prune=False)
    pruned_map, pruned_s, pruned_scores = rasterise(prune=True)
    return {
        "prune_dots": n_dots,
        "prune_resolution": resolution,
        "prune_lattice_states": int(device.solver.n_lattice_states),
        "prune_full_s": round(full_s, 4),
        "prune_pruned_s": round(pruned_s, 4),
        "prune_full_scores": int(full_scores),
        "prune_pruned_scores": int(pruned_scores),
        "prune_score_ratio_x": round(full_scores / max(pruned_scores, 1), 2),
        "prune_speedup_x": round(full_s / max(pruned_s, 1e-12), 2),
        "prune_bit_identical": bool(np.array_equal(full_map, pruned_map)),
    }


def run_suite(smoke: bool) -> dict:
    """Measure both layers and return the perf-trajectory payload."""
    solver = compare_pruning(resolution=40 if smoke else 100)
    cache = compare_kernel_cache(
        n_repeats=2 if smoke else 8, resolution=40 if smoke else 100
    )
    return {"bench": "round2", **solver, **cache}


@pytest.mark.benchmark(group="round2")
def test_pruned_raster_identical_and_lean(write_report):
    """Pruned rasterisation is exactly equal and scores far fewer states."""
    stats = compare_pruning(resolution=60)
    write_report(
        "solver_pruning.txt",
        "\n".join(
            [
                f"device: {stats['prune_dots']}-dot chain, "
                f"{stats['prune_lattice_states']} lattice states",
                f"grid: {stats['prune_resolution']}x{stats['prune_resolution']} "
                "default CSD window",
                f"full enumeration: {stats['prune_full_scores']} scores",
                f"pruned:           {stats['prune_pruned_scores']} scores "
                f"({stats['prune_score_ratio_x']:.1f}x fewer)",
                f"bit-identical: {stats['prune_bit_identical']}",
            ]
        ),
    )
    assert stats["prune_bit_identical"]
    assert stats["prune_score_ratio_x"] >= TARGET_PRUNE_RATIO


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grids (resolution 40) for CI",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the measurements as JSON (the persisted perf trajectory)",
    )
    args = parser.parse_args(argv)

    stats = run_suite(smoke=args.smoke)

    print(f"solver pruning ({stats['prune_dots']}-dot chain, "
          f"{stats['prune_resolution']}x{stats['prune_resolution']}):")
    print(f"  scores: {stats['prune_full_scores']} -> {stats['prune_pruned_scores']} "
          f"({stats['prune_score_ratio_x']:.1f}x fewer), "
          f"wall {stats['prune_full_s']:.3f}s -> {stats['prune_pruned_s']:.3f}s, "
          f"bit-identical: {stats['prune_bit_identical']}")
    print(f"kernel cache ({stats['cache_jobs']} repeat-heavy jobs at "
          f"{stats['cache_resolution']}x{stats['cache_resolution']}):")
    print(f"  wall {stats['cache_off_s']:.2f}s -> {stats['cache_on_s']:.2f}s "
          f"({stats['cache_speedup_x']:.2f}x), "
          f"records identical: {stats['cache_records_identical']}")

    for flag in ("prune_bit_identical", "cache_records_identical"):
        if not stats[flag]:
            print(f"ERROR: {flag} is false — an optimisation changed values")
            return 1
    print("equivalence check: both layers are value-exact")

    if args.json:
        emit_json(stats, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
