"""Benchmark: execution-backend × worker-count throughput on a fixed grid.

The execution layer's contract is that backends differ *only* in wall time:
`SerialBackend` and `ProcessPoolBackend` produce bit-identical
`CampaignResult.records` for the same grid and seed at any worker count.
This benchmark sweeps the backend × worker matrix over one fixed grid,
checks every cell against the serial reference, and reports throughput
(jobs/s) per cell.

This file is both a pytest benchmark (like its siblings) and a standalone
script for CI smoke runs and the persisted perf trajectory::

    PYTHONPATH=src python benchmarks/bench_backends.py --smoke
    PYTHONPATH=src python benchmarks/bench_backends.py --jobs 40 --workers 1 2 4
"""

from __future__ import annotations

import argparse
import sys

import pytest
from _emit import emit_json

from repro.analysis.reporting import format_table
from repro.campaign import CampaignGrid, DeviceSpec, TuningCampaign


def build_grid(n_repeats: int, seed: int = 7) -> CampaignGrid:
    """A mixed-cost grid: cheap 63-pixel jobs next to pricier 100-pixel ones.

    The resolution axis makes the job costs heterogeneous on purpose — the
    streaming dispatch path has to keep workers busy even when one chunk is
    much more expensive than another.
    """
    return CampaignGrid(
        devices=(
            DeviceSpec.of("double_dot", cross_coupling=(0.25, 0.22)),
            DeviceSpec.of("linear_array", n_dots=3),
        ),
        resolutions=(63, 100),
        noise_scales=(0.0, 1.0),
        methods=("fast",),
        n_repeats=n_repeats,
        seed=seed,
    )


def sweep(grid: CampaignGrid, worker_counts: tuple[int, ...]) -> tuple[list[dict], bool]:
    """Run the backend × worker matrix; returns per-cell rows + identical flag.

    The serial run is the reference; every other cell must match its
    records bit-for-bit (wall-clock fields excluded via ``normalized()``).
    """
    reference = TuningCampaign(grid, backend="serial").run()
    rows = [
        {
            "backend": "serial",
            "workers": 1,
            "wall_s": reference.wall_time_s,
            "jobs_per_s": reference.n_jobs / max(reference.wall_time_s, 1e-9),
            "identical": True,
        }
    ]
    all_identical = True
    for workers in worker_counts:
        result = TuningCampaign(grid, n_workers=workers, backend="process").run()
        identical = result.normalized().records == reference.normalized().records
        all_identical &= identical
        rows.append(
            {
                "backend": "process",
                "workers": workers,
                "wall_s": result.wall_time_s,
                "jobs_per_s": result.n_jobs / max(result.wall_time_s, 1e-9),
                "identical": identical,
            }
        )
    return rows, all_identical


def format_sweep(rows: list[dict], n_jobs: int) -> str:
    """Render the sweep as the usual aligned plain-text table."""
    return format_table(
        ["Backend", "Workers", "Wall time", "Jobs/s", "Records identical"],
        [
            [
                row["backend"],
                str(row["workers"]),
                f"{row['wall_s']:.2f}s",
                f"{row['jobs_per_s']:.1f}",
                "yes" if row["identical"] else "NO",
            ]
            for row in rows
        ],
        title=f"Execution backends on a fixed {n_jobs}-job grid",
    )


@pytest.mark.benchmark(group="backends")
def test_backend_matrix_determinism(benchmark, write_report):
    """Every backend × worker cell reproduces the serial records exactly."""
    grid = build_grid(n_repeats=1)
    rows, all_identical = benchmark.pedantic(
        lambda: sweep(grid, worker_counts=(2,)), rounds=1, iterations=1
    )
    write_report("backends.txt", format_sweep(rows, grid.n_jobs))
    assert all_identical


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grid and a single worker count for CI",
    )
    parser.add_argument("--jobs", type=int, default=24, help="approximate job count")
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[2, 4],
        help="worker counts to sweep per parallel backend",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the measurements as JSON (the persisted perf trajectory)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        grid = build_grid(n_repeats=1)
        worker_counts: tuple[int, ...] = (2,)
    else:
        # 12 jobs per repeat (3 gate pairs x 2 resolutions x 2 noise scales).
        grid = build_grid(n_repeats=max(1, args.jobs // 12))
        worker_counts = tuple(args.workers)

    print(f"sweeping backends over a {grid.n_jobs}-job grid ...")
    rows, all_identical = sweep(grid, worker_counts)
    print()
    print(format_sweep(rows, grid.n_jobs))

    if not all_identical:
        print("ERROR: some backend produced records differing from serial")
        return 1
    print("determinism check: every backend cell matches the serial reference")

    if args.json:
        emit_json(
            {
                "bench": "backends",
                "n_jobs": grid.n_jobs,
                "worker_counts": list(worker_counts),
                "all_identical": all_identical,
                "cells": [
                    {
                        "backend": row["backend"],
                        "workers": row["workers"],
                        "wall_s": round(row["wall_s"], 4),
                        "jobs_per_s": round(row["jobs_per_s"], 2),
                        "identical": row["identical"],
                    }
                    for row in rows
                ],
            },
            args.json,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
