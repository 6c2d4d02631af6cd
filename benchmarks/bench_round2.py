"""Benchmark: round-two overhead cuts — solver pruning, kernel cache, transport.

One file measures all three layers of the round-two performance work and
persists them as ``BENCH_9.json`` for :mod:`benchmarks.perf_gate`:

* **solver** — bound-certified lattice pruning while rasterising a 6-dot
  chain's default CSD window (:func:`compare_pruning`); exact equality plus
  the lattice-score reduction;
* **cache** — the process-wide kernel cache on a repeat-heavy serial
  campaign (reuses :func:`bench_campaign.compare_kernel_cache`); exact
  record equality plus the wall-time speedup;
* **transport** — :class:`~repro.execution.ProcessPoolBackend` shipping
  columnar payloads over shared memory vs the pickle pipe; exact value
  equality plus the transfer-path speedup.

This file is both a pytest benchmark (like its siblings) and a standalone
script for CI smoke runs and the persisted perf trajectory::

    PYTHONPATH=src python benchmarks/bench_round2.py --smoke
    PYTHONPATH=src python benchmarks/bench_round2.py --json BENCH_9.json
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest
from _emit import emit_json
from bench_campaign import compare_kernel_cache

from repro.execution import ProcessPoolBackend
from repro.physics import ChargeStateSolver, CSDSimulator, DotArrayDevice

#: Speedup the shared-memory transport must reach over the pickle pipe on
#: the columnar payload grid below (transfer-bound, compute-trivial jobs).
TARGET_TRANSPORT_SPEEDUP = 1.2

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


@dataclass(frozen=True)
class PayloadJob:
    """A transfer-bound job: generate one columnar record of ``n_rows`` rows."""

    job_id: int
    n_rows: int


def make_payload(job: PayloadJob) -> dict[str, np.ndarray]:
    """Deterministic columnar record (a ProbeLog-shaped column dict)."""
    rng = np.random.default_rng(job.job_id)
    return {
        "rows": np.arange(job.n_rows, dtype=np.int64),
        "cols": np.arange(job.n_rows, dtype=np.int64)[::-1].copy(),
        "currents": rng.standard_normal(job.n_rows),
        "timestamps": np.cumsum(rng.random(job.n_rows)),
    }


def _collect(transport: str, jobs: list[PayloadJob], workers: int):
    """Run the payload grid on one transport; returns (records, wall_s)."""
    backend = ProcessPoolBackend(max_workers=workers, transport=transport)
    started = time.perf_counter()
    records = dict(backend.submit(jobs, make_payload))
    return records, time.perf_counter() - started


def _records_equal(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for job_id in a:
        left, right = a[job_id], b[job_id]
        if left.keys() != right.keys():
            return False
        for column in left:
            if left[column].dtype != right[column].dtype:
                return False
            if not np.array_equal(left[column], right[column]):
                return False
    return True


def compare_transport(n_jobs: int, n_rows: int, workers: int = 2) -> dict:
    """Pickle vs shared-memory transport on identical columnar grids."""
    jobs = [PayloadJob(job_id=i, n_rows=n_rows) for i in range(n_jobs)]
    payload_bytes = sum(v.nbytes for v in make_payload(jobs[0]).values())
    pickle_records, pickle_s = _collect("pickle", jobs, workers)
    shm_records, shm_s = _collect("shared-memory", jobs, workers)
    return {
        "transport_jobs": n_jobs,
        "transport_rows_per_job": n_rows,
        "transport_payload_mb": round(payload_bytes / 2**20, 2),
        "transport_pickle_s": round(pickle_s, 4),
        "transport_shm_s": round(shm_s, 4),
        "transport_speedup_x": round(pickle_s / max(shm_s, 1e-12), 2),
        "transport_values_identical": _records_equal(pickle_records, shm_records),
    }


def run_suite(smoke: bool) -> dict:
    """Measure all three layers and return the perf-trajectory payload."""
    solver = compare_pruning(resolution=40 if smoke else 100)
    cache = compare_kernel_cache(
        n_repeats=2 if smoke else 8, resolution=40 if smoke else 100
    )
    transport = compare_transport(
        n_jobs=8 if smoke else 32, n_rows=1 << 14 if smoke else 1 << 19
    )
    return {"bench": "round2", **solver, **cache, **transport}


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


@pytest.mark.benchmark(group="round2")
def test_transport_values_identical(write_report):
    """Shared-memory and pickle transports carry identical columnar values."""
    stats = compare_transport(n_jobs=6, n_rows=1 << 14)
    write_report(
        "transport.txt",
        "\n".join(
            [
                f"columnar grid: {stats['transport_jobs']} jobs x "
                f"{stats['transport_payload_mb']} MB",
                f"pickle pipe:   {stats['transport_pickle_s']:.3f}s",
                f"shared memory: {stats['transport_shm_s']:.3f}s "
                f"({stats['transport_speedup_x']:.2f}x)",
                f"values identical: {stats['transport_values_identical']}",
            ]
        ),
    )
    assert stats["transport_values_identical"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small grids (resolution 40, tiny payloads) for CI",
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
    print(f"shm transport ({stats['transport_jobs']} jobs x "
          f"{stats['transport_payload_mb']} MB columnar):")
    print(f"  wall {stats['transport_pickle_s']:.2f}s -> {stats['transport_shm_s']:.2f}s "
          f"({stats['transport_speedup_x']:.2f}x), "
          f"values identical: {stats['transport_values_identical']}")

    for flag in ("prune_bit_identical", "cache_records_identical",
                 "transport_values_identical"):
        if not stats[flag]:
            print(f"ERROR: {flag} is false — an optimisation changed values")
            return 1
    print("equivalence check: all three layers are value-exact")

    if args.json:
        emit_json(stats, args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
