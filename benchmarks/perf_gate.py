"""Performance gate: freshly measured ``BENCH_*.json`` vs committed baselines.

The repo persists one JSON payload per benchmark round (``BENCH_7.json``
through ``BENCH_10.json`` at the repo root).  CI regenerates each
payload at the baseline-matching configuration and this gate compares the
fresh numbers against the committed ones, key by key, under per-key
tolerance kinds:

* ``exact``   — configuration echoes, equivalence booleans, and
  deterministic work counters: any change fails the gate;
* ``speed``   — bigger-is-better dimensionless ratios: the fresh value must
  stay >= half the baseline;
* ``overhead`` — smaller-is-better dimensionless ratios: the fresh value
  must stay <= twice the baseline;
* ``info``    — absolute wall seconds and machine-dependent throughput:
  reported for the trajectory, never gated (CI hardware varies more than
  any real regression).

Keys absent from the manifest default to ``info``; keys missing from a
fresh payload fail.  Typical use::

    PYTHONPATH=src python benchmarks/bench_round2.py --json fresh/BENCH_9.json
    python benchmarks/perf_gate.py --check --fresh fresh
    python benchmarks/perf_gate.py --update --fresh fresh   # bless new baselines
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

#: Tolerance band for the ratio kinds: speed >= old / FACTOR,
#: overhead <= old * FACTOR.
RATIO_FACTOR = 2.0

#: Per-file, per-key tolerance kinds; unlisted keys are "info".
MANIFEST: dict[str, dict[str, str]] = {
    "BENCH_7.json": {
        "bench": "exact",
        "resolution": "exact",
        "n_probes": "exact",
        "rate_zero_bit_identical": "exact",
        "rate_zero_retries": "exact",
        "rate_zero_overhead_x": "overhead",
        "chaos_overhead_x": "overhead",
    },
    "BENCH_8.json": {
        "bench": "exact",
        "n_sample": "exact",
        "surface_draws": "exact",
        "surface_resolution": "exact",
        "surface_jobs": "exact",
        "surface_succeeded": "exact",
        "prefix_stable": "exact",
    },
    "BENCH_9.json": {
        "bench": "exact",
        "prune_dots": "exact",
        "prune_resolution": "exact",
        "prune_lattice_states": "exact",
        "prune_full_scores": "exact",
        "prune_pruned_scores": "exact",
        "prune_score_ratio_x": "exact",
        "prune_bit_identical": "exact",
        "prune_speedup_x": "speed",
        "cache_jobs": "exact",
        "cache_resolution": "exact",
        "cache_records_identical": "exact",
        "cache_speedup_x": "speed",
    },
    "BENCH_10.json": {
        "bench": "exact",
        "scaling_jobs": "exact",
        "scaling_dwell_ms": "exact",
        "scaling_records_identical": "exact",
        "scaling_speedup_4w_x": "speed",
        "steal_jobs": "exact",
        "steal_records_identical": "exact",
        "steals_observed": "exact",
    },
}


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare_payload(
    name: str, baseline: dict, fresh: dict
) -> tuple[list[str], list[str]]:
    """Gate one payload; returns (violations, info lines)."""
    kinds = MANIFEST.get(name, {})
    violations: list[str] = []
    infos: list[str] = []
    for key, old in baseline.items():
        kind = kinds.get(key, "info")
        if key not in fresh:
            violations.append(f"{name}: key {key!r} missing from fresh payload")
            continue
        new = fresh[key]
        if kind == "exact":
            if new != old:
                violations.append(
                    f"{name}: {key} changed exactly-gated value: "
                    f"{old!r} -> {new!r}"
                )
        elif kind == "speed":
            if new < old / RATIO_FACTOR:
                violations.append(
                    f"{name}: {key} regressed below tolerance: "
                    f"{old} -> {new} (floor {old / RATIO_FACTOR:.2f})"
                )
        elif kind == "overhead":
            if new > old * RATIO_FACTOR:
                violations.append(
                    f"{name}: {key} grew past tolerance: "
                    f"{old} -> {new} (ceiling {old * RATIO_FACTOR:.2f})"
                )
        else:
            infos.append(f"{name}: {key} = {new} (baseline {old}, info only)")
    for key in fresh:
        if key not in baseline:
            infos.append(f"{name}: new key {key} = {fresh[key]} (no baseline)")
    return violations, infos


def run_check(baseline_dir: Path, fresh_dir: Path) -> int:
    violations: list[str] = []
    for name in sorted(MANIFEST):
        baseline_path = baseline_dir / name
        fresh_path = fresh_dir / name
        if not baseline_path.exists():
            violations.append(f"{name}: committed baseline missing")
            continue
        if not fresh_path.exists():
            violations.append(f"{name}: fresh payload missing from {fresh_dir}")
            continue
        file_violations, infos = compare_payload(
            name, _load(baseline_path), _load(fresh_path)
        )
        status = "FAIL" if file_violations else "ok"
        print(f"{name}: {status}")
        for line in infos:
            print(f"  info: {line.split(': ', 1)[1]}")
        for line in file_violations:
            print(f"  VIOLATION: {line.split(': ', 1)[1]}")
        violations.extend(file_violations)
    if violations:
        print(f"\nperf gate: {len(violations)} violation(s)")
        return 1
    print("\nperf gate: all payloads within tolerance")
    return 0


def run_update(baseline_dir: Path, fresh_dir: Path) -> int:
    for name in sorted(MANIFEST):
        fresh_path = fresh_dir / name
        if not fresh_path.exists():
            print(f"{name}: no fresh payload in {fresh_dir}, keeping baseline")
            continue
        shutil.copyfile(fresh_path, baseline_dir / name)
        print(f"{name}: baseline updated from {fresh_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--check", action="store_true",
        help="compare fresh payloads against the committed baselines",
    )
    mode.add_argument(
        "--update", action="store_true",
        help="bless the fresh payloads as the new committed baselines",
    )
    parser.add_argument(
        "--fresh", metavar="DIR", required=True,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline", metavar="DIR",
        default=str(Path(__file__).resolve().parent.parent),
        help="directory holding the committed baselines (default: repo root)",
    )
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline)
    fresh_dir = Path(args.fresh)
    if args.update:
        return run_update(baseline_dir, fresh_dir)
    return run_check(baseline_dir, fresh_dir)


if __name__ == "__main__":
    sys.exit(main())
