"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs the benchmark once per seed and workload, then reports, per metric,
the median and the spread (IQR / median) of the values, with quartiles as
``statistics.quantiles(values, n=4)`` gives them::

    python3 perfbench/steadiness.py --workloads table1 grid-fast-serial \\
        --seeds 10 --seconds 14 --out perfbench/results/steadiness.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=HERE.parent,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=14)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        run_s = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.monotonic()
            result = run_once(workload, seed, args.seconds)
            run_s.append(time.monotonic() - started)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} done in {run_s[-1]:.1f} s", file=sys.stderr, flush=True)
        rows = {name: {**spread(v), "values": v} for name, v in values.items()}
        summary["workloads"][workload] = {"run_s": run_s, "metrics": rows}
        print(f"\n{workload}  (runs took {min(run_s):.1f}-{max(run_s):.1f} s)")
        for name, row in rows.items():
            print(f"  {name:<28} median {row['median']:>12.6g}  spread {row['spread']:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")


if __name__ == "__main__":
    main()
