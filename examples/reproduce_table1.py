"""Reproduce the paper's Table 1 end to end (also available as a benchmark).

Runs the fast virtual gate extraction and the Canny+Hough baseline over the
full twelve-benchmark qflow-like suite, as a 24-job campaign, and prints the
reproduced Table 1, the aggregate summary that corresponds to the paper's
abstract claims (speedup range, ~10% probe fraction, success counts) and
the per-benchmark accuracy against ground truth.

Run with::

    python examples/reproduce_table1.py
"""

from __future__ import annotations

from repro.analysis import format_accuracy_table
from repro.campaign import run_table1


def main() -> None:
    records, report = run_table1()
    print(report)
    print()
    print(format_accuracy_table(records))


if __name__ == "__main__":
    main()
