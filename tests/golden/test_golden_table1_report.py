"""Golden fixture for the printed Table-1 report.

``examples/reproduce_table1.py`` prints the reproduced Table 1, its summary
block and the extracted-vs-true accuracy table.  perfbench's ``table1``
workload gates the numbers behind it; this pins the text itself, byte for
byte, so a change to how Table 1 is run or formatted cannot move a column,
a rounding or a label unnoticed.  The fixture stores the output line by
line (trailing padding included) in ``table1_report.json``.

Regenerate deliberately (after a change that is *supposed* to alter the
report) with::

    PYTHONPATH=src python tests/golden/test_golden_table1_report.py --regenerate
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
from pathlib import Path

FIXTURE_PATH = Path(__file__).with_name("table1_report.json")
EXAMPLE_PATH = Path(__file__).resolve().parents[2] / "examples" / "reproduce_table1.py"


def example_output() -> list[str]:
    """The lines ``examples/reproduce_table1.py`` prints."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLE_PATH), run_name="__main__")
    return buffer.getvalue().split("\n")


def test_table1_report_is_byte_identical():
    expected = json.loads(FIXTURE_PATH.read_text())["lines"]
    assert example_output() == expected


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--regenerate", action="store_true", help="rewrite the fixture JSON"
    )
    args = parser.parse_args()
    if not args.regenerate:
        parser.error("nothing to do; pass --regenerate")
    lines = example_output()
    FIXTURE_PATH.write_text(json.dumps({"lines": lines}, indent=2) + "\n")
    print(f"wrote {len(lines)} lines to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
