"""Cold-start probe: ``import repro``, then build one workload's inputs.

Run in a fresh interpreter with ``src`` on ``PYTHONPATH``::

    python3 perfbench/coldstart.py WORKLOAD SEED

Prints one JSON line with the phase times and the ``time.monotonic()``
stamp at which the inputs were ready.  That clock is system-wide on Linux,
so the parent measures set-up from just before it started this process.
"""

import json
import sys
import time


def main() -> None:
    started = time.monotonic()
    import repro  # noqa: F401  (the timed import)

    imported = time.monotonic()
    from workloads import build_inputs

    build_inputs(sys.argv[1], int(sys.argv[2]))
    ready = time.monotonic()
    print(json.dumps({
        "import_s": imported - started,
        "inputs_s": ready - imported,
        "ready_monotonic": ready,
    }))


if __name__ == "__main__":
    main()
