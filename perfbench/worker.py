"""One benchmark job in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py setup|measure|trace WORKLOAD SEED SECONDS WORKDIR

The last line of its standard output is one JSON object.  A fresh
interpreter per job keeps every number independent of what ran before it:
a live Universe(11) left by one workload makes the garbage collector scan
hundreds of thousands of objects during the next one.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

# library modules each workload needs before its first operation
SETUP_IMPORTS = {
    "verify": ("iterforge.verify",),
    "closure": ("iterforge.semantics",),
    "frontier": ("iterforge.tableaux", "iterforge.incidence"),
    "cli": ("iterforge.cli",),
}


def setup(workload: str) -> dict:
    """Time the imports and the shared state a workload builds before it runs."""
    start = time.perf_counter()
    for name in SETUP_IMPORTS[workload]:
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    if workload == "closure":
        import workloads  # the benchmark's own module, not timed

        start = time.perf_counter()
        workloads.closure_setup()
        elapsed += time.perf_counter() - start
    return {"setup_s": elapsed}


def main(argv: list[str]) -> None:
    job, workload, seed, seconds, workdir = argv
    if job == "setup":
        result = setup(workload)
    else:
        import workloads

        if job == "measure":
            result = workloads.MEASURE[workload](int(seed), float(seconds), Path(workdir))
        else:
            result = workloads.TRACE[workload](int(seed), Path(workdir))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
