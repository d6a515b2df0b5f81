#!/usr/bin/env python3
"""Print what each verify check cost: its elapsed milliseconds and its
tracemalloc peak, for one `run_verify(9, 7)` per checkout.

    python3 scripts/verify_checks.py                  # this checkout
    python3 scripts/verify_checks.py PARENT_DIR CHANGE_DIR

Each checkout runs two fresh interpreters in its root with its `src` on
PYTHONPATH.  The first times the checks as `run_verify` does, untraced;
the second runs them again under tracemalloc and takes, per check, its
peak less the memory traced when it started: the most it held above what
the checks before it left behind.  Tracing slows allocation, so the times
come from the untraced run only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PROBE = """
import json, sys, tracemalloc
from iterforge import verify
peaks = {}
if sys.argv[1] == "trace":
    def traced(check_id, func):
        def run(*args):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            try:
                return func(*args)
            finally:
                peaks[check_id] = tracemalloc.get_traced_memory()[1] - held
        return run
    verify.CHECKS[:] = [(check_id, traced(check_id, func), low) for check_id, func, low in verify.CHECKS]
    tracemalloc.start()
report = verify.run_verify(9, 7)
print(json.dumps([[c.id, c.status, c.elapsed_ms, peaks.get(c.id)] for c in report.checks]))
"""


def probe(checkout: Path, mode: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-c", PROBE, mode]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(__file__).resolve().parent.parent])
    args = parser.parse_args(argv)
    for checkout in map(Path.resolve, args.checkouts):  # PYTHONPATH is read from the checkout
        timed, traced = probe(checkout, "time"), probe(checkout, "trace")
        print(f"{checkout}: run_verify(9, 7), Python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
        print(f"  {'check':<36} {'status':<7} {'ms':>8} {'peak MB':>8}")
        for (check_id, status, ms, _), (_, _, _, peak) in zip(timed, traced):
            print(f"  {check_id:<36} {status:<7} {ms:8.1f} {peak / 1e6:8.2f}")
        print(f"  {'total':<36} {'':<7} {sum(row[2] for row in timed):8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
