#!/usr/bin/env python3
"""Print what each verify check cost: its elapsed milliseconds and its
tracemalloc peak, for `run_verify(9, 7)` in each checkout.

    python3 scripts/verify_checks.py                  # this checkout
    python3 scripts/verify_checks.py PARENT_DIR CHANGE_DIR
    python3 scripts/verify_checks.py --runs 9 PARENT_DIR CHANGE_DIR

Each checkout runs fresh interpreters in its root with its `src` on
PYTHONPATH.  The timed ones run the checks as `run_verify` does,
untraced: `--runs N` of them per checkout, alternating the checkouts and
which goes first, and each check's time is printed as the median of its
N runs with their quartiles (lower–upper).  One more interpreter per
checkout runs the checks under tracemalloc and takes, per check, its
peak less the memory traced when it started: the most it held above what
the checks before it left behind.  Tracing slows allocation, so the times
come from the untraced runs only.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

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


def spread(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles; a single run is its own spread."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return median(values), q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path, default=[Path(__file__).resolve().parent.parent])
    parser.add_argument("--runs", type=int, default=1, help="timed runs per checkout, alternating the checkouts")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    checkouts = [checkout.resolve() for checkout in args.checkouts]  # PYTHONPATH is read from the checkout
    timed: list[list[list]] = [[] for _ in checkouts]
    for run in range(args.runs):
        turn = list(enumerate(checkouts))
        for index, checkout in turn if run % 2 == 0 else reversed(turn):
            timed[index].append(probe(checkout, "time"))
    for checkout, runs in zip(checkouts, timed):
        traced = probe(checkout, "trace")
        python = sys.version.split()[0]
        print(f"{checkout}: run_verify(9, 7), {args.runs} timed runs, Python {python}, {os.cpu_count()} CPUs")
        print(f"  {'check':<36} {'status':<7} {'ms':>8} {'quartiles':>15} {'peak MB':>8}")
        rows = [(check_id, status, [run[i][2] for run in runs]) for i, (check_id, status, _, _) in enumerate(runs[0])]
        rows.append(("total", "", [sum(row[2] for row in run) for run in runs]))
        peaks = [row[3] for row in traced] + [None]
        for (check_id, status, ms), peak in zip(rows, peaks):
            mid, q1, q3 = spread(ms)
            peak_mb = "" if peak is None else f"{peak / 1e6:8.2f}"
            print(f"  {check_id:<36} {status:<7} {mid:8.1f} {q1:7.1f}–{q3:<7.1f} {peak_mb:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
