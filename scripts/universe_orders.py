#!/usr/bin/env python3
"""Time the universe build and the line signatures per order, per checkout,
and record the medians as a BENCH_*.json file.

    python3 scripts/universe_orders.py PARENT_DIR CHANGE_DIR --names parent,change \
        --out BENCH_30_orders.json

Each sample is one fresh interpreter, run in the checkout's root with its
`src` on PYTHONPATH.  It builds `Universe(n)` to order n, then
`signatures(n)`, times both with `time.perf_counter`, and reports its peak
resident memory (`ru_maxrss`).  Each round takes every order from --low to
--high on every checkout; odd rounds run the checkouts in the given order
and even rounds in reverse.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median

SAMPLE = """
import json, resource, sys, time
from iterforge import Universe
n = int(sys.argv[1])
universe = Universe(n)
start = time.perf_counter()
universe.ensure(n)
build = time.perf_counter() - start
start = time.perf_counter()
universe.signatures(n)
signatures = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"build_s": build, "signatures_s": signatures, "peak_rss_mb": peak}))
"""
METRICS = ("build_s", "signatures_s", "peak_rss_mb")


def sample(checkout: Path, order: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SAMPLE, str(order)], cwd=checkout, env=env,
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", type=Path, nargs="+")
    parser.add_argument("--names", help="comma-separated, one per checkout (default: directory names)")
    parser.add_argument("--low", type=int, default=8)
    parser.add_argument("--high", type=int, default=13)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    names = args.names.split(",") if args.names else [path.resolve().name for path in args.checkouts]
    if len(names) != len(args.checkouts):
        parser.error("--names needs one name per checkout")

    orders = range(args.low, args.high + 1)
    samples = {name: {n: [] for n in orders} for name in names}
    for run in range(args.runs):
        sides = list(zip(names, args.checkouts))
        for n in orders:
            for name, checkout in sides if run % 2 == 0 else sides[::-1]:
                result = sample(checkout, n)
                samples[name][n].append(result)
                print(f"run {run + 1} order {n} {name}: build {result['build_s']:.3f} s, "
                      f"signatures {result['signatures_s']:.3f} s, peak {result['peak_rss_mb']:.1f} MB", flush=True)

    record = {
        "command": f"python3 scripts/universe_orders.py CHECKOUT... --names {','.join(names)} --runs {args.runs}",
        "sample": "a fresh interpreter per checkout and order: Universe(n).ensure(n), then signatures(n)",
        "order": "odd rounds run the checkouts as given, even rounds in reverse",
        "runs": args.runs,
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "orders": {
            str(n): {
                name: {
                    metric: {
                        "median": round(median(r[metric] for r in samples[name][n]), 6),
                        "runs": [round(r[metric], 6) for r in samples[name][n]],
                    }
                    for metric in METRICS
                }
                for name in names
            }
            for n in orders
        },
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
