#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and record the
medians as a BENCH_*.json file.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_6.json
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_19.json \
        --workloads verify,cli,closure

Each run is `python3 perfbench/run.py --workload W --seed S` in the root of
one checkout, at the benchmark's own run length, so each side measures its
own sources with its own benchmark code.  W is each workload of
--workloads (by default the gated ones, verify and cli) and S each of the
seeds 11-20.  For every seed and workload both sides run back to back; odd
seeds run the parent first and even seeds the change first.  The output
holds, per workload and end-to-end metric, every run's value, the median
and quartiles of each side, and the number of pairs the change won, with
the seeds, the command, the Python version and the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

METRICS = ("latency_p50_ms", "peak_rss_mb", "setup_s")  # all lower-is-better
WORKLOADS = "verify,cli"
SEEDS = tuple(range(11, 21))


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output from {' '.join(argv)}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=WORKLOADS, help=f"comma-separated (default {WORKLOADS})")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    sides = {"parent": args.parent, "change": args.change}
    results = {w: {side: [] for side in sides} for w in workloads}
    for seed in SEEDS:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, seed)
                results[workload][side].append(result)
                p50 = result["metrics"]["latency_p50_ms"]["value"]
                print(f"seed {seed} {workload} {side}: p50 {p50:.1f} ms, failed {result['failed']}", flush=True)

    record = {
        "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED",
        "seeds": list(SEEDS),
        "order": "odd seeds run the parent first, even seeds the change first",
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workloads": {},
    }
    for workload, by_side in results.items():
        entry = {}
        for metric in METRICS:
            values = {side: [r["metrics"][metric]["value"] for r in runs] for side, runs in by_side.items()}
            wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
            entry[metric] = {
                "parent": summary(values["parent"]),
                "change": summary(values["change"]),
                "change_better_pairs": f"{wins}/{len(SEEDS)}",
            }
        entry["failed"] = {side: sum(r["failed"] for r in runs) for side, runs in by_side.items()}
        entry["attempted"] = {side: sum(r["attempted"] for r in runs) for side, runs in by_side.items()}
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
