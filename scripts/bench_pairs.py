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

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH.json \
        --inprocess "verify.run_verify(9, 7)"

--inprocess CALL adds a same-process A/B beside the benchmark runs.  For
every seed, after its workloads, each side runs CALL PASSES times in each
of PROCESSES fresh interpreters in its checkout's root, with its `src` on
PYTHONPATH; the two sides' processes alternate, in the seed's order, so a
burst of load on the machine falls on both.  CALL is Python whose first
name is a module of the package, imported under that name first; each
pass is timed with `time.perf_counter`.  A process scores its median
pass, and a pair each side's median of its processes' scores.  The
`inprocess` section holds, per side, every process's score and
`ru_maxrss`, the pairs' medians and quartiles of both, and the number of
pairs the change won.
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
PASSES = 6  # passes of an --inprocess call per process
PROCESSES = 3  # --inprocess processes per side and pair


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: no output from {' '.join(argv)}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


INPROCESS_PROBE = """
import importlib, json, resource, sys, time
call, passes = sys.argv[1], int(sys.argv[2])
name = call.split(".", 1)[0]
namespace = {name: importlib.import_module("iterforge." + name)}
code = compile(call, "<call>", "exec")
times = []
for _ in range(passes):
    start = time.perf_counter()
    exec(code, namespace)
    times.append((time.perf_counter() - start) * 1000)
print(json.dumps({"ms": times, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""


def run_inprocess(checkout: Path, call: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-c", INPROCESS_PROBE, call, str(PASSES)]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=1800)
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {call} failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout)


def summary(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive")
    return {"median": median(values), "q1": q1, "q3": q3, "runs": values}


def compared(values: dict) -> dict:
    """Both sides' summaries and the pairs in which the change was lower."""
    wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
    return {
        "parent": summary(values["parent"]),
        "change": summary(values["change"]),
        "change_better_pairs": f"{wins}/{len(values['parent'])}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", default=WORKLOADS, help=f"comma-separated (default {WORKLOADS})")
    parser.add_argument("--inprocess", metavar="CALL", help='e.g. "verify.run_verify(9, 7)"')
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {w: {side: [] for side in sides} for w in workloads}
    inprocess = {side: [] for side in sides}
    for seed in SEEDS:
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, seed)
                results[workload][side].append(result)
                p50 = result["metrics"]["latency_p50_ms"]["value"]
                print(f"seed {seed} {workload} {side}: p50 {p50:.1f} ms, failed {result['failed']}", flush=True)
        if args.inprocess:
            processes = {side: [] for side in sides}
            for _ in range(PROCESSES):
                for side in order:
                    result = run_inprocess(sides[side], args.inprocess)
                    score = {"median_ms": median(result["ms"]), "peak_rss_mb": result["peak_rss_mb"]}
                    processes[side].append(score)
            for side in order:
                inprocess[side].append(processes[side])
                scores = ", ".join(f"{p['median_ms']:.1f}" for p in processes[side])
                print(f"seed {seed} inprocess {side}: process medians {scores} ms", flush=True)

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
            entry[metric] = compared({side: [r["metrics"][metric]["value"] for r in runs] for side, runs in by_side.items()})
        entry["failed"] = {side: sum(r["failed"] for r in runs) for side, runs in by_side.items()}
        entry["attempted"] = {side: sum(r["attempted"] for r in runs) for side, runs in by_side.items()}
        record["workloads"][workload] = entry
    if args.inprocess:
        record["inprocess"] = {
            "call": args.inprocess,
            "passes": PASSES,
            "processes": PROCESSES,
            "order": "per pair, the sides' processes alternate, in the seed's order",
            "per_process": inprocess,
        }
        for metric in ("median_ms", "peak_rss_mb"):
            pairs = {side: [median(p[metric] for p in pair) for pair in runs] for side, runs in inprocess.items()}
            record["inprocess"][metric] = compared(pairs)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
