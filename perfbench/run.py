"""Benchmark of iterforge: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload closure --seed 1 --trace 1

Workloads (see workloads.py): verify, closure, frontier, cli.  BENCHMARK.json
gates on verify and cli, whose spreads on a noisy two-core machine stayed
within the bounds most often; closure and frontier run with --workload
closure, frontier or all, and their layers are measured by every traced run.

With --trace 0 a run measures one workload for --seconds, and longer if
it has not yet run five verify or frontier passes or four closure or cli
rounds.  It reports the end-to-end metrics, the same three for every
workload:

    setup_s         median of 5 set-ups, each in a fresh interpreter: the
                    library imports plus the state the workload shares
                    between operations (closure: a Universe(10))
    latency_p50_ms  median time of one operation: a verify pass, a
                    closure request, a frontier pass, a CLI command
    peak_rss_mb     peak resident memory of the process doing the work
                    (cli: of the largest command process)

With --trace 1 a run records spans and counters around calls into each
module and reports the per-layer metrics.  Each module is exercised by a
different workload and every traced run reports every layer, so a traced
run runs the traced section of all four workloads, each in a fresh
interpreter, whichever workload is named.  A section does a fixed amount
of work, so its counts repeat exactly for a seed; it runs that work traced
and then untraced, and the difference is the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Failed output checks are counted
in failed (fail_rate = failed / attempted); the exit code is 1 when any
check failed, 2 when the checkout holds no iterforge sources.  Results,
spans and the environment are also written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from tracing import tail

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "closure", "frontier", "cli")
SETUP_REPEATS = 5
BUDGET_S = 170  # a run must end within 180 s, whatever its workers do


class WorkerFailed(Exception):
    pass


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip()


def environment(seed: int) -> dict:
    return {
        "python": sys.version.replace("\n", " "),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit(),
        "seed": seed,
    }


def child_env(workdir: Path, seed: int) -> dict:
    """Children see only this checkout's sources and write only under workdir.

    The hash seed follows the workload seed, so one seed repeats exactly
    (term hashes are built from a string hash) and ten seeds sample it.
    """
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED=str(seed % 2**32),
        ITERFORGE_CACHE=str(workdir / "cache"),
        HOME=str(workdir / "home"),
        TMPDIR=str(workdir / "tmp"),
    )
    return env


def run_worker(job: str, workload: str, seed: int, seconds: int, workdir: Path, deadline: float) -> dict:
    """Run one job in a fresh interpreter; past the deadline, kill it and all it started."""
    argv = [sys.executable, str(HERE / "worker.py"), job, workload, str(seed), str(seconds), str(workdir)]
    proc = subprocess.Popen(
        argv, env=child_env(workdir, seed), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed(f"{job} {workload}: no result within {BUDGET_S} s of the start") from None
    except BaseException:  # interrupted or terminated: take the worker's processes along
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{job} {workload}: exit {proc.returncode}")
    return json.loads(lines[-1])


def fresh_workdir(parent: Path, name: str) -> Path:
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=parent))
    for sub in ("cache", "home", "tmp"):
        (workdir / sub).mkdir()
    return workdir


def measure(workload: str, seed: int, seconds: int, rundir: Path) -> dict:
    """Set-up probes and the timed stream of one workload, each in fresh interpreters."""
    deadline = time.monotonic() + BUDGET_S
    workdir = fresh_workdir(rundir, workload)
    setups = [run_worker("setup", workload, seed, seconds, workdir, deadline) for _ in range(SETUP_REPEATS)]
    result = run_worker("measure", workload, seed, seconds, workdir, deadline)
    latencies = result["latencies_s"]
    result["metrics"] = {
        "setup_s": (median(one["setup_s"] for one in setups), "s"),
        "latency_p50_ms": (median(latencies) * 1000, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return result


def trace(seed: int, seconds: int, rundir: Path) -> dict:
    deadline = time.monotonic() + BUDGET_S
    sections = {
        name: run_worker("trace", name, seed, seconds, fresh_workdir(rundir, f"trace-{name}"), deadline)
        for name in WORKLOADS
    }
    metrics = {}
    for section in sections.values():
        metrics.update(section["metrics"])
    return {
        "metrics": metrics,
        "attempted": sum(s["attempted"] for s in sections.values()),
        "failed": sum(s["failed"] for s in sections.values()),
        "sections": sections,
    }


def show(value, unit) -> str:
    if value is None:
        return "not recorded"
    return f"{value:.6g} {unit}" if isinstance(value, float) else f"{value} {unit}"


def print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {show(value, unit)}")


def print_workload_names(workload: str, result: dict) -> None:
    """The same numbers under per-workload names such as verify_s and closure_p50_ms."""
    latencies = result["latencies_s"]
    p50 = median(latencies)
    percent, value = tail(latencies)
    count = len(latencies)
    if value is None:
        tail_text = f"n/a ({count} samples; a tail needs 11)"
    else:
        tail_text = f"{value * 1000:.6g} ms (p{percent:.0f} of {count})"
    names = {
        "verify": [("verify_s", f"{p50:.6g} s"), ("verify_tail_s", tail_text)],
        "closure": [
            ("closure_p50_ms", f"{p50 * 1000:.6g} ms"),
            ("closure_tail_ms", tail_text),
            ("closure_rps", f"{count / sum(latencies):.6g} 1/s"),
        ],
        "frontier": [("frontier_s", f"{p50:.6g} s"), ("peak_rss_mb", f"{result['peak_rss_mb']:.6g} MB")],
        "cli": [("cli_p50_ms", f"{p50 * 1000:.6g} ms"), ("cli_tail_ms", tail_text)],
    }[workload]
    failed, attempted = result["failed"], result["attempted"]
    names.append(("fail_rate", f"{failed / attempted:.6g} ({failed} of {attempted})"))
    for name, text in names:
        print(f"  {name:<52} {text}")


def write_out(name: str, record: dict) -> Path:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / name
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def report_trace(result: dict, env: dict, seed: int) -> None:
    """Print each traced section, write its spans, and note its overhead in env."""
    env["trace_overhead_pct"] = {}
    for name, section in result["sections"].items():
        spans = section.pop("spans")
        path = write_out(f"spans-{name}-seed{seed}.json", {"environment": env, "spans": spans})
        env["trace_overhead_pct"][name] = section["metrics"][f"trace.overhead_pct.{name}"][0]
        print(
            f"section {name}: traced {section['traced_s']:.3f} s, untraced {section['untraced_s']:.3f} s; "
            f"{len(spans)} spans in {path.relative_to(ROOT)}"
        )
        if section["not_recorded"]:
            print(f"  not recorded (name gone from the library): {', '.join(section['not_recorded'])}")
    print_metrics(result["metrics"])


def measure_all(workloads, args, rundir: Path) -> dict:
    """Measure each workload in turn; with several, prefix each metric with its workload."""
    results = {w: measure(w, args.seed, args.seconds, rundir) for w in workloads}
    for workload, one in results.items():
        print(f"workload {workload}: {one['attempted']} operations")
        print_metrics(one["metrics"])
        print_workload_names(workload, one)
    if len(results) == 1:
        metrics = results[workloads[0]]["metrics"]
    else:
        metrics = {f"{w}.{name}": v for w, one in results.items() for name, v in one["metrics"].items()}
    return {
        "metrics": metrics,
        "attempted": sum(one["attempted"] for one in results.values()),
        "failed": sum(one["failed"] for one in results.values()),
        "runs": results,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "iterforge" / "__init__.py").is_file():
        print(f"perfbench: no iterforge sources in {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"  python {env['python']}; {env['cpus']} cpus; {env['platform']}; commit {env['commit']}")
    runs_root = ROOT / ".perfbench_tmp"
    runs_root.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=runs_root))
    try:
        if args.trace:
            result = trace(args.seed, args.seconds, rundir)
            report_trace(result, env, args.seed)
        else:
            result = measure_all(WORKLOADS if args.workload == "all" else (args.workload,), args, rundir)
    except WorkerFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    correct = result["failed"] == 0
    summary = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in result["metrics"].items()},
    }
    record = {"environment": env, **summary, "detail": result}
    path = write_out(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    fail_rate = result["failed"] / result["attempted"]
    print(f"fail_rate {fail_rate:.6g}; environment and results in {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
