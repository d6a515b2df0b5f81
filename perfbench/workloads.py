"""The four workloads: inputs made from a seed, the timed loops, the output
checks, and the traced sections that give the per-layer metrics.

Each workload is a closed loop: one client in one process, no threads, the
next operation sent only when the previous one has returned.  Only public
names of the library are called.  Output checks run outside the timed
region.

verify    one pass is verify.run_verify(9, 7) on a fresh Universe(9).
          It touches every module; polynomials does most of the work.
closure   requests against a Universe(10) built (and frozen out of the
          garbage collector) in set-up: close() in modes A, B, AB and AB
          with cancellation on order-3 and order-4 specs at bounds 8-10,
          and classify_identity on the irreducible order-4 pairs at bounds
          7-8.  Only semantics works after set-up.
frontier  one pass builds Universe(11) level by level and counts I_n in
          modes A and AB at orders 10 and 11: tableaux and incidence only.
cli       short commands, each in a fresh `python -m iterforge.cli`
          process with a catalog cache that starts empty in every run: the
          only workload that sees interpreter start, imports, rendering and
          the cache.
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path
from statistics import median

from iterforge import cli, incidence, polynomials, semantics, tableaux, verify
from iterforge.semantics import ClosureConfig, IdentitySpec

from tracing import GcMonitor, Tracer, tail

# expected outputs recorded by record_reference.py; absent only while recording
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}

LIBRARY_MODULES = ("terms", "tableaux", "incidence", "semantics", "polynomials", "verify", "cli")

# closure modes: name -> (tableau mode, cancellation laws on)
MODES = {"A": ("A", False), "B": ("B", False), "AB": ("AB", False), "AB-cancel": ("AB", True)}
CLOSE_BOUNDS = (8, 9, 10)
FORMATS = ["text", "json", "csv"]
CLASSIFY_BOUNDS = (7, 8)
SINGLE_SPECS = {
    3: [((i, j),) for i in range(1, 6) for j in range(i + 1, 6)],
    4: [((i, j),) for i in range(1, 15) for j in range(i + 1, 15)],
}
MULTI_SPECS = {
    3: [((1, 4), (3, 5)), ((1, 2), (4, 5)), ((1, 5), (2, 3)), ((1, 3), (2, 5)), ((2, 4), (3, 4)),
        ((1, 4), (2, 5))],
    4: [((2, 4), (6, 12)), ((1, 9), (3, 10)), ((6, 12), (8, 13)), ((1, 5), (7, 11)), ((3, 10), (11, 14)),
        ((2, 8), (5, 13))],
}


def catalan(n: int) -> int:
    """Independent of the library: the closed form of the counting sequence."""
    return math.comb(2 * n, n) // (n + 1)


def closure_key(order, pairs, mode, bound) -> str:
    return f"{order}|{','.join(f'{i}-{j}' for i, j in pairs)}|{mode}|{bound}"


def classify_key(order, pair, bound) -> str:
    return f"{order}|{pair[0]}-{pair[1]}|{bound}"


# the order-4 pairs that column_pair_survey(universe, 4) classifies: the five
# extension-tableau columns and every other formally irreducible pair
IRREDUCIBLE4 = [
    (1, 7), (1, 9), (1, 10), (1, 12), (1, 13), (1, 14), (2, 6), (2, 8), (2, 9), (2, 11),
    (2, 12), (2, 13), (3, 7), (3, 9), (3, 10), (3, 14), (4, 6), (4, 7), (4, 8), (4, 9),
    (4, 10), (4, 14), (5, 6), (5, 8), (5, 9), (5, 11), (5, 12), (5, 13), (6, 12), (6, 13),
    (6, 14), (7, 11), (7, 12), (7, 13), (8, 12), (8, 13), (8, 14), (9, 11), (10, 11), (11, 14),
]


def clear_memo_caches() -> None:
    """Empty the library's memo tables, so each pass starts as a fresh process would."""
    for name in LIBRARY_MODULES:
        module = sys.modules.get(f"iterforge.{name}")
        for value in list(vars(module).values()) if module else ():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


# a run goes on past --seconds until it has this many passes or rounds, so
# that every run's median is taken over the same amount of work: verify and
# frontier passes take seconds each, and a closure or cli round is the mix
MIN_ROUNDS = {"verify": 5, "closure": 4, "frontier": 5, "cli": 4}


def until(seconds: float, minimum: int):
    """Yield round numbers until the given time has passed and at least
    minimum rounds have run."""
    start = time.perf_counter()
    rounds = 0
    while rounds < minimum or time.perf_counter() - start < seconds:
        yield rounds
        rounds += 1


class Tally:
    """Latencies and failures of one stream of operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def record(self, seconds: float, ok: bool, what) -> None:
        self.latencies.append(seconds)
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def result(self, rss_mb: float) -> dict:
        return {
            "latencies_s": self.latencies,
            "attempted": self.attempted,
            "failed": self.failed,
            "peak_rss_mb": rss_mb,
        }


def passes(check, *args) -> bool:
    """An output check; one that raises has failed."""
    try:
        return bool(check(*args))
    except Exception:  # a malformed output fails its check, it does not end the run
        return False


def timed(func, *args):
    """Run func, returning (seconds, result, error); a raise is a failed operation."""
    start = time.perf_counter()
    try:
        result = func(*args)
    except Exception as error:  # one failed operation must not end the stream
        return time.perf_counter() - start, None, error
    return time.perf_counter() - start, result, None


# -- verify -----------------------------------------------------------------


def verify_ok(checks) -> bool:
    """Every check has the status it had when the reference was recorded
    (19 pass, 4 report), so the report is ok as well."""
    return {check.id: check.status for check in checks} == REFERENCE["verify"]


def measure_verify(seed: int, seconds: float, workdir: Path) -> dict:
    tally = Tally()
    for _ in until(seconds, MIN_ROUNDS["verify"]):
        clear_memo_caches()
        gc.collect()
        elapsed, report, error = timed(verify.run_verify, 9, 7)
        ok = error is None and passes(verify_ok, report.checks)
        tally.record(elapsed, ok, error or "verify statuses differ from the reference")
        del report
    return tally.result(peak_rss_mb())


def trace_verify(seed: int, workdir: Path) -> dict:
    clear_memo_caches()
    results = [verify.run_verify(9, 7).checks]  # warm-up
    tracer = Tracer()
    tracer.wrap(polynomials, "enumerate_trees_mixed", "polynomials.enumerate_mixed")
    tracer.wrap(polynomials, "series_mixed", "polynomials.series")
    tracer.wrap(polynomials, "skein", "polynomials.skein")
    clear_memo_caches()
    gc.collect()
    universe = tableaux.Universe(9)
    results.append([])
    start = time.perf_counter()
    try:
        for check_id, func, _ in verify.CHECKS:
            with tracer.span(f"verify.check.{check_id}"):
                results[-1].append(func(universe, 9, 7))
    finally:
        traced_s = time.perf_counter() - start
        tracer.restore()
    del universe
    clear_memo_caches()
    gc.collect()
    with GcMonitor() as monitor:
        start = time.perf_counter()
        report = verify.run_verify(9, 7)
        plain_s = time.perf_counter() - start
    results.append(report.checks)
    failed = sum(not passes(verify_ok, checks) for checks in results)

    metrics = {}
    for check_id in REFERENCE["verify"]:
        times = tracer.durations(f"verify.check.{check_id}")
        metrics[f"verify.check_s.{check_id}"] = (sum(times) if times else None, "s")
    for name in ("enumerate_mixed", "series", "skein"):
        span = f"polynomials.{name}"
        total = None if span in tracer.missing else sum(tracer.durations(span))
        metrics[f"polynomials.{name}_s"] = (total, "s")
    return section_result("verify", tracer, monitor, traced_s, plain_s, metrics, len(results), failed)


# -- closure ----------------------------------------------------------------


def closure_setup() -> tableaux.Universe:
    """A Universe(10) with every level, grid and decomposition built.

    The objects built here are frozen out of the garbage collector's
    generations.  Otherwise every oldest-generation collection during a
    request scans the whole universe: a tableaux change would then move
    closure timings through the collector, and those scans doubled the
    run-to-run spread of this workload.  verify and frontier build their
    universes inside the timed region and keep that interaction.
    """
    universe = tableaux.Universe(10)
    for m in range(1, 11):
        universe.decompositions(m)
    gc.freeze()
    return universe


def closure_round(rng: random.Random) -> list[tuple]:
    """One request of every kind: each order, spec shape, mode and bound for
    close(), four pairs at each bound for classify_identity; shuffled."""
    requests = []
    for order in (3, 4):
        for pool in (SINGLE_SPECS[order], MULTI_SPECS[order]):
            for mode in MODES:
                for bound in CLOSE_BOUNDS:
                    requests.append(("close", order, rng.choice(pool), mode, bound))
    for bound in CLASSIFY_BOUNDS:
        for pair in rng.sample(IRREDUCIBLE4, 4):
            requests.append(("classify", 4, (pair,), "classify", bound))
    rng.shuffle(requests)
    return requests


def closure_request(universe, request):
    kind, order, pairs, mode, bound = request
    if kind == "close":
        tableau_mode, unicity = MODES[mode]
        config = ClosureConfig(bound, tableau_mode, unicity)
        return semantics.close(IdentitySpec.of(order, *pairs), config, universe)
    return semantics.classify_identity(universe, order, pairs[0], bound)


def closure_ok(universe, request, result) -> bool:
    kind, order, pairs, mode, bound = request
    if kind == "close":
        expected = REFERENCE["closure"][closure_key(order, pairs, mode, bound)]
        classnumbers = [result.classnumber(m) for m in range(1, bound + 1)]
        return semantics.replay(universe, result) and classnumbers == expected
    witness = [list(step) for step in result.witness] if result.witness else None
    return [result.kind, witness] == REFERENCE["classify"][classify_key(order, pairs[0], bound)]


def closure_stream(universe, requests, tally: Tally, tracer: Tracer | None = None) -> None:
    for number, request in enumerate(requests):
        if tracer is None:
            elapsed, result, error = timed(closure_request, universe, request)
        else:
            tracer.request = number
            unions = tracer.counters.get("union_attempts", 0)
            with tracer.span(f"semantics.{request[0]}.{request[3]}"):
                elapsed, result, error = timed(closure_request, universe, request)
            if request[0] == "close" and result is not None:
                # close() requests only: classify runs closures whose logs it does not return
                counters = tracer.counters
                unions = counters.get("union_attempts", 0) - unions
                counters["close_unions"] = counters.get("close_unions", 0) + unions
                counters["close_merges"] = counters.get("close_merges", 0) + len(result.log)
        ok = error is None and passes(closure_ok, universe, request, result)
        tally.record(elapsed, ok, error or f"closure request {request}")
        del result


def measure_closure(seed: int, seconds: float, workdir: Path) -> dict:
    universe = closure_setup()
    rng = random.Random(seed)
    tally = Tally()
    for _ in until(seconds, MIN_ROUNDS["closure"]):
        closure_stream(universe, closure_round(rng), tally)
    return tally.result(peak_rss_mb())


def trace_closure(seed: int, workdir: Path) -> dict:
    universe = closure_setup()
    rng = random.Random(seed)
    first = closure_round(rng)
    requests = first + closure_round(rng)
    tally = Tally()
    # counting unions over the first round is also the warm-up: the wrapper
    # on every union would weigh on the timed spans of the traced pass
    counting = Tracer()
    counted = counting.count(getattr(semantics, "DisjointSet", None), "union", "union_attempts")
    try:
        closure_stream(universe, first, tally, counting)
    finally:
        counting.restore()
    tracer = Tracer()
    start = time.perf_counter()
    closure_stream(universe, requests, tally, tracer)
    traced_s = time.perf_counter() - start
    plain = Tally()
    with GcMonitor() as monitor:
        start = time.perf_counter()
        closure_stream(universe, requests, plain)
        plain_s = time.perf_counter() - start

    metrics = {}
    for mode in MODES:
        times = tracer.durations(f"semantics.close.{mode}")
        metrics[f"semantics.close_ms.{mode}"] = (median(times) * 1000, "ms")
    metrics["semantics.classify_ms"] = (median(tracer.durations("semantics.classify.classify")) * 1000, "ms")
    merges = counting.counters["close_merges"]
    unions = counting.counters["close_unions"] if counted else None
    metrics["semantics.merges"] = (merges, "count")
    metrics["semantics.union_attempts"] = (unions, "count")
    metrics["semantics.merge_ratio"] = (merges / unions if unions else None, "ratio")
    metrics["closure.tail_ms"] = (tail(plain.latencies)[1] * 1000, "ms")
    tracer.missing += counting.missing
    attempted, failed = tally.attempted + plain.attempted, tally.failed + plain.failed
    return section_result("closure", tracer, monitor, traced_s, plain_s, metrics, attempted, failed)


# -- frontier ---------------------------------------------------------------

FRONTIER_COUNTS = ((10, "A"), (10, "AB"), (11, "A"), (11, "AB"))


def frontier_pass(tracer: Tracer | None = None):
    """Build Universe(11) one level at a time, then count I_n.

    Also returns the rise of peak memory during the order-11 mode-A count,
    and with a tracer the labels built and the objects alive after the build.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    universe = tableaux.Universe(11)
    for n in range(1, 12):
        with span(f"tableaux.build.o{n}"):
            universe.catalog(n)
    built = {}
    if tracer:
        built["labels"] = sum(len(universe.catalog(n)) for n in range(12))
        built["live_objects"] = len(gc.get_objects())
    counts = {}
    for n, mode in FRONTIER_COUNTS:
        rss_before = peak_rss_mb()
        with span(f"incidence.count.{mode}.o{n}"):
            counts[(n, mode)] = incidence.count_reducible(universe, n, mode)
        if (n, mode) == (11, "A"):
            built["rss_delta_mb.o11"] = peak_rss_mb() - rss_before
    return universe, counts, built


def frontier_ok(universe, counts) -> bool:
    ok = all(len(universe.catalog(n)) == catalan(n) for n in range(12))
    for (n, mode), value in counts.items():
        expected = incidence.i_n_formula(n) if mode == "A" else REFERENCE["incidence_ab"][str(n)]
        ok &= value == expected
    return ok


def measure_frontier(seed: int, seconds: float, workdir: Path) -> dict:
    tally = Tally()
    for _ in until(seconds, MIN_ROUNDS["frontier"]):
        gc.collect()
        elapsed, result, error = timed(frontier_pass)
        ok = error is None and passes(frontier_ok, *result[:2])
        tally.record(elapsed, ok, error or "frontier counts differ")
        del result
    return tally.result(peak_rss_mb())


def trace_frontier(seed: int, workdir: Path) -> dict:
    # only the first pass in a process can see peak memory rise during the
    # order-11 count, so the warm-up pass is the one that measures it
    universe, counts, warm = frontier_pass()
    failed = not frontier_ok(universe, counts)
    del universe, counts
    tracer = Tracer()
    gc.collect()
    start = time.perf_counter()
    universe, counts, built = frontier_pass(tracer)
    traced_s = time.perf_counter() - start
    failed += not frontier_ok(universe, counts) or built["labels"] != sum(catalan(n) for n in range(12))
    del universe, counts
    gc.collect()
    with GcMonitor() as monitor:
        start = time.perf_counter()
        universe, counts, _ = frontier_pass()
        plain_s = time.perf_counter() - start
    failed += not frontier_ok(universe, counts)

    metrics = {}
    for n in (8, 9, 10, 11):
        metrics[f"tableaux.build_s.o{n}"] = (tracer.durations(f"tableaux.build.o{n}")[0], "s")
    metrics["tableaux.labels_built"] = (built["labels"], "count")
    metrics["tableaux.live_objects"] = (built["live_objects"], "count")
    for n, mode in FRONTIER_COUNTS:
        metrics[f"incidence.count_s.{mode}.o{n}"] = (tracer.durations(f"incidence.count.{mode}.o{n}")[0], "s")
    metrics["incidence.matrix_bytes.o11"] = (catalan(11) ** 2 // 8, "B")
    metrics["incidence.rss_delta_mb.o11"] = (warm["rss_delta_mb.o11"], "MB")
    return section_result("frontier", tracer, monitor, traced_s, plain_s, metrics, 3, failed)


# -- cli --------------------------------------------------------------------


def random_word(rng: random.Random, n: int) -> str:
    if n == 0:
        return "x"
    left = rng.randrange(n)
    return "V" + random_word(rng, left) + random_word(rng, n - 1 - left)


def _lines(out: str) -> list[str]:
    return out.splitlines()


def expect_enumerate(n, fmt):
    size = catalan(n)

    def check(out):
        if fmt == "json":
            return len(json.loads(out)["entries"]) == size
        lines = _lines(out)
        if fmt == "csv":
            return lines[0] == "label,word" and len(lines) == size + 1
        return len(lines) == size and lines[-1].split()[0] == str(size)

    return check


def expect_tableau(n, mode, fmt):
    rows = {"A": n, "B": 2, "AB": n + 2}[mode]

    def check(out):
        if fmt == "json":
            grid = json.loads(out)["rows"]
        else:
            grid = [line.split("," if fmt == "csv" else None) for line in _lines(out)]
        return len(grid) == rows and all(len(row) == catalan(n - 1) for row in grid)

    return check


def incidence_total(n, mode) -> int:
    return incidence.i_n_formula(n) if mode == "A" else REFERENCE["incidence_ab"][str(n)]


def expect_incidence(n, mode, fmt):
    size, total = catalan(n), incidence_total(n, mode)

    def check(out):
        if fmt == "json":
            record = json.loads(out)
            return record["total"] == total and len(record["rows"]) == size
        lines = _lines(out)
        footer = f"I_{n},{total}" if fmt == "csv" else f"I_{n} = {total}"
        return len(lines) == size + 1 and lines[-1] == footer

    return check


def expect_skein_order(n):
    """Text output: one line per label, then the collision lines."""
    size = catalan(n)

    def check(out):
        lines = _lines(out)
        return len(lines) >= size and lines[size - 1].split()[0] == str(size)

    return check


def expect_skein_word(word, fmt):
    def check(out):
        if fmt == "json":
            return json.loads(out)["word"] == word
        return len(_lines(out)) == 1 and out.strip() != ""

    return check


def expect_closure(order, pairs, mode, bound, fmt):
    expected = REFERENCE["closure"][closure_key(order, pairs, mode, bound)]

    def check(out):
        if fmt == "json":
            per_order = json.loads(out)["per_order"]
            return [per_order[str(m)]["h"] for m in range(1, bound + 1)] == expected
        lines = _lines(out)
        if fmt == "csv":
            rows = [line.split(",") for line in lines[1:]]
            return [int(row[1]) for row in rows] == expected[order - 1:]
        h = [int(line.split("h=")[1].split()[0]) for line in lines[1:]]
        return h == expected[order - 1:]

    return check


def expect_classify(pair, bound, fmt):
    kind, witness = REFERENCE["classify"][classify_key(4, pair, bound)]

    def check(out):
        if fmt == "json":
            record = json.loads(out)
            return record["verdict"] == kind and record["witness"] == witness
        return out.split()[0] == kind

    return check


def expect_values(values, fmt):
    def check(out):
        if fmt == "json":
            return json.loads(out)["values"] == values
        if fmt == "csv":
            return [int(line.split(",")[1]) for line in _lines(out)] == values
        return [int(v) for v in out.split()] == values

    return check


def expect_rows(count, fmt):
    def check(out):
        if fmt == "json":
            return len(json.loads(out)["rows"]) == count
        return len(_lines(out)) == count

    return check


def expect_keys(fmt):
    def check(out):
        if fmt == "json":
            return json.loads(out)["variant"] == "convolution"
        return len(_lines(out)) == 8

    return check


def catalan_command(rng: random.Random, fmt: str):
    variant = rng.choice(["classic", "general", "mixed", "ballot", "convolution"])
    if variant == "classic":
        top = rng.randint(10, 30)
        return ["catalan", "classic", str(top)], expect_values([catalan(n) for n in range(top + 1)], fmt)
    if variant == "general":
        arity, top = rng.choice([2, 3, 4]), rng.randint(8, 20)
        values = [math.comb(arity * n, n) // ((arity - 1) * n + 1) for n in range(top + 1)]
        return ["catalan", "general", str(arity), str(top)], expect_values(values, fmt)
    if variant == "mixed":
        degree = rng.randint(8, 14)
        return ["catalan", "mixed", "2,3", str(degree)], expect_count(degree + 1, fmt)
    if variant == "ballot":
        top = rng.randint(5, 12)
        return ["catalan", "ballot", str(top)], expect_rows(top, fmt)
    lam, top = rng.choice([1, 2, 3]), rng.randint(10, 30)
    return ["catalan", "convolution", str(lam), str(top)], expect_keys(fmt)


def expect_count(count, fmt):
    def check(out):
        if fmt == "json":
            return len(json.loads(out)["values"]) == count
        return len(_lines(out) if fmt == "csv" else out.split()) == count

    return check


def spec_file(workdir: Path, order, pairs) -> str:
    path = workdir / f"spec-{order}-{'_'.join(f'{i}-{j}' for i, j in pairs)}.txt"
    if not path.exists():
        path.write_text(f"order {order}\n" + "".join(f"{i} {j}\n" for i, j in pairs))
    return str(path)


def cli_round(rng: random.Random, workdir: Path) -> list[tuple[list[str], object]]:
    """Sixteen commands at orders 5-9 in text, json and csv; shuffled.

    Each slot keeps its command and order, so every round costs about the
    same; the seed picks the shuffle, specs, pairs, words and parameters.
    Incidence stops at order 8: printing the 4862 x 4862 matrix of order 9
    takes about 9 s, longer than a whole round of the other commands; the
    rendering cost it shows is still measured by the order-8 command.
    """
    commands = []

    def add(check, *argv):
        commands.append(([str(arg) for arg in argv], check))

    add(expect_enumerate(9, "text"), "enumerate", "--order", 9)
    add(expect_enumerate(7, "json"), "enumerate", "--order", 7, "--format", "json")
    n = rng.choice([5, 6])
    add(expect_enumerate(n, "csv"), "enumerate", "--order", n, "--format", "csv")
    add(expect_tableau(9, "A", "csv"), "tableau", "--order", 9, "--mode", "A", "--format", "csv")
    add(expect_tableau(8, "AB", "text"), "tableau", "--order", 8, "--mode", "AB")
    n = rng.choice([5, 6, 7])
    add(expect_tableau(n, "B", "json"), "tableau", "--order", n, "--mode", "B", "--format", "json")
    add(expect_incidence(8, "A", "csv"), "incidence", "--order", 8, "--format", "csv")
    mode = rng.choice(["A", "AB"])
    add(expect_incidence(7, mode, "text"), "incidence", "--order", 7, "--mode", mode)
    n = rng.choice([5, 6])
    add(expect_incidence(n, "AB", "json"), "incidence", "--order", n, "--mode", "AB", "--format", "json")
    add(expect_skein_order(8), "skein", 8)
    add(expect_skein_order(9), "skein", 9)
    word = random_word(rng, rng.randint(5, 9))
    f = rng.choice(["text", "json"])
    add(expect_skein_word(word, f), "skein", word, "--format", f)
    for order in (3, 4):
        pairs = rng.choice(SINGLE_SPECS[order] + MULTI_SPECS[order])
        mode, bound, f = rng.choice(list(MODES)), rng.choice([8, 9]), rng.choice(FORMATS)
        tableau_mode, unicity = MODES[mode]
        spec = spec_file(workdir, order, pairs)
        flags = ["--order", bound, "--mode", tableau_mode, "--format", f] + (["--unicity"] if unicity else [])
        add(expect_closure(order, pairs, mode, bound, f), "closure", spec, *flags)
    pair, bound, f = rng.choice(IRREDUCIBLE4), rng.choice(CLASSIFY_BOUNDS), rng.choice(["text", "json"])
    add(expect_classify(pair, bound, f), "classify", 4, *pair, "--order", bound, "--format", f)
    f = rng.choice(FORMATS)
    argv, check = catalan_command(rng, f)
    add(check, *argv, "--format", f)
    rng.shuffle(commands)
    return commands


def cli_env(cache: Path) -> dict:
    return dict(os.environ, ITERFORGE_CACHE=str(cache))


def uses_universe(argv) -> bool:
    return argv[0] != "catalan" and not (argv[0] == "skein" and not argv[1].isdigit())


def cli_stream(rounds, workdir: Path, cache: Path, tally: Tally, classes: dict) -> None:
    """Run commands in fresh processes; class each by what it did to the cache."""
    env = cli_env(cache)
    for commands in rounds:
        for argv, check in commands:
            before = set(os.listdir(cache))
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "iterforge.cli", *argv],
                cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
            )
            elapsed = time.perf_counter() - start
            after = set(os.listdir(cache))
            if after - before:
                classes["write"].append(elapsed)
            elif before and uses_universe(argv):
                classes["read"].append(elapsed)
            ok = proc.returncode == 0 and passes(check, proc.stdout)
            what = f"iterforge {' '.join(argv)} (exit {proc.returncode}) {proc.stderr.strip()[-200:]}"
            tally.record(elapsed, ok, what)


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    path.mkdir(parents=True, exist_ok=False)
    return path


def cli_rounds(rng, workdir, seconds):
    for _ in until(seconds, MIN_ROUNDS["cli"]):
        yield cli_round(rng, workdir)


def measure_cli(seed: int, seconds: float, workdir: Path) -> dict:
    rng = random.Random(seed)
    cache = fresh_dir(workdir, "cache-measure")
    tally = Tally()
    classes = {"write": [], "read": []}
    cli_stream(cli_rounds(rng, workdir, seconds), workdir, cache, tally, classes)
    return tally.result(peak_rss_mb(resource.RUSAGE_CHILDREN))


# library entry points the command line calls; their time is not rendering
CLI_LIBRARY_CALLS = (
    "incidence_matrix", "close", "classify_identity", "collision_groups", "skein",
    "series_mixed", "catalan_general", "convolution_relation_check", "parse_word",
    "catalan", "ballot_row",
)
UNIVERSE_CALLS = ("catalog", "tableau_a", "tableau_b", "grid_aplusb")


def cli_in_process(commands, cache: Path, tracer: Tracer | None = None) -> tuple[float, int]:
    """Run the commands through cli.main in this process; (seconds, failures)."""
    os.environ["ITERFORGE_CACHE"] = str(cache)
    failed = 0
    start = time.perf_counter()
    for number, (argv, check) in enumerate(commands):
        buffer = io.StringIO()
        span = nullcontext() if tracer is None else tracer.span("cli.main")
        if tracer is not None:
            tracer.request = number
        with redirect_stdout(buffer), span:
            try:
                code = cli.main(argv)
            except SystemExit as exit_:  # argparse rejects the arguments
                code = exit_.code
            except Exception as error:  # one failed command must not end the stream
                print(f"iterforge {' '.join(argv)}: {error!r}", file=sys.stderr)
                code = None
        failed += not (code == 0 and passes(check, buffer.getvalue()))
    return time.perf_counter() - start, failed


def trace_cli(seed: int, workdir: Path) -> dict:
    rng = random.Random(seed)
    startup = []
    for i in range(5):
        start = time.perf_counter()
        env = cli_env(fresh_dir(workdir, f"cache-startup-{i}"))
        argv = [sys.executable, "-c", "import iterforge.cli"]
        subprocess.run(argv, cwd=workdir, env=env, check=True, timeout=60)
        startup.append(time.perf_counter() - start)
    stream = Tally()
    classes = {"write": [], "read": []}
    rounds = [cli_round(rng, workdir) for _ in range(3)]
    cli_stream(rounds, workdir, fresh_dir(workdir, "cache-stream"), stream, classes)

    commands = cli_round(rng, workdir)
    _, warm_failed = cli_in_process(commands, fresh_dir(workdir, "cache-warm-up"))
    tracer = Tracer()
    for name in CLI_LIBRARY_CALLS:
        tracer.wrap(cli, name, f"cli.call.{name}")
    for name in UNIVERSE_CALLS:
        tracer.wrap(tableaux.Universe, name, f"cli.call.universe.{name}")
    try:
        traced_s, traced_failed = cli_in_process(commands, fresh_dir(workdir, "cache-traced"), tracer)
    finally:
        tracer.restore()
    with GcMonitor() as monitor:
        plain_s, plain_failed = cli_in_process(commands, fresh_dir(workdir, "cache-plain"))

    self_times = tracer.self_times()
    render = sum(t for t, span in zip(self_times, tracer.spans) if span[0] == "cli.main")
    metrics = {
        "cli.startup_ms": (median(startup) * 1000, "ms"),
        "cli.cache_write_ms": (median(classes["write"]) * 1000 if classes["write"] else None, "ms"),
        "cli.cache_read_ms": (median(classes["read"]) * 1000 if classes["read"] else None, "ms"),
        "cli.render_s": (render, "s"),
        "cli.tail_ms": (tail(stream.latencies)[1] * 1000, "ms"),
    }
    attempted = stream.attempted + 3 * len(commands)
    failed = stream.failed + warm_failed + traced_failed + plain_failed
    return section_result("cli", tracer, monitor, traced_s, plain_s, metrics, attempted, failed)


# -- shared -----------------------------------------------------------------


def section_result(name, tracer, monitor, traced_s, plain_s, metrics, attempted, failed) -> dict:
    metrics[f"gc.gen2_collections.{name}"] = (monitor.gen2_collections, "count")
    metrics[f"gc.pause_s.{name}"] = (monitor.pause_s, "s")
    metrics[f"trace.overhead_pct.{name}"] = (100 * (traced_s - plain_s) / plain_s, "%")
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "not_recorded": tracer.missing,
        "traced_s": traced_s,
        "untraced_s": plain_s,
        "spans": tracer.records(),
    }


MEASURE = {
    "verify": measure_verify,
    "closure": measure_closure,
    "frontier": measure_frontier,
    "cli": measure_cli,
}
TRACE = {"verify": trace_verify, "closure": trace_closure, "frontier": trace_frontier, "cli": trace_cli}
