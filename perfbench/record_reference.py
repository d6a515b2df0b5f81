"""Record the expected outputs that the benchmark checks against.

Run once from the repository root at a commit whose results are trusted:

    PYTHONPATH=src python3 perfbench/record_reference.py

It writes perfbench/reference.json: the classnumbers of every closure the
closure and cli workloads can request, the verdict of every classify
request, the mode-AB reducible-pair counts through order 11 (mode A has a
closed form, AB has none), and the status of every verify check.
"""

from __future__ import annotations

import json

from iterforge import incidence, semantics, tableaux, verify
from iterforge.semantics import ClosureConfig, IdentitySpec

import workloads as w


def compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def dump(reference: dict) -> str:
    """JSON with one entry per line, so a changed expectation shows as one line."""
    sections = []
    for name, entries in reference.items():
        body = ",\n".join(f"  {json.dumps(key)}: {compact(value)}" for key, value in entries.items())
        sections.append(f"{json.dumps(name)}: {{\n{body}\n}}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> None:
    universe = w.closure_setup()
    survey = semantics.column_pair_survey(universe, 4, 7)
    walked = sorted(survey.column_pairs + survey.other_pairs)
    if walked != w.IRREDUCIBLE4:
        raise SystemExit("the order-4 survey walks other pairs than IRREDUCIBLE4")

    closure = {}
    for order in (3, 4):
        for pairs in w.SINGLE_SPECS[order] + w.MULTI_SPECS[order]:
            for mode, (tableau_mode, unicity) in w.MODES.items():
                for bound in w.CLOSE_BOUNDS:
                    config = ClosureConfig(bound, tableau_mode, unicity)
                    state = semantics.close(IdentitySpec.of(order, *pairs), config, universe)
                    key = w.closure_key(order, pairs, mode, bound)
                    closure[key] = [state.classnumber(m) for m in range(1, bound + 1)]
    classify = {}
    for pair in w.IRREDUCIBLE4:
        for bound in w.CLASSIFY_BOUNDS:
            verdict = semantics.classify_identity(universe, 4, pair, bound)
            witness = [list(step) for step in verdict.witness] if verdict.witness else None
            classify[w.classify_key(4, pair, bound)] = [verdict.kind, witness]
    del universe
    frontier = tableaux.Universe(11)
    counts = {str(n): incidence.count_reducible(frontier, n, "AB") for n in range(1, 12)}
    del frontier
    statuses = {check.id: check.status for check in verify.run_verify(9, 7).checks}

    reference = {"verify": statuses, "incidence_ab": counts, "classify": classify, "closure": closure}
    w.REFERENCE_PATH.write_text(dump(reference))
    print(f"wrote {w.REFERENCE_PATH}: {len(closure)} closures, {len(classify)} verdicts")


if __name__ == "__main__":
    main()
