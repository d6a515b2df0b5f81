"""Text, JSON and CSV renderings of the engine's results.

This is the only module that turns engine objects into output.  Each
function takes results that are already computed (a catalog, label rows,
an incidence matrix, a closure state, a verdict, polynomials, a sequence,
a verify report) and returns one command's whole output as a string
without the final newline; none of them calls the engine's computations.
Incidence rows render from their bit masks: one 0/1 string per row feeds
the text, CSV and JSON forms alike.
"""

from __future__ import annotations

FORMATS = ("text", "json", "csv")


def _json(record, **options) -> str:
    """json.dumps, with the module loaded only by the commands that print JSON."""
    import json

    return json.dumps(record, **options)


def term_to_nested(t):
    """Nested-array form used in machine-readable output: x or ["V", l, r]."""
    if t.is_leaf:
        return "x"
    return ["V", term_to_nested(t.left), term_to_nested(t.right)]


def _csv_field(value) -> str:
    """One CSV field, quoted when it holds a comma or a quote (RFC 4180)."""
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# -- catalogs and tableaux ---------------------------------------------------


def catalog(cat, fmt: str) -> str:
    """The labels and words of one order."""
    labels = range(1, len(cat) + 1)
    if fmt == "json":
        entries = [{"label": i, "word": cat.word(i), "term": term_to_nested(cat.term(i))} for i in labels]
        return _json({"order": cat.order, "entries": entries}, indent=2)
    if fmt == "csv":
        return "\n".join(["label,word", *(f"{i},{cat.word(i)}" for i in labels)])
    width = len(str(len(cat)))
    return "\n".join(f"{i:>{width}} {cat.word(i)}" for i in labels)


def _grid(rows, separator: str) -> str:
    return "\n".join(separator.join(map(str, row)) for row in rows)


def tableau_text(rows) -> str:
    """Plain-text grid: one line per row, labels space-separated."""
    return _grid(rows, " ")


def tableau(order: int, mode: str, rows, fmt: str) -> str:
    """A label grid: the rows of A_n, B_n or both."""
    if fmt == "json":
        return _json({"order": order, "mode": mode, "rows": [list(row) for row in rows]})
    if fmt == "csv":
        return _grid(rows, ",")
    return tableau_text(rows)


# -- incidence ---------------------------------------------------------------


def _bit_rows(matrix):
    """Row i as the string of entries (i, 1), (i, 2), ...: its mask, reversed."""
    width = f"0{matrix.size}b"
    return (format(mask, width)[::-1] for mask in matrix.rows)


def matrix_csv(matrix) -> str:
    """CSV rows of 0/1 entries plus an I_n footer line."""
    lines = [",".join(bits) for bits in _bit_rows(matrix)]
    lines.append(f"I_{matrix.order},{matrix.total()}")
    return "\n".join(lines)


def incidence(matrix, fmt: str) -> str:
    """The 0/1 matrix of one order with its total."""
    if fmt == "csv":
        return matrix_csv(matrix)
    bits = _bit_rows(matrix)
    if fmt == "json":
        record = {
            "order": matrix.order,
            "mode": matrix.mode,
            "rows": [list(map(int, row)) for row in bits],
            "total": matrix.total(),
            "total_unordered": matrix.total_unordered(),
        }
        return _json(record)
    lines = [" ".join(row) for row in bits]
    lines.append(f"I_{matrix.order} = {matrix.total()}")
    return "\n".join(lines)


# -- closures and verdicts ---------------------------------------------------


def closure_record(state) -> dict:
    """Machine-readable closure report."""
    per_order = {}
    for m in range(1, state.config.max_order + 1):
        per_order[str(m)] = {
            "h": state.classnumber(m),
            "classes": state.classes(m),
            "singletons": state.singleton_count(m),
        }
    return {
        "spec": {"order": state.spec.order, "pairs": [list(p) for p in state.spec.pairs]},
        "config": {
            "max_order": state.config.max_order,
            "mode": state.config.mode,
            "unicity": state.config.unicity,
        },
        "per_order": per_order,
        "derivations": [
            {
                "order": merge.order,
                "merged": [merge.a, merge.b],
                "rule": merge.rule,
                "source": list(merge.source) if merge.source is not None else None,
            }
            for merge in state.log
        ],
    }


def closure_text(state) -> str:
    """Eyeball report: one line per order with its classes."""
    lines = [
        f"identity order {state.spec.order}, pairs "
        + " ".join(f"({i},{j})" for i, j in state.spec.pairs)
        + f", mode {state.config.mode}, unicity {'on' if state.config.unicity else 'off'}"
    ]
    for m in range(state.spec.order, state.config.max_order + 1):
        classes = " ".join("{" + " ".join(str(x) for x in c) + "}" for c in state.classes(m))
        lines.append(f"order {m}: h={state.classnumber(m)} singletons={state.singleton_count(m)} {classes}")
    return "\n".join(lines)


def closure(state, fmt: str) -> str:
    """A closure: classes, classnumbers and singletons per order."""
    if fmt == "json":
        return _json(closure_record(state))
    if fmt == "csv":
        lines = ["order,classnumber,singletons"]
        for m in range(state.spec.order, state.config.max_order + 1):
            lines.append(f"{m},{state.classnumber(m)},{state.singleton_count(m)}")
        return "\n".join(lines)
    return closure_text(state)


def verdict(n: int, pair: tuple[int, int], result, fmt: str) -> str:
    """One identity's classification, with its witness chain if any."""
    if fmt == "json":
        record = {
            "order": n,
            "pair": list(pair),
            "verdict": result.kind,
            "bound": result.bound,
            "witness": [list(step) for step in result.witness] if result.witness else None,
        }
        return _json(record)
    text = str(result)
    if result.witness:
        chain = " -> ".join(f"{i}~{j}@{m}" for m, i, j in result.witness)
        text += f" via {chain}"
    return text


# -- polynomials and sequences -----------------------------------------------


def skein_table(cat, polys, groups, fmt: str) -> str:
    """The skein polynomial of every label of one order, then the collisions.

    `groups` maps a key to the labels that share one polynomial (in label
    order, as `collision_groups` gives them) and `polys` maps the key to
    that polynomial, which is formatted once for all its labels."""
    texts = [""] * len(cat)
    for key, labels in groups.items():
        text = str(polys[key])
        for i in labels:
            texts[i - 1] = text
    if fmt == "json":
        record = {
            "order": cat.order,
            "polynomials": [
                {"label": i, "word": cat.word(i), "polynomial": text} for i, text in enumerate(texts, 1)
            ],
            "collisions": [sorted(labels) for labels in groups.values() if len(labels) > 1],
        }
        return _json(record)
    lines = [f"{i} {cat.word(i)} {text}" for i, text in enumerate(texts, 1)]
    for labels in groups.values():
        if len(labels) > 1:
            lines.append(f"collision: labels {' '.join(str(v) for v in labels)}")
    return "\n".join(lines)


def skein_word(word: str, poly, fmt: str) -> str:
    """The skein polynomial of one word."""
    if fmt == "json":
        record = {
            "word": word,
            "polynomial": str(poly),
            "coefficients": [[s, t, c] for (s, t), c in sorted(poly.coeffs.items(), reverse=True)],
        }
        return _json(record)
    return str(poly)


def sequence(variant: str, values, fmt: str, **params) -> str:
    """A counting sequence from index 0; params are the variant's inputs."""
    if fmt == "json":
        return _json({"variant": variant, **params, "values": values})
    if fmt == "csv":
        return "\n".join(f"{n},{v}" for n, v in enumerate(values))
    return " ".join(str(v) for v in values)


def ballot_rows(rows, fmt: str) -> str:
    """Rows 1..N of the ballot triangle."""
    if fmt == "json":
        return _json({"variant": "ballot", "rows": rows})
    return _grid(rows, "," if fmt == "csv" else " ")


def convolution(report, fmt: str) -> str:
    """The three convolution relations at one lambda and n."""
    record = {
        "variant": "convolution",
        "lam": report.lam,
        "n": report.n,
        "value": report.convolution,
        "relation1_coefficients": list(report.relation1),
        "relation2_ok": report.relation2_ok,
        "relation3_ratio": str(report.relation3_ratio),
        "relation3_limit": str(report.relation3_limit),
    }
    if fmt == "json":
        return _json(record)
    if fmt == "csv":
        return "\n".join(f"{k},{_csv_field(v)}" for k, v in record.items())
    return "\n".join(f"{k}: {v}" for k, v in record.items())


# -- verification ------------------------------------------------------------


def report_text(report) -> str:
    lines = [f"verification at order bound {report.max_order}, closure bound {report.closure_order}"]
    for c in report.checks:
        lines.append(f"[{c.status.upper():<6}] {c.id}: {c.description}")
        lines.append(f"         expected: {c.expected}")
        lines.append(f"         computed: {c.computed}")
    counts = report.counts
    lines.append(
        f"{counts['pass']} passed, {counts['fail']} failed, "
        f"{counts['report']} report-only, {counts['skip']} skipped"
    )
    return "\n".join(lines)


def report_record(report) -> dict:
    return {
        "max_order": report.max_order,
        "closure_order": report.closure_order,
        "ok": report.ok,
        "checks": [
            {
                "id": c.id,
                "description": c.description,
                "status": c.status,
                "expected": c.expected,
                "computed": c.computed,
                "elapsed_ms": round(c.elapsed_ms, 3),
            }
            for c in report.checks
        ],
    }


def verify_report(report, fmt: str) -> str:
    """Every check with its status, expected and computed values."""
    if fmt == "json":
        return _json(report_record(report), indent=2)
    if fmt == "csv":
        return "\n".join(["id,status", *(f"{c.id},{c.status}" for c in report.checks)])
    return report_text(report)
