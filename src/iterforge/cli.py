"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses arguments,
calls the module function, and prints that function's own text/json/csv
rendering.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import semantics, verify
from .errors import EngineError
from .incidence import incidence_matrix, matrix_csv
from .polynomials import (
    catalan_general,
    collision_groups,
    convolution_relation_check,
    series_mixed,
    skein,
)
from .semantics import ClosureConfig, IdentitySpec, classify_identity, close
from .tableaux import CatalogCache, Universe
from .terms import ballot_row, catalan, parse_word, term_to_nested


class UsageError(Exception):
    """Malformed command arguments; exits with code 2."""


MAX_ORDER_CAP = 9


def _universe(order: int) -> Universe:
    return Universe(max(order, 1), cache=CatalogCache())


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _order_arg(parser, default=7, help="maximum order (cap 9)"):
    parser.add_argument("--order", type=int, default=default, help=help)


def _format_arg(parser):
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
    parser.add_argument("--out", default=None, help="write output to a file")


def cmd_enumerate(args) -> int:
    uni = _universe(args.order)
    cat = uni.catalog(args.order)
    if args.format == "json":
        entries = [
            {"label": i, "word": cat.word(i), "term": term_to_nested(cat.term(i))}
            for i in range(1, len(cat) + 1)
        ]
        _emit(args, json.dumps({"order": args.order, "entries": entries}, indent=2))
    elif args.format == "csv":
        lines = ["label,word"] + [f"{i},{cat.word(i)}" for i in range(1, len(cat) + 1)]
        _emit(args, "\n".join(lines))
    else:
        width = len(str(len(cat)))
        _emit(args, "\n".join(f"{i:>{width}} {cat.word(i)}" for i in range(1, len(cat) + 1)))
    return 0


def _tableau_rows(uni, order, which):
    if which == "A":
        return uni.tableau_a(order).rows
    if which == "B":
        return uni.tableau_b(order).rows
    return uni.grid_aplusb(order)


def cmd_tableau(args) -> int:
    uni = _universe(args.order)
    rows = _tableau_rows(uni, args.order, args.mode)
    if args.format == "json":
        _emit(args, json.dumps({"order": args.order, "mode": args.mode, "rows": [list(r) for r in rows]}))
    elif args.format == "csv":
        _emit(args, "\n".join(",".join(str(v) for v in row) for row in rows))
    else:
        _emit(args, "\n".join(" ".join(str(v) for v in row) for row in rows))
    return 0


def cmd_incidence(args) -> int:
    if args.mode == "B":
        raise EngineError("incidence modes are A and AB")
    uni = _universe(args.order)
    matrix = incidence_matrix(uni, args.order, args.mode)
    if args.format == "json":
        record = {
            "order": matrix.order,
            "mode": matrix.mode,
            "rows": [[matrix.entry(i, j) for j in range(1, matrix.size + 1)] for i in range(1, matrix.size + 1)],
            "total": matrix.total(),
            "total_unordered": matrix.total_unordered(),
        }
        _emit(args, json.dumps(record))
    elif args.format == "csv":
        _emit(args, matrix_csv(matrix))
    else:
        lines = [
            " ".join(str(matrix.entry(i, j)) for j in range(1, matrix.size + 1))
            for i in range(1, matrix.size + 1)
        ]
        lines.append(f"I_{matrix.order} = {matrix.total()}")
        _emit(args, "\n".join(lines))
    return 0


def read_spec_file(path: str) -> IdentitySpec:
    """Spec file: a line "order n", then one "i j" line per identity pair.

    A file that cannot be read is a domain error.  A malformed file is a
    usage error, and the message names the file and the line.
    """
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        raise EngineError(f"{path}: cannot read spec file: {error.strerror}") from None
    order = None
    pairs = []
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if order is None:
            if len(fields) != 2 or fields[0] != "order":
                raise UsageError(f"{path}:{number}: expected 'order n' first, got {line!r}")
            order = _spec_int(fields[1], path, number)
            continue
        if len(fields) != 2:
            raise UsageError(f"{path}:{number}: expected 'i j', got {line!r}")
        pairs.append((_spec_int(fields[0], path, number), _spec_int(fields[1], path, number)))
    if order is None or not pairs:
        raise UsageError(f"{path}: needs an order line and at least one pair")
    return IdentitySpec.of(order, *pairs)


def _spec_int(value: str, path: str, number: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"{path}:{number}: expected an integer, got {value!r}") from None


def cmd_closure(args) -> int:
    spec = read_spec_file(args.specfile)
    uni = _universe(args.order)
    state = close(spec, ClosureConfig(args.order, args.mode, args.unicity), uni)
    if args.format == "json":
        _emit(args, json.dumps(semantics.closure_record(state)))
    elif args.format == "csv":
        lines = ["order,classnumber,singletons"]
        for m in range(spec.order, args.order + 1):
            lines.append(f"{m},{state.classnumber(m)},{state.singleton_count(m)}")
        _emit(args, "\n".join(lines))
    else:
        _emit(args, semantics.closure_text(state))
    return 0


def cmd_classify(args) -> int:
    uni = _universe(args.order)
    verdict = classify_identity(uni, args.n, (args.i, args.j), args.order)
    if args.format == "json":
        record = {
            "order": args.n,
            "pair": [args.i, args.j],
            "verdict": verdict.kind,
            "bound": verdict.bound,
            "witness": [list(step) for step in verdict.witness] if verdict.witness else None,
        }
        _emit(args, json.dumps(record))
    else:
        text = str(verdict)
        if verdict.witness:
            chain = " -> ".join(f"{i}~{j}@{m}" for m, i, j in verdict.witness)
            text += f" via {chain}"
        _emit(args, text)
    return 0


def cmd_skein(args) -> int:
    if args.target.isdigit():
        order = int(args.target)
        if order > MAX_ORDER_CAP:
            raise UsageError(f"order {order} above the cap {MAX_ORDER_CAP}")
        uni = _universe(order)
        cat = uni.catalog(order)
        groups = collision_groups(uni, order)
        if args.format == "json":
            record = {
                "order": order,
                "polynomials": [
                    {"label": i, "word": cat.word(i), "polynomial": str(skein(cat.term(i)))}
                    for i in range(1, len(cat) + 1)
                ],
                "collisions": [sorted(labels) for labels in groups.values() if len(labels) > 1],
            }
            _emit(args, json.dumps(record))
        else:
            lines = [
                f"{i} {cat.word(i)} {skein(cat.term(i))}" for i in range(1, len(cat) + 1)
            ]
            for labels in groups.values():
                if len(labels) > 1:
                    lines.append(f"collision: labels {' '.join(str(v) for v in labels)}")
            _emit(args, "\n".join(lines))
    else:
        poly = skein(parse_word(args.target))
        if args.format == "json":
            record = {
                "word": args.target,
                "polynomial": str(poly),
                "coefficients": [[s, t, c] for (s, t), c in sorted(poly.coeffs.items(), reverse=True)],
            }
            _emit(args, json.dumps(record))
        else:
            _emit(args, str(poly))
    return 0


def _int_param(value: str, usage: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError(usage) from None


def _count_param(value: str, usage: str) -> int:
    """A nonnegative integer parameter, such as the top index of a sequence."""
    number = _int_param(value, usage)
    if number < 0:
        raise UsageError(usage)
    return number


def cmd_catalan(args) -> int:
    variant = args.variant
    params = args.params
    if variant == "classic":
        top = _count_param(params[0], "usage: catalan classic N") if params else 10
        values = [catalan(n) for n in range(top + 1)]
        payload = {"variant": "classic", "values": values}
    elif variant == "ballot":
        top = _count_param(params[0], "usage: catalan ballot N") if params else 10
        values = [list(ballot_row(n)) for n in range(1, top + 1)]
        payload = {"variant": "ballot", "rows": values}
    elif variant == "general":
        if len(params) != 2:
            raise UsageError("usage: catalan general A N")
        arity = _int_param(params[0], "usage: catalan general A N")
        top = _count_param(params[1], "usage: catalan general A N")
        values = [catalan_general(arity, n) for n in range(top + 1)]
        payload = {"variant": "general", "arity": arity, "values": values}
    elif variant == "mixed":
        if len(params) != 2:
            raise UsageError("usage: catalan mixed A1,A2,... D")
        usage = "usage: catalan mixed A1,A2,... D"
        arities = [_int_param(v, usage) for v in params[0].split(",")]
        degree = _count_param(params[1], usage)
        values = list(series_mixed(arities, degree).coeffs)
        payload = {"variant": "mixed", "arities": arities, "values": values}
    elif variant == "convolution":
        if len(params) != 2:
            raise UsageError("usage: catalan convolution LAMBDA N")
        usage = "usage: catalan convolution LAMBDA N"
        report = convolution_relation_check(_int_param(params[0], usage), _int_param(params[1], usage))
        payload = {
            "variant": "convolution",
            "lam": report.lam,
            "n": report.n,
            "value": report.convolution,
            "relation1_coefficients": list(report.relation1.coefficients),
            "relation2_ok": report.relation2_ok,
            "relation3_ratio": str(report.relation3_ratio),
            "relation3_limit": str(report.relation3_limit),
        }
    else:
        raise UsageError(f"unknown variant {variant!r}")
    if args.format == "json":
        _emit(args, json.dumps(payload))
    elif args.format == "csv":
        if variant == "ballot":
            _emit(args, "\n".join(",".join(str(v) for v in row) for row in payload["rows"]))
        elif "values" in payload:
            _emit(args, "\n".join(f"{n},{v}" for n, v in enumerate(payload["values"])))
        else:
            _emit(args, "\n".join(f"{k},{v}" for k, v in payload.items()))
    else:
        if variant == "ballot":
            _emit(args, "\n".join(" ".join(str(v) for v in row) for row in payload["rows"]))
        elif "values" in payload:
            _emit(args, " ".join(str(v) for v in payload["values"]))
        else:
            _emit(args, "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return 0


def cmd_verify(args) -> int:
    report = verify.run_verify(max_order=args.order, universe=_universe(args.order))
    if args.format == "json":
        _emit(args, json.dumps(verify.report_record(report), indent=2))
    elif args.format == "csv":
        lines = ["id,status"] + [f"{c.id},{c.status}" for c in report.checks]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, verify.report_text(report))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iterforge",
        description="iterates of a binary operation: catalogs, tableaux, "
        "reducibility counts, semantic closures, skein polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list the catalog of one order")
    _order_arg(p, default=4, help="order to list")
    _format_arg(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("tableau", help="print a label grid")
    _order_arg(p, default=4, help="order of the grid")
    p.add_argument("--mode", choices=["A", "B", "AB"], default="A")
    _format_arg(p)
    p.set_defaults(func=cmd_tableau)

    p = sub.add_parser("incidence", help="reducibility matrix of one order")
    _order_arg(p, default=4, help="order of the matrix")
    p.add_argument("--mode", choices=["A", "AB"], default="A")
    _format_arg(p)
    p.set_defaults(func=cmd_incidence)

    p = sub.add_parser("closure", help="equivalence closure from a spec file")
    p.add_argument("specfile", help="file with 'order n' then 'i j' lines")
    _order_arg(p)
    p.add_argument("--mode", choices=["A", "B", "AB"], default="AB")
    p.add_argument("--unicity", action="store_true", help="apply cancellation laws")
    _format_arg(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("classify", help="classify one identity")
    p.add_argument("n", type=int, help="order of the identity")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    _order_arg(p, help="closure bound")
    _format_arg(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("skein", help="skein polynomial of a word, or all of one order")
    p.add_argument("target", help="a prefix word, or an order")
    _format_arg(p)
    p.set_defaults(func=cmd_skein)

    p = sub.add_parser("catalan", help="counting sequences and relations")
    p.add_argument("variant", choices=["classic", "ballot", "general", "mixed", "convolution"])
    p.add_argument("params", nargs="*")
    _format_arg(p)
    p.set_defaults(func=cmd_catalan)

    p = sub.add_parser("verify", help="replay every check against its expected value")
    _order_arg(p, default=9)
    _format_arg(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    order = getattr(args, "order", None)
    if order is not None and not 0 <= order <= MAX_ORDER_CAP:
        parser.error(f"--order must lie in 0..{MAX_ORDER_CAP}")
    try:
        return args.func(args)
    except UsageError as error:
        print(f"iterforge: {error}", file=sys.stderr)
        return 2
    except EngineError as error:
        print(f"iterforge: {error}", file=sys.stderr)
        return 3
    except ValueError as error:
        print(f"iterforge: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
