"""Command-line front end.

Each subcommand parses its arguments, calls the library for its result and
hands that result to `render`, the one module that turns results into
text, JSON or CSV; `_emit` prints the string or writes it to `--out`.
A command imports only the engine modules it uses: `terms` loads with this
module, `tableaux` with the first universe a command builds, and each
command imports what it needs from `incidence`, `semantics`,
`polynomials` or `verify` inside its function, so a cold process does not
compile the modules its command never runs.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain
error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import render
from .errors import EngineError
from .terms import ballot_row, parse_word


class UsageError(Exception):
    """Malformed command arguments; exits with code 2."""


MAX_ORDER_CAP = 9
MAX_WORD_ORDER = 400  # skein and skein_q recurse once per V


def _universe(order: int):
    from .tableaux import CatalogCache, Universe

    return Universe(max(order, 1), cache=CatalogCache())


def _emit(args, text: str) -> None:
    if not args.out:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader left early: send what is still buffered nowhere, so
            # that the interpreter's final flush stays quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    except OSError as error:
        raise EngineError(f"{args.out}: cannot write output: {error.strerror}") from None


def _order_arg(parser, default=7, help="maximum order (cap 9)"):
    parser.add_argument("--order", type=int, default=default, help=help)


def _format_arg(parser, formats=render.FORMATS):
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--out", default=None, help="write output to a file")


def cmd_enumerate(args) -> int:
    uni = _universe(args.order)
    _emit(args, render.catalog(uni.catalog(args.order), args.format))
    return 0


def _tableau_rows(uni, order, which):
    if which == "A":
        return uni.tableau_a(order)
    if which == "B":
        return uni.tableau_b(order)
    return uni.grid_aplusb(order)


def cmd_tableau(args) -> int:
    uni = _universe(args.order)
    rows = _tableau_rows(uni, args.order, args.mode)
    _emit(args, render.tableau(args.order, args.mode, rows, args.format))
    return 0


def cmd_incidence(args) -> int:
    from .incidence import incidence_matrix

    uni = _universe(args.order)
    _emit(args, render.incidence(incidence_matrix(uni, args.order, args.mode), args.format))
    return 0


def read_spec_file(path: str):
    """Spec file: a line "order n", then one "i j" line per identity pair.

    Returns an `IdentitySpec`.  A file that cannot be read is a domain
    error.  A malformed file is a usage error, and the message names the
    file and the line.
    """
    from .semantics import IdentitySpec

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
    from .semantics import ClosureConfig, close

    spec = read_spec_file(args.specfile)
    uni = _universe(args.order)
    state = close(spec, ClosureConfig(args.order, args.mode, args.unicity), uni)
    _emit(args, render.closure(state, args.format))
    return 0


def cmd_classify(args) -> int:
    from .semantics import classify_identity

    uni = _universe(args.order)
    pair = (args.i, args.j)
    _emit(args, render.verdict(args.n, pair, classify_identity(uni, args.n, pair, args.order), args.format))
    return 0


def cmd_skein(args) -> int:
    from .polynomials import collision_groups, skein, skein_table

    if args.target.isascii() and args.target.isdigit():
        order = int(args.target)
        if order > MAX_ORDER_CAP:
            raise UsageError(f"order {order} above the cap {MAX_ORDER_CAP}")
        uni = _universe(order)
        table = skein_table(uni, order)
        groups = collision_groups(table.levels[order])
        polys = {x: table.unpack(x) for x in groups}
        _emit(args, render.skein_table(uni.catalog(order), polys, groups, args.format))
    elif args.target.count("V") > MAX_WORD_ORDER:
        raise UsageError(f"usage: skein WORD (order of WORD <= {MAX_WORD_ORDER})")
    else:
        _emit(args, render.skein_word(args.target, skein(parse_word(args.target)), args.format))
    return 0


def _int_param(value: str, usage: str, cap: int) -> int:
    """An integer parameter; one above the cap is a usage error."""
    try:
        number = int(value)
    except ValueError:
        raise UsageError(usage) from None
    if number > cap:
        raise UsageError(usage)
    return number


# per variant: the parameters, the cap on the first one where it is an arity
# or lambda, and the cap on the size (the last one); the caps keep the command
# at about 1 s (convolution is slowest near LAMBDA = N/4)
CATALAN_PARAMS = {
    "classic": ("N", None, 2000),
    "ballot": ("N", None, 350),
    "general": ("A N", 20, 2000),
    "mixed": ("A1,A2,... D", 4, 100),
    "convolution": ("LAMBDA N", 300, 300),
}
MAX_MIXED_ARITIES = 3


def _catalan_usage(variant: str) -> str:
    shape, first_cap, cap = CATALAN_PARAMS[variant]
    names = shape.split()
    limits = [f"{names[-1]} <= {cap}"]
    if variant == "mixed":
        limits.insert(0, f"at most {MAX_MIXED_ARITIES} arities, each <= {first_cap}")
    elif first_cap is not None:
        limits.insert(0, f"{names[0]} <= {first_cap}")
    return f"usage: catalan {variant} {shape} ({', '.join(limits)})"


def cmd_catalan(args) -> int:
    from .polynomials import catalan_general_sequence, convolution_relation_check, series_mixed

    variant, fmt = args.variant, args.format
    shape, first_cap, cap = CATALAN_PARAMS[variant]
    usage = _catalan_usage(variant)
    params = args.params or (["10"] if shape == "N" else [])
    if len(params) != len(shape.split()):
        raise UsageError(usage)
    top = _int_param(params[-1], usage, cap)
    if top < 0:
        raise UsageError(usage)
    if variant == "classic":
        text = render.sequence("classic", catalan_general_sequence(2, top), fmt)
    elif variant == "ballot":
        text = render.ballot_rows([list(ballot_row(n)) for n in range(1, top + 1)], fmt)
    elif variant == "general":
        arity = _int_param(params[0], usage, first_cap)
        text = render.sequence("general", catalan_general_sequence(arity, top), fmt, arity=arity)
    elif variant == "mixed":
        arities = [_int_param(v, usage, first_cap) for v in params[0].split(",")]
        if len(arities) > MAX_MIXED_ARITIES:
            raise UsageError(usage)
        text = render.sequence("mixed", list(series_mixed(arities, top).coeffs), fmt, arities=arities)
    else:
        text = render.convolution(convolution_relation_check(_int_param(params[0], usage, first_cap), top), fmt)
    _emit(args, text)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verify

    report = run_verify(max_order=args.order, universe=_universe(args.order))
    _emit(args, render.verify_report(report, args.format))
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
    _format_arg(p, ("text", "json"))
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("skein", help="skein polynomial of a word, or all of one order")
    p.add_argument("target", help="a prefix word, or an order")
    _format_arg(p, ("text", "json"))
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
