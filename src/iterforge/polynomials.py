"""Skein polynomials of labels and terms, their collision statistics, and
exact generating-series arithmetic for the Catalan generalizations.

The skein polynomial tracks, per variable, how often it sits in first
or second argument position along its path to the root: the variable
contributes the monomial a^s b^t.  Building V(J, J') multiplies J's
polynomial by a and J''s by b and adds (`SkeinPoly.join`), starting from 1
at the leaf.

`skein_table` folds that build-up over the universe's rank blocks
(`Universe.fold`) into one table of packed ints.  Through order N a
coefficient takes K bits, 2^K > N + 1, and that of a^s b^t sits at bit
K*(s*(N + 1) + t); an order-n polynomial has n + 1 leaves and total
exponent at most n, so no digit carries, the join is a shift and an add,
and two ints of one table are equal exactly when their polynomials are.
`collision_groups` and `np_recursion_check` read its levels as they are;
`skein_levels` is the `SkeinPoly` view of it.  `skein` and `skein_q` take
one `Term`, for words beyond the universe and as oracles.

The records are `collections.namedtuple` subclasses, which load no module:
`typing.NamedTuple` would load `typing` into every `catalan` and `skein`
command.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain
from math import comb

from .errors import BadArity, IllFoundedRecursion, NonIntegralTerm
from .terms import Term, ballot_row, catalan


class SkeinPoly:
    """Sparse two-variable integer polynomial keyed by exponent pair (s, t)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v != 0}

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkeinPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: SkeinPoly) -> SkeinPoly:
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return SkeinPoly(out)

    def __sub__(self, other: SkeinPoly) -> SkeinPoly:
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) - v
        return SkeinPoly(out)

    @staticmethod
    def join(left: SkeinPoly, right: SkeinPoly) -> SkeinPoly:
        """a*left + b*right, the polynomial of V(L, R); cancelled terms drop."""
        out = {(s + 1, t): c for (s, t), c in left.coeffs.items()}
        for (s, t), c in right.coeffs.items():
            out[s, t + 1] = out.get((s, t + 1), 0) + c
        return SkeinPoly(out)

    def evaluate(self, a, b):
        return sum(c * a**s * b**t for (s, t), c in self.coeffs.items())

    def substitute_b_complement(self) -> tuple[int, ...]:
        """Coefficients in a of the polynomial after setting b := 1 - a."""
        return b_complement((s, t, c) for (s, t), c in self.coeffs.items())

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (s, t), c in sorted(self.coeffs.items(), reverse=True):
            factors = []
            if abs(c) != 1 or (s == 0 and t == 0):
                factors.append(str(abs(c)))
            if s:
                factors.append("a" if s == 1 else f"a^{s}")
            if t:
                factors.append("b" if t == 1 else f"b^{t}")
            text = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + text if parts else ("-" if c < 0 else "") + text)
        return " ".join(parts)

    __repr__ = __str__


def b_complement(digits) -> tuple[int, ...]:
    """Coefficients in a, trailing zeros dropped, of the sum of c * a^s * b^t
    over the (s, t, c) `digits` after setting b := 1 - a: the term
    c * a^s * (1 - a)^t adds c * (-1)^i * C(t, i) to a^(s+i)."""
    out, top = [0], 0  # out holds a^0..a^top
    for s, t, c in digits:
        if s + t > top:
            out += [0] * (s + t - top)
            top = s + t
        for w in _signed_binomials(t):
            out[s] += c * w
            s += 1
    while top and not out[top]:
        top -= 1
    return tuple(out[: top + 1])


@lru_cache(maxsize=None)
def _signed_binomials(t: int) -> tuple[int, ...]:
    """(-1)^i * C(t, i) for i = 0..t, each from the one before by the ratio
    -(t - i)/(i + 1), exactly."""
    row = [1]
    for i in range(t):
        row.append(-row[-1] * (t - i) // (i + 1))
    return tuple(row)


_ONE = SkeinPoly({(0, 0): 1})
_ZERO = SkeinPoly()


def skein(t: Term) -> SkeinPoly:
    """P(t): 1 at the leaf, a*P(left) + b*P(right) at a node."""
    if t.is_leaf:
        return _ONE
    return SkeinPoly.join(skein(t.left), skein(t.right))


def skein_q(t: Term) -> SkeinPoly:
    """Q(t): 0 at the leaf, a*Q(left) + b*Q(right) + 1 at a node.

    Satisfies (a + b - 1) Q + 1 = P identically.
    """
    if t.is_leaf:
        return _ZERO
    return SkeinPoly.join(skein_q(t.left), skein_q(t.right)) + _ONE


class SkeinTable(namedtuple("SkeinTable", "levels bits stride")):
    """Per order 0..N, the packed skein polynomial of every label, in label
    order: K = `bits` bits per coefficient and a stride D = `stride` = N + 1,
    the coefficient of a^s b^t at bit K*(s*D + t)."""

    __slots__ = ()

    def pack(self, poly: SkeinPoly) -> int:
        """The int of `poly`, whose exponents and coefficients must fit this table."""
        k, d = self.bits, self.stride
        if any(not (0 <= s < d and 0 <= t < d and 0 < c < 1 << k) for (s, t), c in poly.coeffs.items()):
            raise ValueError(f"{poly} does not fit a skein table through order {d - 1}")
        return sum(c << k * (s * d + t) for (s, t), c in poly.coeffs.items())

    def digits(self, x: int) -> Iterator[tuple[int, int, int]]:
        """The nonzero digits of one int of this table, lowest first: (s, t, c)
        for the coefficient c of a^s b^t, read one power of a at a time."""
        k, width = self.bits, self.bits * self.stride
        mask, row_mask = (1 << k) - 1, (1 << width) - 1
        s = 0
        while x:
            row, t = x & row_mask, 0
            while row:
                if c := row & mask:
                    yield s, t, c
                row >>= k
                t += 1
            x >>= width
            s += 1

    def unpack(self, x: int) -> SkeinPoly:
        """The polynomial of one int of this table, from its `digits`."""
        return SkeinPoly({(s, t): c for s, t, c in self.digits(x)})

    def join(self, left: int, right: int) -> int:
        """a*left + b*right, as `SkeinPoly.join` on the unpacked polynomials."""
        return (left << self.bits * self.stride) + (right << self.bits)


def skein_table(universe: Universe, n: int) -> SkeinTable:
    """The packed skein polynomials of every label of orders 0..n, one
    `Universe.fold` over the rank blocks with each flank shifted once."""
    k, d = (n + 1).bit_length(), n + 1

    def block(lo: int, ro: int, left, right) -> list[int]:
        lefts, rights = [x << k * d for x in left], [y << k for y in right]
        return [x + y for x in lefts for y in rights]

    return SkeinTable(tuple(universe.fold(n, (1,), block)), k, d)


def skein_levels(universe: Universe, n: int) -> tuple[tuple[SkeinPoly, ...], ...]:
    """Per order 0..n, the skein polynomial of every label, in label order:
    the view of `skein_table`, each distinct int of a level unpacked once."""
    table = skein_table(universe, n)
    levels = []
    for level in table.levels:
        polys = {x: table.unpack(x) for x in set(level)}
        levels.append(tuple(map(polys.__getitem__, level)))
    return tuple(levels)


def collision_groups(polys) -> dict:
    """Partition one level's labels by polynomial, in order of first sight.

    The level is a `skein_levels` level (`SkeinPoly` keys) or a
    `skein_table` level (int keys); any hashable values group.  The group
    size of P is the collision count N_P; most groups are singletons, the
    first collision appearing at order 4.
    """
    groups: dict = {}
    for label, poly in enumerate(polys, start=1):
        groups.setdefault(poly, []).append(label)
    return {p: tuple(labels) for p, labels in groups.items()}


def np_recursion_check(levels, join=SkeinPoly.join) -> bool:
    """Verify N_P = sum over splits a*P_kappa + b*P_lambda = P of
    N_kappa * N_lambda at every order n >= 1 of a table of levels,
    convolving the counts of orders p and n-1-p.  `join` builds a*L + b*R:
    `SkeinPoly.join` for `skein_levels`, a `SkeinTable.join` for its ints."""
    if len(levels) < 2:
        raise ValueError("need a table through order >= 1")
    counts = [Counter(level) for level in levels]
    for n in range(1, len(counts)):
        predicted = Counter()
        for p in range(n):
            for lp, lcount in counts[p].items():
                for rp, rcount in counts[n - 1 - p].items():
                    predicted[join(lp, rp)] += lcount * rcount
        if predicted != counts[n]:
            return False
    return True


# -- truncated power series -------------------------------------------------


class PowerSeries:
    """Integer power series truncated at a fixed degree; arithmetic exact.

    Immutable; a plain class, not a tuple, since its `+`, `*` and `[]` are
    series arithmetic."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: a PowerSeries is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PowerSeries(coeffs={self.coeffs!r})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def constant(value: int, degree: int) -> PowerSeries:
        return PowerSeries((value,) + (0,) * degree)

    def __add__(self, other: PowerSeries) -> PowerSeries:
        return PowerSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: PowerSeries) -> PowerSeries:
        """The product, truncated at the smaller degree, as `+` is."""
        d = min(self.degree, other.degree)
        out = [0] * (d + 1)
        for i, a in enumerate(self.coeffs[: d + 1]):
            if a == 0:
                continue
            for j in range(d + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return PowerSeries(tuple(out))

    def shift(self, k: int = 1) -> PowerSeries:
        """Multiply by t^k, k >= 0, keeping the degree."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        return PowerSeries(((0,) * min(k, len(self.coeffs)) + self.coeffs)[: len(self.coeffs)])

    def power(self, e: int) -> PowerSeries:
        """The e-th power, e >= 0, truncated at this degree."""
        if e < 0:
            raise ValueError("e must be nonnegative")
        result = self if e else PowerSeries.constant(1, self.degree)
        for _ in range(e - 1):
            result = result * self
        return result

    def __getitem__(self, n: int) -> int:
        return self.coeffs[n]


def _check_arities(arities) -> None:
    if not arities:
        raise BadArity("need at least one arity")
    for a in arities:
        if not isinstance(a, int) or a < 2:
            raise BadArity(f"arity {a!r} is not an integer >= 2")


def series_mixed(arities, degree: int) -> PowerSeries:
    """Counting series for trees whose nodes draw arities from a multiset.

    Solves phi = 1 + t * sum(phi^a for a in arities) by fixpoint
    iteration, which settles one further coefficient per round.  Each round
    builds phi^2, ..., phi^max(arities) once and adds each power as often
    as its arity occurs.
    """
    _check_arities(arities)
    weights = [0] * (max(arities) + 1)
    for a in arities:
        weights[a] += 1
    one = PowerSeries.constant(1, degree)
    phi = one
    for _ in range(degree + 1):
        total = PowerSeries.constant(0, degree)
        power = phi
        for weight in weights[2:]:
            power = power * phi
            for _ in range(weight):
                total = total + power
        phi = one + total.shift(1)
    return phi


def catalan_general(a: int, n: int) -> int:
    """Closed-form tree count for a single arity a:
    comb(a*n, n) / ((a-1)*n + 1)."""
    _check_arities((a,))
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(a * n, n) // ((a - 1) * n + 1)


def catalan_general_sequence(a: int, top: int) -> list[int]:
    """catalan_general(a, n) for n = 0..top, each term from the one before:
    C(n+1) = C(n) * (an+1)...(an+a) / ((n+1) * ((a-1)n+2)...((a-1)n+a))."""
    _check_arities((a,))
    if top < 0:
        raise ValueError("top must be nonnegative")
    terms = [1]
    for n in range(top):
        num = den = 1
        for i in range(1, a + 1):
            num *= a * n + i
        for j in range(2, a + 1):
            den *= (a - 1) * n + j
        terms.append(terms[-1] * num // ((n + 1) * den))
    return terms


def op_symbol(index: int) -> str:
    """The one-character symbol of operation `index` in a tree word:
    A..Z for the first 26 operations, then U+011A onwards, never "x"."""
    return chr(0x41 + index) if index < 26 else chr(0x100 + index)


def enumerate_trees_mixed(arities: tuple[int, ...], n: int) -> Iterator[str]:
    """Explicitly build every arity-multiset tree with n internal nodes.

    Trees are prefix words: a node is the symbol op_symbol(i) of its
    operation arities[i] followed by its children's words, a leaf is "x".
    They are built one by one, never from the series or the counts, so
    this is an independent counting oracle.  Returns an iterator over level
    n in strictly increasing code-point order; level n is never held.

    A prefix's completions depend only on its open slots and operations
    left.  Trying the next symbol in code-point order ("x" included; the
    symbols from index 26 on lie above it) and concatenating the completions
    yields sorted words, with no sort or merge.  The cells with at most _CELL
    completions are built as sorted lists before this returns, so bad input
    raises at the call; `_walk` descends through the larger cells.
    """
    _check_arities(arities)
    if n < 0:
        raise ValueError("n must be nonnegative")
    # (symbol, change in open slots, operations spent), in symbol order
    moves = sorted([(op_symbol(i), a - 1, 1) for i, a in enumerate(arities)] + [("x", -1, 0)])
    # cells[k][s]: the sorted completions of s open slots spending k operations; None past _CELL
    cells = []
    for k in range(n + 1):
        cells.append(row := [[] if k else [""]])
        for s in range(1, 2 + (max(arities) - 1) * (n - k)):
            tails = [(symbol, cells[k - cost][s + grow]) for symbol, grow, cost in moves if cost <= k]
            if any(tail is None for _, tail in tails) or sum(len(tail) for _, tail in tails) > _CELL:
                row.append(None)
            else:
                row.append([symbol + w for symbol, tail in tails for w in tail])
    return chain.from_iterable(_walk(cells, moves, "", 1, n))


_CELL = 1024  # the most completions a cell holds as one list


def _walk(cells, moves, prefix: str, slots: int, budget: int) -> Iterator[list[str]]:
    """The completions of prefix, which has `slots` open slots and `budget`
    operations left, in increasing order and in lists of at most _CELL
    words.  A module-level generator, not a closure over itself, so no
    reference cycle keeps the cells alive once the walk is dropped."""
    for symbol, grow, cost in moves:
        if cost > budget:
            continue
        head, cell = prefix + symbol, cells[budget - cost][slots + grow]
        if cell is None:
            yield from _walk(cells, moves, head, slots + grow, budget - cost)
        elif cell:
            yield [head + w for w in cell]


# -- counting sequences relative to a homomorphism law -----------------------


def catalan_relative(law, base: dict[int, int], degree: int) -> list[int]:
    """Sequence from the recursion S_n = sum over law(s, t) = n of S_s * S_t.

    `law` is an integer-valued function of two nonnegative integers; `base`
    pins the seeded values.  Lattice solutions are scanned out to twice the
    requested degree so that a contributing point with s >= n or t >= n is
    caught and rejected as ill-founded instead of silently dropped.
    """
    scan = 2 * degree + 2
    values: list[int] = []
    for n in range(degree + 1):
        if n in base:
            values.append(base[n])
            continue
        total = 0
        for s in range(scan + 1):
            for t in range(scan + 1):
                if law(s, t) != n:
                    continue
                if s >= n or t >= n:
                    raise IllFoundedRecursion(
                        f"law({s}, {t}) = {n} depends on order {max(s, t)} >= {n}"
                    )
                total += values[s] * values[t]
        values.append(total)
    return values


class RecurrenceTerm(namedtuple("RecurrenceTerm", "n value integral")):
    """One term of a weighted recurrence: n, its exact value (a Fraction) and
    whether that value is an integer."""

    __slots__ = ()


def weighted_recurrence(
    k: int, l: int, initial, degree: int, strict: bool = True
) -> list[RecurrenceTerm]:
    """Sequence with (n + l) S_n = sum_{s+t=n-k} S_s S_t for n >= k.

    With strict=True a non-integer term raises NonIntegralTerm; otherwise
    the sequence continues with exact fractions and flags each term.
    """
    from fractions import Fraction
    if k < 1 or l < 1:
        raise ValueError("need k >= 1 and l >= 1")
    if len(initial) != k:
        raise ValueError(f"need exactly {k} initial values")
    if degree < k:
        raise ValueError("degree must be >= k")
    values: list[Fraction] = [Fraction(v) for v in initial]
    terms = [RecurrenceTerm(n, values[n], True) for n in range(k)]
    for n in range(k, degree + 1):
        conv = sum((values[s] * values[n - k - s] for s in range(n - k + 1)), Fraction(0))
        value = conv / (n + l)
        integral = value.denominator == 1
        if strict and not integral:
            raise NonIntegralTerm(n, conv, n + l)
        values.append(value)
        terms.append(RecurrenceTerm(n, value, integral))
    return terms


# -- convolution relations ---------------------------------------------------


def catalan_convolution(lam: int, n: int) -> int:
    """C(lam, n) = sum over i_1+...+i_{lam+1} = n-lam of S_{i_1}...S_{i_{lam+1}},
    computed as a coefficient of the (lam+1)-th power of the Catalan series."""
    if lam < 1:
        raise ValueError("lam must be >= 1")
    if n < lam:
        return 0
    degree = n - lam
    phi = PowerSeries(tuple(catalan(i) for i in range(degree + 1)))
    return phi.power(lam + 1)[degree]


def relation1_coefficients(lam: int) -> tuple[int, ...]:
    """The coefficients d_j = C(lam - j, j), j = 0..[lam/2], of relation 1:
    C(lam, n) = sum_j (-1)^j d_j S_{n-j} for every n >= lam.  C(lam, n) is
    entry (n, n - lam) of Catalan's triangle, OEIS A009766 (Flajolet and
    Sedgewick, Analytic Combinatorics, ch. I and III).

    Proof.  Let c be the Catalan series, so c = 1 + t c^2, and u = t c.  Then
    u^2 = u - t, so u^lam = P_lam + Q_lam u with polynomials P, Q in t
    (P_0 = 1, Q_0 = 0, P_{lam+1} = -t Q_lam, Q_{lam+1} = P_lam + Q_lam), and
    u c = c - 1.  Hence t^lam c^(lam+1) = u^lam c = R_lam c - Q_lam, where
    R_lam = P_lam + Q_lam satisfies R_{lam+1} = R_lam - t R_{lam-1} with
    R_0 = R_1 = 1, so R_lam = sum_j (-1)^j C(lam - j, j) t^j by Pascal's rule
    C(lam + 1 - j, j) = C(lam - j, j) + C(lam - j, j - 1).  Q_lam = R_{lam-1}
    has degree below lam, so for n >= lam the coefficient of t^n gives
    C(lam, n) = [t^(n-lam)] c^(lam+1) = sum_j (-1)^j C(lam - j, j) S_{n-j}.
    `catalan_convolution` is the independent route the tests and `verify`
    compare this with.
    """
    return tuple(comb(lam - j, j) for j in range(lam // 2 + 1))


def _relation2(lam: int, n_max: int) -> tuple[bool, int]:
    """Relation 2 for lam <= n <= n_max, and C(lam, n_max), from one list of powers."""
    row = ballot_row(lam)
    degree = n_max - lam
    phi = PowerSeries(tuple(catalan(i) for i in range(degree + 1)))
    powers = [phi * phi]  # phi^2 .. phi^(lam+1), one multiplication apart
    while len(powers) < lam:
        powers.append(powers[-1] * phi)
    for n in range(lam, n_max + 1):
        total = sum(row[j - 1] * powers[j - 1][n - lam] for j in range(1, lam + 1))
        if total != catalan(n):
            return False, powers[-1][degree]
    return True, powers[-1][degree]


def relation2_check(lam: int, n_max: int) -> bool:
    """S_n = sum_{j=1..lam} c_{lam,j} * [t^(n-lam)] phi^(j+1) for lam <= n <= n_max."""
    return _relation2(lam, n_max)[0]


def relation3_estimate(lam: int, n: int) -> tuple[Fraction, Fraction]:
    """(C(lam, n)/S_n, (lam+1)/2^lam): the convolution ratio and its limit."""
    from fractions import Fraction
    ratio = Fraction(catalan_convolution(lam, n), catalan(n))
    return ratio, Fraction(lam + 1, 2**lam)


class ConvolutionReport(namedtuple(
    "ConvolutionReport", "lam n convolution relation1 relation2_ok relation3_ratio relation3_limit"
)):
    """The three convolution relations at (lam, n): C(lam, n); relation 1's
    coefficients (`relation1_coefficients`); whether relation 2's expansion
    is exact up to n; and relation 3's ratio C(lam, n)/S_n with its limit
    (Fractions)."""

    __slots__ = ()

    @property
    def relation3_relative_error(self) -> float:
        return abs(float(self.relation3_ratio / self.relation3_limit) - 1.0)


def convolution_relation_check(lam: int, n: int) -> ConvolutionReport:
    """Bundle the three convolution relations at (lam, n)."""
    from fractions import Fraction
    if not 1 <= lam <= n:
        raise ValueError("need 1 <= lam <= n")
    holds, value = _relation2(lam, n)
    return ConvolutionReport(
        lam, n, value, relation1_coefficients(lam), holds,
        Fraction(value, catalan(n)), Fraction(lam + 1, 2**lam),
    )
