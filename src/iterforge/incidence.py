"""Formal reducibility of identities between same-order terms.

An identity t = u is formally reducible when both sides carry the same
lower-order subterm at the same variable span; one substitution step sees
this as a shared cherry position, and the root extensions add the two
cases "both right arguments are x" / "both left arguments are x".  Two
labels are related exactly when one line of the tableaux holds both, so
the incidence matrix of one order stores each label's line signature, the
mask of the lines that hold it, and never the S_n^2 entries themselves.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import cached_property, reduce
from math import comb
from operator import or_

from .errors import OrderMismatch
from .tableaux import Universe, t_nk
from .terms import Term, catalan, cherries

MODE_A = "A"
MODE_AB = "AB"


def _check_mode(mode: str) -> str:
    if mode not in (MODE_A, MODE_AB):
        raise ValueError(f"mode must be {MODE_A!r} or {MODE_AB!r}, got {mode!r}")
    return mode


class IncidenceMatrix:
    """Symmetric 0/1 matrix over labels 1..S_n, diagonal included, held as
    line signatures: delta(i, j) = 1 iff the signatures of i and j share a
    line.  Mode A reads the n lines of A_n, mode AB adds the two of B_n.

    Immutable; a plain class, not a tuple, so that it can keep `rows` and
    the row sums, one per signature class."""

    def __init__(self, order: int, mode: str, signatures: Sequence[int]):
        # signatures[i-1]: the lines that hold label i; read only
        vars(self).update(order=order, mode=mode, signatures=signatures)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: an IncidenceMatrix is immutable")

    @property
    def size(self) -> int:
        return len(self.signatures)

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """rows[i-1] bit (j-1) set iff delta(i, j) = 1: a view for rendering."""
        lines = range(max(self.signatures).bit_length())
        holders = [sum(1 << label for label, sig in enumerate(self.signatures) if sig >> k & 1) for k in lines]
        return tuple(reduce(or_, (holders[k] for k in lines if sig >> k & 1), 0) for sig in self.signatures)

    def entry(self, i: int, j: int) -> int:
        return 1 if self.signatures[i - 1] & self.signatures[j - 1] else 0

    @cached_property
    def _row_sums(self) -> dict[int, int]:
        """Per distinct signature, the row sum of each label that has it."""
        counts = Counter(self.signatures)
        return {a: sum(count for b, count in counts.items() if a & b) for a in counts}

    def row_sum(self, i: int) -> int:
        return self._row_sums[self.signatures[i - 1]]

    def total(self) -> int:
        """Ordered reducible pairs, diagonal included."""
        counts = Counter(self.signatures)
        return sum(count_a * count_b for a, count_a in counts.items() for b, count_b in counts.items() if a & b)

    def total_unordered(self) -> int:
        """Unordered off-diagonal reducible pairs."""
        return (self.total() - self.size) // 2


def delta_oracle(t: Term, u: Term, mode: str = MODE_A) -> int:
    """Structural reducibility test, independent of any tableau.

    Mode A: 1 iff the two terms share a cherry position.  Mode AB adds
    1 when both right arguments or both left arguments are the bare leaf.
    """
    _check_mode(mode)
    if t.order != u.order:
        raise OrderMismatch(f"orders differ: {t.order} vs {u.order}")
    if not cherries(t).isdisjoint(cherries(u)):
        return 1
    if mode == MODE_AB:
        if t.right.is_leaf and u.right.is_leaf:
            return 1
        if t.left.is_leaf and u.left.is_leaf:
            return 1
    return 0


def incidence_matrix(universe: Universe, n: int, mode: str = MODE_A) -> IncidenceMatrix:
    """Matrix of all S_n^2 identities, read off the label signatures."""
    _check_mode(mode)
    sigs = universe.signatures(n)
    if mode == MODE_A:
        lines_a = (1 << n) - 1
        sigs = tuple(sig & lines_a for sig in sigs)
    return IncidenceMatrix(n, mode, sigs)


def count_reducible(universe: Universe, n: int, mode: str = MODE_A) -> int:
    """I_n (mode A) or its A+B variant: ordered reducible pairs at order n."""
    return incidence_matrix(universe, n, mode).total()


def i_n_formula(n: int) -> int:
    """Closed form I_n = sum_k (-1)^(k-1) C(n-k+1, k) S_{n-k}^2."""
    if n < 1:
        raise ValueError("order must be >= 1")
    total = 0
    for k in range(1, n + 1):
        c = comb(n - k + 1, k)
        if c == 0:
            break
        total += (-1) ** (k - 1) * c * catalan(n - k) ** 2
    return total


def row_sum_value(n: int, k: int) -> int:
    """Row sum of the mode-A matrix for any label of multiplicity k:
    sum_v (-1)^(v-1) C(k, v) S_{n-v}."""
    if not 1 <= k <= (n + 1) // 2:
        raise ValueError(f"multiplicity {k} impossible at order {n}")
    return sum((-1) ** (v - 1) * comb(k, v) * catalan(n - v) for v in range(1, k + 1))


def t_nk_aplusb(n: int, k: int) -> int:
    """Multiplicity count in the combined A_n + B_n grid:
    T_{n,k} + 2 (T_{n-1,k-1} - T_{n-1,k})."""
    return t_nk(n, k) + 2 * (t_nk(n - 1, k - 1) - t_nk(n - 1, k))


class FrequencyRow(namedtuple(
    "FrequencyRow", "n s_n i_n_matrix i_n_formula ratio one_minus_ratio exp_comparison"
)):
    """One order of `frequency_report`: n, S_n, I_n from the matrix (None past
    the universe) and the formula, I_n / S_n^2 and 1 minus it (Fractions), and
    e^(-n/16).  Unlike `typing.NamedTuple`, a namedtuple loads no `typing`."""

    __slots__ = ()


def frequency_report(n_max: int, universe: Universe | None = None) -> list[FrequencyRow]:
    """Exact reducible-identity frequencies for n = 3..n_max.

    Ratios are exact rationals; the matrix column is filled whenever a
    universe can supply the order, the exponential column is display-only.
    """
    from fractions import Fraction
    if n_max < 3:
        raise ValueError("need n_max >= 3")
    out = []
    for n in range(3, n_max + 1):
        s = catalan(n)
        formula = i_n_formula(n)
        matrix = None
        if universe is not None and n <= universe.max_order:
            matrix = count_reducible(universe, n, MODE_A)
        ratio = Fraction(formula, s * s)
        out.append(
            FrequencyRow(n, s, matrix, formula, ratio, 1 - ratio, math.exp(-n / 16))
        )
    return out

