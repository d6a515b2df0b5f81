"""Canonical labeling of terms per order and the two substitution tableaux.

Level n is built from level n-1 by label arithmetic alone.  Row k of the
substitution grid A_n plants Vxx at leaf k of every (n-1)-term V(L, R) in
label order, where L has order lo: the result is V(A_{lo+1}[k][L], R) when
k <= lo+1, else V(L, A_{ro+1}[k-lo-1][R]), read off grids of lower orders.
Keyed by (left order, left label, right label), the results get labels
1..S_n at first sight in a row-major scan.  Tableau B_n holds the root
extensions V(J, x) and V(x, J): the keys (n-1, J, 1) and (0, 1, J).
A label's signature is the mask of the n+2 lines of A_n and B_n that hold
it; multiplicities, line intersections and incidence are read from it.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import cached_property
from math import comb
from pathlib import Path

from .errors import UnknownLabel
from .terms import LEAF, Term, catalan, render_word

DEFAULT_MAX_ORDER = 9
CONSTRUCTION_VERSION = 1


class Catalog:
    """All terms of one order, listed by label 1..S_n.

    The build stores each label's key and decomposition.  `terms` and
    `words` are a view, decoded from the lower catalogs once, on first use.
    """

    def __init__(self, order: int, index: dict[tuple[int, int, int], int], lower: tuple[Catalog, ...]):
        self.order = order
        self.index = index  # in label order: first sightings hand out the labels
        self.decompositions = tuple((lo, la, order - 1 - lo, rb) for lo, la, rb in index)
        self._lower = lower

    def __len__(self) -> int:
        return len(self.index) if self.order else 1

    def check_label(self, label: int) -> None:
        if not 1 <= label <= len(self):
            raise UnknownLabel(f"label {label} not in catalog of order {self.order}")

    def _decode(self, view: str, leaf, join) -> tuple:
        if self.order == 0:
            return (leaf,)
        parts = [getattr(cat, view) for cat in self._lower]
        return tuple(join(parts[lo][la - 1], parts[ro][rb - 1]) for lo, la, ro, rb in self.decompositions)

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        return self._decode("terms", LEAF, Term)

    @cached_property
    def words(self) -> tuple[str, ...]:
        return self._decode("words", "x", lambda left, right: "V" + left + right)

    @cached_property
    def flank_uses(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
        sides = [[[[] for _ in range(len(cat))] for cat in self._lower] for _ in range(2)]
        for label, (lo, la, ro, rb) in enumerate(self.decompositions, start=1):
            sides[0][lo][la - 1].append(label)
            sides[1][ro][rb - 1].append(label)
        return tuple(tuple(tuple(tuple(users) for users in by_label) for by_label in side) for side in sides)

    def term(self, label: int) -> Term:
        self.check_label(label)
        return self.terms[label - 1]

    def word(self, label: int) -> str:
        self.check_label(label)
        return self.words[label - 1]

    def label_of(self, t: Term) -> int:
        if t.order != self.order:
            raise UnknownLabel(f"term {render_word(t)!r} not of order {self.order}")
        if t.is_leaf:
            return 1
        lower = self._lower
        return self.index[(t.left.order, lower[t.left.order].label_of(t.left), lower[t.right.order].label_of(t.right))]


class CatalogCache:
    """Write-only disk mirror of catalogs: a level's words, in label order,
    are written when its file is absent, and nothing reads them back."""

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get("ITERFORGE_CACHE") or Path.home() / ".cache" / "iterforge"
        self.root = Path(root)

    def _path(self, order: int) -> Path:
        return self.root / f"catalog-v{CONSTRUCTION_VERSION}-{order:02d}.txt"

    def store(self, catalog: Catalog) -> None:
        path = self._path(catalog.order)
        if path.exists():
            return
        self.root.mkdir(parents=True, exist_ok=True)
        header = f"{CONSTRUCTION_VERSION} {catalog.order} {len(catalog)}"
        path.write_text("\n".join([header, *catalog.words]) + "\n")


class Universe:
    """Catalogs and tableaux for orders 0..max_order.

    Levels are built lazily in sequence and never mutated afterwards, so a
    finished universe can be shared read-only by any number of consumers.
    """

    def __init__(self, max_order: int = DEFAULT_MAX_ORDER, cache: CatalogCache | None = None):
        if max_order < 0:
            raise ValueError("max_order must be nonnegative")
        self.max_order = max_order
        self.cache = cache
        self._catalogs: list[Catalog] = [Catalog(0, {}, ())]
        self._tableaux_a: list[tuple[tuple[int, ...], ...]] = [()]
        self._tableaux_b: list[tuple[tuple[int, ...], ...]] = [()]
        self._signatures: dict[int, tuple[int, ...]] = {}

    def ensure(self, order: int) -> None:
        if order > self.max_order:
            raise ValueError(f"order {order} above the configured maximum {self.max_order}")
        while len(self._catalogs) <= order:
            self._build_next_level()

    def _build_next_level(self) -> None:
        n = len(self._catalogs)
        grids = self._tableaux_a
        index: dict[tuple[int, int, int], int] = {}
        rows = []
        for k in range(1, n + 1):
            row = []
            for lo, la, ro, rb in self._catalogs[-1].decompositions:
                if k <= lo + 1:
                    key = (lo + 1, grids[lo + 1][k - 1][la - 1], rb)
                else:
                    key = (lo, la, grids[ro + 1][k - lo - 2][rb - 1])
                row.append(index.setdefault(key, len(index) + 1))
            rows.append(tuple(row))
        if n == 1:  # the leaf does not decompose; Vxx planted at its one leaf is V(x, x)
            index, rows = {(0, 1, 1): 1}, [(1,)]
        columns = range(1, len(self._catalogs[-1]) + 1)
        rows_b = (tuple(index[(n - 1, j, 1)] for j in columns), tuple(index[(0, 1, j)] for j in columns))
        self._catalogs.append(Catalog(n, index, tuple(self._catalogs)))
        self._tableaux_a.append(tuple(rows))
        self._tableaux_b.append(rows_b)
        if self.cache is not None:
            self.cache.store(self._catalogs[n])

    def catalog(self, order: int) -> Catalog:
        self.ensure(order)
        return self._catalogs[order]

    def tableau_a(self, order: int) -> tuple[tuple[int, ...], ...]:
        """The n rows of A_n, each of S_{n-1} labels."""
        if order < 1:
            raise ValueError("tableaux start at order 1")
        self.ensure(order)
        return self._tableaux_a[order]

    def tableau_b(self, order: int) -> tuple[tuple[int, ...], ...]:
        """The two rows of B_n, each of S_{n-1} labels: V(J, x), then V(x, J)."""
        if order < 1:
            raise ValueError("tableaux start at order 1")
        self.ensure(order)
        return self._tableaux_b[order]

    def grid_aplusb(self, order: int) -> tuple[tuple[int, ...], ...]:
        """Rows of A_n followed by the two rows of B_n."""
        return self.tableau_a(order) + self.tableau_b(order)

    def decompositions(self, order: int) -> tuple[tuple[int, int, int, int], ...]:
        """Per label 1..S_n: (left order, left label, right order, right label)."""
        if order < 1:
            raise ValueError("the leaf does not decompose")
        return self.catalog(order).decompositions

    def flank_uses(self, order: int) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
        """Inverse of decompositions(order), one part per side: part[k][x-1]
        holds the labels of this order whose left (part 0) or right (part 1)
        flank is label x of order k."""
        if order < 1:
            raise ValueError("the leaf does not decompose")
        return self.catalog(order).flank_uses

    # -- counting ----------------------------------------------------------

    def signatures(self, order: int) -> tuple[int, ...]:
        """Entry i-1: the lines of grid_aplusb(order) that hold label i, as a
        mask (bit k-1 for row k of A_n, bits n and n+1 for the rows of B_n);
        read in one pass, once per order."""
        sigs = self._signatures.get(order)
        if sigs is None:
            masks = [0] * len(self.catalog(order))
            for bit, line in enumerate(self.grid_aplusb(order)):
                for label in line:
                    masks[label - 1] |= 1 << bit
            sigs = self._signatures[order] = tuple(masks)
        return sigs

    def _a_signatures(self, order: int):
        lines_a = (1 << order) - 1
        return (sig & lines_a for sig in self.signatures(order))

    def multiplicity(self, order: int, label: int) -> int:
        """Number of occurrences of a label in tableau A_n."""
        self.catalog(order).check_label(label)
        return (self.signatures(order)[label - 1] & ((1 << order) - 1)).bit_count()

    def multiplicity_histogram(self, order: int) -> dict[int, int]:
        """Map multiplicity k -> number of labels occurring k times in A_n."""
        return dict(Counter(sig.bit_count() for sig in self._a_signatures(order)))

    def line_intersection_card(self, order: int, lines) -> int:
        """Cardinality of the intersection of the given lines of A_n."""
        chosen = set(lines)
        if not chosen:
            raise ValueError("need at least one line index")
        sigs = self.signatures(order)
        if any(not 1 <= k <= order for k in chosen):
            raise IndexError(f"line indices must lie in 1..{order}")
        mask = sum(1 << (k - 1) for k in chosen)
        return sum(1 for sig in sigs if sig & mask == mask)

    def fresh_label_counts(self, order: int) -> tuple[int, ...]:
        """Per line of A_n, how many labels make their first appearance there."""
        counts = [0] * order
        for sig in self._a_signatures(order):
            counts[(sig & -sig).bit_length() - 1] += 1
        return tuple(counts)


def line_intersection_formula(n: int, lines) -> int:
    """Case formula for line intersections of A_n.

    S_{n-1} for a single line, 0 when two chosen indices are adjacent,
    S_{n-k} for k pairwise non-adjacent distinct lines.
    """
    chosen = sorted(set(lines))
    if not chosen:
        raise ValueError("need at least one line index")
    k = len(chosen)
    if k == 1:
        return catalan(n - 1)
    if any(b - a == 1 for a, b in zip(chosen, chosen[1:])):
        return 0
    return catalan(n - k)


def t_nk(n: int, k: int) -> int:
    """Count of labels with multiplicity k in A_n: 2^(n-2k+1) C(n-1, 2k-2) S_{k-1}.

    Zero outside 1 <= k <= (n+1)/2, so sums over k may run freely.
    """
    if k < 1 or n < 1 or 2 * k - 2 > n - 1:
        return 0
    return 2 ** (n - 2 * k + 1) * comb(n - 1, 2 * k - 2) * catalan(k - 1)


def multiplicity_sum_identity(n: int, k: int) -> tuple[int, int]:
    """Both sides of the surmised identity
    sum_v C(k+v, k) T_{n,k+v} = C(n-k+1, k) S_{n-k}."""
    lhs = sum(comb(k + v, k) * t_nk(n, k + v) for v in range((n + 1) // 2 - k + 1))
    rhs = comb(n - k + 1, k) * catalan(n - k)
    return lhs, rhs

