"""Canonical labeling of terms per order and the two substitution tableaux.

Level n is built from level n-1: writing the (n-1)-catalog in label order,
row k of the substitution grid holds the result of planting Vxx at leaf
position k of every column term.  Scanning the grid row-major and handing
out fresh labels at first sight yields the order-n catalog; that grid of
labels is tableau A_n.  Tableau B_n labels the two root extensions
V(J, x) and V(x, J) of every (n-1)-term J with the same catalog.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import comb
from pathlib import Path

from .errors import UnknownLabel
from .terms import LEAF, Term, catalan, parse_word, render_word, substitute_cherry

DEFAULT_MAX_ORDER = 9
CONSTRUCTION_VERSION = 1


class Catalog:
    """All terms of one order, listed by label 1..S_n."""

    __slots__ = ("order", "terms", "index")

    def __init__(self, order: int, terms: list[Term]):
        self.order = order
        self.terms = tuple(terms)
        self.index = {t: i + 1 for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)

    def term(self, label: int) -> Term:
        if not 1 <= label <= len(self.terms):
            raise UnknownLabel(f"label {label} not in catalog of order {self.order}")
        return self.terms[label - 1]

    def word(self, label: int) -> str:
        return render_word(self.term(label))

    def label_of(self, t: Term) -> int:
        label = self.index.get(t)
        if label is None:
            raise UnknownLabel(f"term {render_word(t)!r} not of order {self.order}")
        return label


@dataclass(frozen=True)
class TableauA:
    order: int
    rows: tuple[tuple[int, ...], ...]  # n rows of S_{n-1} labels


@dataclass(frozen=True)
class TableauB:
    order: int
    rows: tuple[tuple[int, ...], ...]  # 2 rows of S_{n-1} labels


class CatalogCache:
    """Disk cache of catalogs, keyed by order and construction version."""

    def __init__(self, root: str | Path | None = None):
        if root is None:
            root = os.environ.get("ITERFORGE_CACHE")
        if root is None:
            root = Path.home() / ".cache" / "iterforge"
        self.root = Path(root)

    def _path(self, order: int) -> Path:
        return self.root / f"catalog-v{CONSTRUCTION_VERSION}-{order:02d}.txt"

    def load(self, order: int) -> list[str] | None:
        path = self._path(order)
        if not path.is_file():
            return None
        lines = path.read_text().splitlines()
        if not lines or lines[0] != f"{CONSTRUCTION_VERSION} {order} {len(lines) - 1}":
            return None
        words = lines[1:]
        if len(words) != catalan(order):
            return None
        return words

    def store(self, order: int, words: list[str]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        header = f"{CONSTRUCTION_VERSION} {order} {len(words)}"
        self._path(order).write_text("\n".join([header, *words]) + "\n")


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
        self._catalogs: list[Catalog] = [Catalog(0, [LEAF])]
        self._tableaux_a: list[TableauA | None] = [None]
        self._tableaux_b: list[TableauB | None] = [None]
        self._decompositions: list[tuple[tuple[int, int, int, int], ...] | None] = [None]
        self._flank_uses: list[tuple[tuple[tuple[tuple[int, ...], ...], ...], ...] | None] = [None]

    def ensure(self, order: int) -> None:
        if order > self.max_order:
            raise ValueError(f"order {order} above the configured maximum {self.max_order}")
        while len(self._catalogs) <= order:
            self._build_next_level()

    def _build_next_level(self) -> None:
        prev = self._catalogs[-1]
        n = prev.order + 1
        cached = self.cache.load(n) if self.cache is not None else None
        if cached is not None:
            catalog = Catalog(n, [parse_word(w) for w in cached])
            rows = []
            for k in range(1, n + 1):
                rows.append(tuple(catalog.label_of(substitute_cherry(t, k)) for t in prev.terms))
            tab_a = TableauA(n, tuple(rows))
        else:
            terms: list[Term] = []
            index: dict[Term, int] = {}
            rows = []
            for k in range(1, n + 1):
                row = []
                for t in prev.terms:
                    u = substitute_cherry(t, k)
                    label = index.get(u)
                    if label is None:
                        terms.append(u)
                        label = len(terms)
                        index[u] = label
                    row.append(label)
                rows.append(tuple(row))
            catalog = Catalog(n, terms)
            tab_a = TableauA(n, tuple(rows))
            if self.cache is not None:
                self.cache.store(n, [render_word(t) for t in terms])
        row_left = tuple(catalog.label_of(Term(t, LEAF)) for t in prev.terms)
        row_right = tuple(catalog.label_of(Term(LEAF, t)) for t in prev.terms)
        self._catalogs.append(catalog)
        self._tableaux_a.append(tab_a)
        self._tableaux_b.append(TableauB(n, (row_left, row_right)))
        self._decompositions.append(None)
        self._flank_uses.append(None)

    def build(self, order: int) -> tuple[Catalog, TableauA]:
        """Catalog and substitution grid of one order, constructing as needed."""
        return self.catalog(order), self.tableau_a(order)

    def catalog(self, order: int) -> Catalog:
        self.ensure(order)
        return self._catalogs[order]

    def tableau_a(self, order: int) -> TableauA:
        if order < 1:
            raise ValueError("tableaux start at order 1")
        self.ensure(order)
        return self._tableaux_a[order]

    def tableau_b(self, order: int) -> TableauB:
        if order < 1:
            raise ValueError("tableaux start at order 1")
        self.ensure(order)
        return self._tableaux_b[order]

    def grid_aplusb(self, order: int) -> tuple[tuple[int, ...], ...]:
        """Rows of A_n followed by the two rows of B_n."""
        return self.tableau_a(order).rows + self.tableau_b(order).rows

    def decompositions(self, order: int) -> tuple[tuple[int, int, int, int], ...]:
        """Per label 1..S_n: (left order, left label, right order, right label)."""
        if order < 1:
            raise ValueError("the leaf does not decompose")
        self.ensure(order)
        if self._decompositions[order] is None:
            cat = self._catalogs[order]
            out = []
            for t in cat.terms:
                lo, ro = t.left.order, t.right.order
                out.append((lo, self.catalog(lo).label_of(t.left), ro, self.catalog(ro).label_of(t.right)))
            self._decompositions[order] = tuple(out)
        return self._decompositions[order]

    def flank_uses(self, order: int) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]:
        """Inverse of decompositions(order), one part per side: part[k][x-1]
        holds the labels of this order whose left (part 0) or right (part 1)
        flank is label x of order k."""
        decomp = self.decompositions(order)
        if self._flank_uses[order] is None:
            sides = [[[[] for _ in self._catalogs[k].terms] for k in range(order)] for _ in range(2)]
            for label, (lo, la, ro, rb) in enumerate(decomp, start=1):
                sides[0][lo][la - 1].append(label)
                sides[1][ro][rb - 1].append(label)
            self._flank_uses[order] = tuple(
                tuple(tuple(tuple(users) for users in by_label) for by_label in side) for side in sides
            )
        return self._flank_uses[order]

    # -- counting ----------------------------------------------------------

    def multiplicity(self, order: int, label: int) -> int:
        """Number of occurrences of a label in tableau A_n."""
        self.catalog(order).term(label)  # label range check
        return sum(row.count(label) for row in self.tableau_a(order).rows)

    def multiplicity_histogram(self, order: int) -> dict[int, int]:
        """Map multiplicity k -> number of labels occurring k times in A_n."""
        counts = [0] * (len(self.catalog(order)) + 1)
        for row in self.tableau_a(order).rows:
            for label in row:
                counts[label] += 1
        hist: dict[int, int] = {}
        for label in range(1, len(counts)):
            hist[counts[label]] = hist.get(counts[label], 0) + 1
        return hist

    def line_intersection_card(self, order: int, lines) -> int:
        """Cardinality of the intersection of the given lines of A_n."""
        chosen = sorted(set(lines))
        if not chosen:
            raise ValueError("need at least one line index")
        tab = self.tableau_a(order)
        if any(not 1 <= k <= order for k in chosen):
            raise IndexError(f"line indices must lie in 1..{order}")
        common = set(tab.rows[chosen[0] - 1])
        for k in chosen[1:]:
            common &= set(tab.rows[k - 1])
        return len(common)

    def fresh_label_counts(self, order: int) -> tuple[int, ...]:
        """Per line of A_n, how many labels make their first appearance there."""
        tab = self.tableau_a(order)
        seen: set[int] = set()
        counts = []
        for row in tab.rows:
            fresh = sum(1 for label in row if label not in seen)
            seen.update(row)
            counts.append(fresh)
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

