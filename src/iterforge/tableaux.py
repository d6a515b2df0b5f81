"""Canonical labeling of terms per order and the two substitution tableaux.

A term V(L, R) of order n, with L of order lo and labels la of L and rb of
R, has the key (lo, la, rb).  The keys of order n rank one to one onto
0..S_n-1 as off[lo] + (la-1)*S_{n-1-lo} + (rb-1), where off[lo] =
sum_{i<lo} S_i*S_{n-1-i} (Knuth, TAOCP 4A 7.2.1.6), so a level is two
arrays: `rank_to_label` and its inverse `label_to_rank`.  A run of ranks
holds the terms with one left flank, and a strided slice those with one right.

Level n is built from level n-1 by label arithmetic alone.  Row k of the
substitution grid A_n plants Vxx at leaf k of every (n-1)-term V(L, R) in
label order, where L has order lo: the result is V(A_{lo+1}[k][L], R) when
k <= lo+1, else V(L, A_{ro+1}[k-lo-1][R]), read off grids of lower orders.
The results get labels 1..S_n at first sight in a row-major scan.  Tableau
B_n holds the root extensions V(J, x) and V(x, J): the last S_{n-1} ranks
and the first S_{n-1}.  Values of V(L, R) built from those of L and R
(decompositions, terms, words, mirror, line signatures) are folds, as in
Flajolet and Sedgewick, ch. I: one join per rank block, mapped into label
order once.  A label's signature is the mask of the n+2 lines of A_n and
B_n that hold it; multiplicities, intersections and incidence read it.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from functools import cached_property
from itertools import chain, compress, product, starmap
from math import comb
from operator import not_
from pathlib import Path

from .errors import UnknownLabel
from .terms import LEAF, Term, catalan, render_word

DEFAULT_MAX_ORDER = 9
CONSTRUCTION_VERSION = 1


def _tuple_rows(rows, size: int) -> tuple[tuple[int, ...], ...]:
    """Label arrays as tuples.  A tuple built from an array boxes a fresh int
    per cell, so the cells map through one shared int per label."""
    ints = list(range(size + 1))
    return tuple(tuple(map(ints.__getitem__, row)) for row in rows)


def _signature_block(lo: int, ro: int, left, right):
    """One rank block of `Universe.signatures`; the masks drop lower B bits."""
    n = lo + ro + 1
    lines_b = (ro == 0) << n | (lo == 0) << (n + 1) | (lo == ro == 0)
    lines_lo = (1 << lo) - 1
    right = [(sig & ((1 << ro) - 1)) << (lo + 1) for sig in right]
    if len(right) == 1:
        return map((lines_b | right[0]).__or__, map(lines_lo.__and__, left))
    return chain.from_iterable(map(((sig & lines_lo) | lines_b).__or__, right) for sig in left)


class Catalog:
    """All terms of one order, listed by label 1..S_n.

    The build stores the rank table, its inverse and the rows of A_n as
    arrays.  Decompositions, the tableaux as tuples, `terms`, `words` and
    `mirror` are views, built once, on first use; their inverse, `users`,
    is a slice of the rank table.
    """

    def __init__(self, order: int, lower: tuple[Catalog, ...]):
        self.order = order
        self._lower = lower
        self._sizes = [len(cat) for cat in lower]
        # offsets[lo]: the first rank whose left flank has order lo
        self.offsets = [0]
        for lo in range(order):
            self.offsets.append(self.offsets[-1] + self._sizes[lo] * self._sizes[order - 1 - lo])
        # filled once by Universe, in the row-major scan, and read only after
        self.rank_to_label = array("I", [0]) * self.offsets[-1]  # 0 until first sight
        self.label_to_rank = array("I")
        self.rows: list[array] = []  # the rows of A_n, each of S_{n-1} labels
        if order == 0:  # the leaf's views, which the folds of higher orders start from
            vars(self).update(terms=(LEAF,), words=("x",), mirror=array("I", [1]))

    def __len__(self) -> int:
        return len(self.label_to_rank) if self.order else 1

    def check_label(self, label: int) -> None:
        if not 1 <= label <= len(self):
            raise UnknownLabel(f"label {label} not in catalog of order {self.order}")

    def label_at(self, lo: int, la: int, rb: int) -> int | None:
        """Label of V(L, R), L label la of order lo and R label rb of order
        n-1-lo; None when there is no such term."""
        n = self.order
        if not 0 <= lo < n:
            return None
        s_ro = self._sizes[n - 1 - lo]
        if not (1 <= la <= self._sizes[lo] and 1 <= rb <= s_ro):
            return None  # the rank would land in another key's place
        return self.rank_to_label[self.offsets[lo] + (la - 1) * s_ro + rb - 1]

    @cached_property
    def decompositions(self) -> tuple[tuple[int, int, int, int], ...]:
        """Per label: (left order, left label, right order, right label)."""
        ints = list(range(max(self._sizes) + 1))  # one int per label value
        labels = [ints[1 : size + 1] for size in self._sizes]
        return self.fold(labels, lambda lo, ro, left, right: [(lo, la, ro, rb) for la, rb in product(left, right)])

    def fold(self, levels, join):
        """This order's values in label order, from `levels`, those of every
        lower order: join(lo, ro, levels[lo], levels[ro]) returns one rank
        block's values in rank order (L's label major), and the blocks map
        into label order once, as an array if the leaf level is one."""
        n, leaf = self.order, levels[0]
        by_rank = array(leaf.typecode) if isinstance(leaf, array) else []
        for lo in range(n):
            by_rank.extend(join(lo, n - 1 - lo, levels[lo], levels[n - 1 - lo]))
        values = map(by_rank.__getitem__, self.label_to_rank)
        return array(leaf.typecode, values) if isinstance(leaf, array) else tuple(values)

    @cached_property
    def terms(self) -> tuple[Term, ...]:
        terms = [cat.terms for cat in self._lower]
        return self.fold(terms, lambda lo, ro, left, right: starmap(Term, product(left, right)))

    @cached_property
    def words(self) -> tuple[str, ...]:
        words = [cat.words for cat in self._lower]
        return self.fold(words, lambda lo, ro, left, right: ["V" + a + b for a, b in product(left, right)])

    @cached_property
    def tableau_a(self) -> tuple[tuple[int, ...], ...]:
        return _tuple_rows(self.rows, len(self))

    @cached_property
    def tableau_b(self) -> tuple[tuple[int, ...], ...]:
        # V(J, x) has rank off[n-1] + J - 1, and V(x, J) has rank J - 1
        width = self._sizes[-1]
        return _tuple_rows((self.rank_to_label[-width:], self.rank_to_label[:width]), len(self))

    @cached_property
    def mirror(self) -> array:
        """Per label: the label of its left-right reflection.

        The mirror of V(L, R) is V(mirror(R), mirror(L)), so with L label la
        of order lo and R label rb of order ro = n-1-lo,

            mirror_n(x) = label_at(ro, mirror_ro(rb), mirror_lo(la)),

        with mirror_0(1) = 1: a fold over the rank blocks, which reads no
        `decompositions`.  An involution; it maps row k of A_n onto row
        n+1-k and swaps the two rows of B_n."""
        off, label_of_rank = self.offsets, self.rank_to_label.__getitem__
        def block(lo, ro, left, right):
            # V(mirror(R), mirror(L)) has rank off[ro] + (mirror(R)-1)*S_lo + mirror(L)-1
            columns = [off[ro] + (m - 1) * len(left) - 1 for m in right]
            return map(label_of_rank, chain.from_iterable(map(m.__add__, columns) for m in left))
        return self.fold([cat.mirror for cat in self._lower], block)

    def users(self, side: int, k: int, x: int) -> array:
        """The labels of this order whose left (side 0) or right (side 1)
        flank is label x of order k < n, in rank order, which through order
        12 is label order too.  With ro = n-1-k, the left flank x holds S_ro
        ranks from off[k] + (x-1)*S_ro, and the right flank x every S_k-th
        rank from off[ro] + x-1 to off[ro+1]."""
        ro, off = self.order - 1 - k, self.offsets
        if side == 0:
            start = off[k] + (x - 1) * self._sizes[ro]
            return self.rank_to_label[start : start + self._sizes[ro]]
        return self.rank_to_label[off[ro] + x - 1 : off[ro + 1] : self._sizes[k]]

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
        left, right = t.left, t.right
        lower = self._lower
        return self.label_at(left.order, lower[left.order].label_of(left), lower[right.order].label_of(right))


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
        self._catalogs: list[Catalog] = [Catalog(0, ())]
        self._signatures: list[array] = [array("I", [0])]  # per order; the leaf holds no cherry

    def ensure(self, order: int) -> None:
        if order < 0:  # a negative index would read the highest level built
            raise ValueError("orders start at 0")
        if order > self.max_order:
            raise ValueError(f"order {order} above the configured maximum {self.max_order}")
        while len(self._catalogs) <= order:
            self._build_next_level()

    def _build_next_level(self) -> None:
        n = len(self._catalogs)
        cat = Catalog(n, tuple(self._catalogs))
        to_label, label_of_rank = cat.rank_to_label, cat.rank_to_label.__getitem__
        if n == 1:  # the leaf does not decompose; Vxx planted at its one leaf is V(x, x)
            to_label[0] = 1
            cat.label_to_rank.append(0)
            cat.rows.append(array("I", [1]))
        else:
            for k in range(1, n + 1):
                ranks = self._row_ranks(cat, k)
                # a row holds no label twice, so its unseen ranks are its fresh labels
                fresh = list(compress(ranks, map(not_, map(label_of_rank, ranks))))
                for label, rank in enumerate(fresh, len(cat.label_to_rank) + 1):
                    to_label[rank] = label
                cat.label_to_rank.extend(fresh)
                cat.rows.append(array("I", map(label_of_rank, ranks)))
        self._catalogs.append(cat)
        if self.cache is not None:
            self.cache.store(cat)

    def _row_ranks(self, cat: Catalog, k: int) -> array:
        """The ranks of row k of A_n, one per (n-1)-term, in label order."""
        n, off, size, cats = cat.order, cat.offsets, cat._sizes, self._catalogs
        ranks: list[int] = []  # first in the rank order of level n-1, block by block
        for lo in range(n - 1):
            ro = n - 2 - lo
            if k <= lo + 1:  # V(A_{lo+1}[k][L], R): rank off[lo+1] + (a-1)*S_ro + (rb-1)
                column = cats[lo + 1].rows[k - 1]
                if size[ro] == 1:
                    ranks.extend(map((off[lo + 1] - 1).__add__, column))
                    continue
                for a in column:
                    start = off[lo + 1] + (a - 1) * size[ro]
                    ranks.extend(range(start, start + size[ro]))
            else:  # V(L, A_{ro+1}[k-lo-1][R]): rank off[lo] + (la-1)*S_{ro+1} + (a-1)
                column, step = cats[ro + 1].rows[k - lo - 2], size[ro + 1]
                if len(column) == 1:
                    ranks.extend(range(off[lo] + column[0] - 1, off[lo + 1], step))
                    continue
                for start in range(off[lo] - 1, off[lo + 1] - 1, step):
                    ranks.extend(map(start.__add__, column))
        return array("I", map(ranks.__getitem__, cats[n - 1].label_to_rank))

    def catalog(self, order: int) -> Catalog:
        self.ensure(order)
        return self._catalogs[order]

    def fold(self, order: int, leaf, join) -> list:
        """Per order 0..order, its labels' values in label order: `leaf`, then `Catalog.fold`s."""
        levels = [leaf]
        for n in range(1, order + 1):
            levels.append(self.catalog(n).fold(levels, join))
        return levels

    def tableau_a(self, order: int) -> tuple[tuple[int, ...], ...]:
        """The n rows of A_n, each of S_{n-1} labels."""
        if order < 1:
            raise ValueError("tableaux start at order 1")
        return self.catalog(order).tableau_a

    def tableau_b(self, order: int) -> tuple[tuple[int, ...], ...]:
        """The two rows of B_n, each of S_{n-1} labels: V(J, x), then V(x, J)."""
        if order < 1:
            raise ValueError("tableaux start at order 1")
        return self.catalog(order).tableau_b

    def grid_aplusb(self, order: int) -> tuple[tuple[int, ...], ...]:
        """Rows of A_n followed by the two rows of B_n."""
        return self.tableau_a(order) + self.tableau_b(order)

    def mirror(self, order: int) -> memoryview:
        """Entry x-1: the label of the left-right reflection of label x of
        this order (V(L, R) -> V(mirror(R), mirror(L)))."""
        return memoryview(self.catalog(order).mirror).toreadonly()

    def decompositions(self, order: int) -> tuple[tuple[int, int, int, int], ...]:
        """Per label 1..S_n: (left order, left label, right order, right label)."""
        if order < 1:
            raise ValueError("the leaf does not decompose")
        return self.catalog(order).decompositions

    # -- counting ----------------------------------------------------------

    def signatures(self, order: int) -> memoryview:
        """Entry i-1: the lines of grid_aplusb(order) that hold label i, as a
        mask (bit k-1 for row k of A_n, bits n and n+1 for the rows of B_n).

        Row k of A_n holds the terms with a cherry at leaf k, so the A part
        of V(L, R) is A(L) | A(R) << (lo+1), with A(V(x, x)) = 1; B_n holds
        the terms whose right (bit n) or left (bit n+1) flank is the leaf.
        Folded over the rank blocks once per order, and read only."""
        if order < 1:
            raise ValueError("tableaux start at order 1")
        self.ensure(order)
        sigs = self._signatures
        while len(sigs) <= order:
            sigs.append(self._catalogs[len(sigs)].fold(sigs, _signature_block))
        return memoryview(sigs[order]).toreadonly()

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

