"""Label grids, multiplicities, intersections, and the triangle partitions."""

import tracemalloc
from itertools import combinations

import pytest

from iterforge import (
    LEAF,
    CatalogCache,
    Term,
    UnknownLabel,
    Universe,
    all_terms,
    ballot_row,
    catalan,
    parse_word,
    substitute_cherry,
    t_nk,
)
from iterforge.polynomials import skein_levels
from iterforge.render import tableau_text
from iterforge.tableaux import line_intersection_formula, multiplicity_sum_identity

A_GOLD = {
    1: ((1,),),
    2: ((1,), (2,)),
    3: ((1, 2), (3, 4), (2, 5)),
    4: ((1, 2, 3, 4, 5), (6, 7, 8, 9, 10), (3, 4, 11, 12, 13), (2, 5, 7, 10, 14)),
    5: (
        (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14),
        (15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28),
        (6, 7, 8, 9, 10, 29, 30, 31, 32, 33, 34, 35, 36, 37),
        (3, 4, 11, 12, 13, 17, 18, 25, 26, 27, 38, 39, 40, 41),
        (2, 5, 7, 10, 14, 16, 19, 21, 24, 28, 30, 33, 37, 42),
    ),
}

B_GOLD = {
    1: ((1,), (1,)),
    2: ((1,), (2,)),
    3: ((1, 3), (4, 5)),
    4: ((1, 3, 6, 8, 11), (9, 10, 12, 13, 14)),
    5: (
        (1, 3, 6, 8, 11, 15, 17, 20, 22, 25, 29, 31, 34, 38),
        (23, 24, 26, 27, 28, 32, 33, 35, 36, 37, 39, 40, 41, 42),
    ),
}

ORDER5_WORDS = {8: "VVVxxVVxxxx", 11: "VVVxxVxVxxx", 42: "VxVxVxVxVxx"}


def test_tableau_goldens(universe):
    for n, gold in A_GOLD.items():
        assert universe.tableau_a(n) == gold
    for n, gold in B_GOLD.items():
        assert universe.tableau_b(n) == gold


def test_build_returns_catalog_and_grid(universe):
    assert len(universe.catalog(4)) == 14
    grid = universe.tableau_a(4)  # a grid is its rows: plain tuples of labels
    assert type(grid) is tuple and all(type(row) is tuple for row in grid)
    assert grid == A_GOLD[4]


def test_combined_grid_goldens(universe):
    for n in (3, 4, 5):
        assert universe.grid_aplusb(n) == A_GOLD[n] + B_GOLD[n]


def test_catalog_low_orders(universe):
    assert universe.catalog(0).word(1) == "x"
    assert universe.catalog(1).word(1) == "Vxx"
    assert [universe.catalog(2).word(i) for i in (1, 2)] == ["VVxxx", "VxVxx"]
    assert [universe.catalog(3).word(i) for i in range(1, 6)] == [
        "VVVxxxx", "VVxxVxx", "VVxVxxx", "VxVVxxx", "VxVxVxx",
    ]
    assert [universe.catalog(4).word(i) for i in range(1, 15)] == [
        "VVVVxxxxx", "VVVxxxVxx", "VVVxxVxxx", "VVxxVVxxx", "VVxxVxVxx",
        "VVVxVxxxx", "VVxVxxVxx", "VVxVVxxxx", "VxVVVxxxx", "VxVVxxVxx",
        "VVxVxVxxx", "VxVVxVxxx", "VxVxVVxxx", "VxVxVxVxx",
    ]
    for label, word in ORDER5_WORDS.items():
        assert universe.catalog(5).word(label) == word


def test_catalog_complete_and_distinct(universe):
    for n in range(10):
        cat = universe.catalog(n)
        assert len(cat) == catalan(n)
        assert len(set(cat.terms)) == len(cat)
        assert set(cat.terms) == set(all_terms(n))
        for label in range(1, len(cat) + 1):
            assert cat.label_of(cat.term(label)) == label
    with pytest.raises(UnknownLabel):
        universe.catalog(3).term(6)
    with pytest.raises(UnknownLabel):
        universe.catalog(3).label_of(all_terms(4)[0])


def test_labels_assigned_in_scan_order(universe):
    for n in range(1, 10):
        top = 0
        for row in universe.tableau_a(n):
            for label in row:
                if label > top:
                    assert label == top + 1
                    top = label
        assert top == catalan(n)


def test_line_completeness(universe):
    for n in range(1, 10):
        union = set()
        for row in universe.tableau_a(n):
            assert len(set(row)) == len(row)  # no label twice on one line
            union |= set(row)
        assert union == set(range(1, catalan(n) + 1))


def test_no_label_on_adjacent_lines(universe):
    for n in range(1, 10):
        rows = universe.tableau_a(n)
        for a, b in zip(rows, rows[1:]):
            assert not set(a) & set(b)


def test_b_entries_distinct(universe):
    assert universe.tableau_b(1) == ((1,), (1,))  # the one degenerate case
    for n in range(2, 10):
        rows = universe.tableau_b(n)
        flat = [label for row in rows for label in row]
        assert len(set(flat)) == len(flat) == 2 * catalan(n - 1)


def test_multiplicity_examples(universe):
    assert universe.multiplicity_histogram(4) == {1: 8, 2: 6}
    assert universe.multiplicity_histogram(1) == {1: 1}
    assert universe.multiplicity(4, 2) == 2
    with pytest.raises(UnknownLabel):
        universe.multiplicity(4, 15)


def test_multiplicity_histogram_matches_closed_form(universe):
    for n in range(1, 10):
        expected = {k: t_nk(n, k) for k in range(1, (n + 1) // 2 + 1) if t_nk(n, k)}
        assert universe.multiplicity_histogram(n) == expected


def test_entry_count_identity():
    # sum_k k * T_{n,k} equals the n * S_{n-1} entries of the grid
    for n in range(1, 13):
        total = sum(k * t_nk(n, k) for k in range(1, (n + 1) // 2 + 1))
        assert total == n * catalan(n - 1)


def test_binomial_multiplicity_identity():
    for n in range(1, 15):
        for k in range(1, (n + 1) // 2 + 1):
            lhs, rhs = multiplicity_sum_identity(n, k)
            assert lhs == rhs, (n, k)


def test_line_intersection_examples(universe):
    assert universe.line_intersection_card(5, {1, 3}) == 5
    assert universe.line_intersection_card(5, {2, 3}) == 0
    assert universe.line_intersection_card(6, {1, 3, 5}) == 5
    assert universe.line_intersection_card(4, {2}) == catalan(3)


def test_line_intersection_formula_exhaustive(universe):
    for n in range(1, 7):
        lines = range(1, n + 1)
        for size in range(1, n + 1):
            for chosen in combinations(lines, size):
                assert universe.line_intersection_card(n, chosen) == line_intersection_formula(n, chosen), (n, chosen)


def test_fresh_label_counts_match_ballot_rows(universe):
    for n in range(1, 10):
        assert universe.fresh_label_counts(n) == ballot_row(n)


def test_signatures_match_row_membership(universe):
    for n in range(1, 10):
        sigs = universe.signatures(n)
        assert len(sigs) == catalan(n)
        for k, line in enumerate(universe.grid_aplusb(n)):
            holders = set(line)
            for label in range(1, catalan(n) + 1):
                assert (sigs[label - 1] >> k & 1) == (label in holders), (n, k + 1, label)


def grid_scan_signatures(universe, n):
    """The line signatures read off the grid in one pass over its cells."""
    masks = [0] * catalan(n)
    for bit, line in enumerate(universe.grid_aplusb(n)):
        for label in line:
            masks[label - 1] |= 1 << bit
    return masks


def test_cherry_recursion_signatures_match_grid_scan():
    universe = Universe(11)
    for n in range(1, 12):
        assert list(universe.signatures(n)) == grid_scan_signatures(universe, n), n


def key_tuple_build(max_order):
    """The label arithmetic with a dict keyed by (left order, left label,
    right label) tuples, independent of the rank tables: per order n >= 1,
    the rows of A_n, the rows of B_n and the dict, in label order."""
    grids, keys, levels = [()], [()], {}
    for n in range(1, max_order + 1):
        index: dict[tuple[int, int, int], int] = {}
        rows = []
        for k in range(1, n + 1):
            row = []
            for lo, la, rb in keys[-1]:
                ro = n - 2 - lo
                if k <= lo + 1:
                    key = (lo + 1, grids[lo + 1][k - 1][la - 1], rb)
                else:
                    key = (lo, la, grids[ro + 1][k - lo - 2][rb - 1])
                row.append(index.setdefault(key, len(index) + 1))
            rows.append(tuple(row))
        if n == 1:  # the leaf has no key; V(x, x) is the one term of order 1
            index, rows = {(0, 1, 1): 1}, [(1,)]
        columns = range(1, catalan(n - 1) + 1)
        rows_b = (tuple(index[(n - 1, j, 1)] for j in columns), tuple(index[(0, 1, j)] for j in columns))
        grids.append(tuple(rows))
        keys.append(tuple(index))
        levels[n] = (tuple(rows), rows_b, index)
    return levels


def test_rank_tables_match_key_tuple_build():
    universe = Universe(11)
    for n, (rows_a, rows_b, index) in key_tuple_build(11).items():
        cat = universe.catalog(n)
        assert universe.tableau_a(n) == rows_a, n
        assert universe.tableau_b(n) == rows_b, n
        decompositions = tuple((lo, la, n - 1 - lo, rb) for lo, la, rb in index)
        assert universe.decompositions(n) == decompositions, n
        assert all(cat.label_at(*key) == label for key, label in index.items()), n


def test_rank_lookup_outside_the_blocks_has_no_label(universe):
    cat = universe.catalog(5)  # blocks lo = 0..4, each S_lo * S_{4-lo} keys
    for lo in range(5):
        s_lo, s_ro = catalan(lo), catalan(4 - lo)
        assert cat.label_at(lo, s_lo, s_ro) is not None
        for la, rb in ((0, 1), (-1, 1), (s_lo + 1, 1), (1, 0), (1, s_ro + 1)):
            assert cat.label_at(lo, la, rb) is None, (lo, la, rb)
    for lo in (-1, 5, 6):
        assert cat.label_at(lo, 1, 1) is None, lo
    with pytest.raises(ValueError):
        universe.catalog(-1)  # not the highest level built


def test_built_universe_is_compact():
    # rank tables and A rows as arrays: about 1.8 MB at order 11, where the
    # key-tuple dicts and decomposition tuples held about 20 MB
    tracemalloc.start()
    try:
        universe = Universe(11)
        universe.ensure(11)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live < 3_000_000, live


def test_catalog_cache_round_trip(tmp_path):
    cache = CatalogCache(tmp_path)
    universe = Universe(5, cache=cache)
    universe.ensure(5)
    for n in range(1, 6):
        cat = universe.catalog(n)
        header, *words = (tmp_path / f"catalog-v1-{n:02d}.txt").read_text().splitlines()
        assert header == f"1 {n} {catalan(n)}"
        assert words == [cat.word(label) for label in range(1, len(cat) + 1)]
        assert tuple(parse_word(word) for word in words) == cat.terms


def test_catalog_cache_is_never_read(tmp_path):
    path = tmp_path / "catalog-v1-04.txt"
    path.write_text("1 4 14\n" + "VxVxVxVxx\n" * 14)
    universe = Universe(4, cache=CatalogCache(tmp_path))
    assert universe.tableau_a(4) == A_GOLD[4]
    assert universe.catalog(4).word(14) == "VxVxVxVxx"
    assert path.read_text() == "1 4 14\n" + "VxVxVxVxx\n" * 14  # an existing file is left as it is


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ITERFORGE_CACHE", str(tmp_path / "alt"))
    cache = CatalogCache()
    assert str(cache.root) == str(tmp_path / "alt")


def test_tableau_text_golden(universe):
    assert tableau_text(universe.tableau_a(4)) == "1 2 3 4 5\n6 7 8 9 10\n3 4 11 12 13\n2 5 7 10 14"


def term_oracle(max_order):
    """The construction from Term trees, independent of the label arithmetic.

    Plant Vxx at every leaf of every term of the previous order, hand out
    labels at first sight, and index the terms structurally.  Returns the
    terms per order and, per order n >= 1, the rows of A_n, the rows of B_n
    and the decomposition of every label.
    """
    catalogs = [[LEAF]]
    indexes = [{LEAF: 1}]
    levels = {}
    for n in range(1, max_order + 1):
        prev = catalogs[-1]
        terms: list[Term] = []
        index: dict[Term, int] = {}
        rows = []
        for k in range(1, n + 1):
            row = []
            for t in prev:
                u = substitute_cherry(t, k)
                label = index.get(u)
                if label is None:
                    terms.append(u)
                    label = len(terms)
                    index[u] = label
                row.append(label)
            rows.append(tuple(row))
        row_left = tuple(index[Term(t, LEAF)] for t in prev)
        row_right = tuple(index[Term(LEAF, t)] for t in prev)
        decompositions = tuple(
            (t.left.order, indexes[t.left.order][t.left], t.right.order, indexes[t.right.order][t.right])
            for t in terms
        )
        catalogs.append(terms)
        indexes.append(index)
        levels[n] = (tuple(rows), (row_left, row_right), decompositions)
    return catalogs, levels


def test_label_arithmetic_matches_term_oracle():
    universe = Universe(10)
    catalogs, levels = term_oracle(10)
    for n, (rows_a, rows_b, decompositions) in levels.items():
        assert universe.tableau_a(n) == rows_a, n
        assert universe.tableau_b(n) == rows_b, n
        assert universe.decompositions(n) == decompositions, n
    for n in range(8):
        assert universe.catalog(n).terms == tuple(catalogs[n]), n


def test_build_creates_no_terms(monkeypatch):
    made = []
    init = Term.__init__

    def counting_init(self, *children):
        made.append(children)
        init(self, *children)

    monkeypatch.setattr(Term, "__init__", counting_init)
    universe = Universe(9)
    for n in range(1, 10):
        universe.grid_aplusb(n)
        universe.decompositions(n)
    assert made == []
    universe.catalog(2).term(1)  # the view decodes on demand
    assert len(made) == catalan(1) + catalan(2)


def test_users_invert_decompositions():
    # the rank-table slices against the inverse built label by label, in label order
    universe = Universe(10)
    for n in range(1, 11):
        cat = universe.catalog(n)
        inverse = [[[[] for _ in range(catalan(k))] for k in range(n)] for _ in range(2)]
        for label, (lo, la, ro, rb) in enumerate(cat.decompositions, start=1):
            inverse[0][lo][la - 1].append(label)
            inverse[1][ro][rb - 1].append(label)
        for side, by_order in enumerate(inverse):
            for k, by_label in enumerate(by_order):
                for x, users in enumerate(by_label, start=1):
                    assert cat.users(side, k, x).tolist() == users, (n, side, k, x)


def test_multiplicity_counts_every_label(universe):
    for n in range(1, 9):
        rows = universe.tableau_a(n)
        for label in range(1, catalan(n) + 1):
            assert universe.multiplicity(n, label) == sum(row.count(label) for row in rows), (n, label)


def reflect(t: Term) -> Term:
    return t if t.is_leaf else Term(reflect(t.right), reflect(t.left))


def test_mirror_reflects_terms(universe):
    for n in range(10):
        cat, mirror = universe.catalog(n), universe.mirror(n)
        assert len(mirror) == len(cat), n
        for x in range(1, len(cat) + 1):
            assert cat.term(mirror[x - 1]) == reflect(cat.term(x)), (n, x)


def test_mirror_is_an_involution(universe):
    for n in range(10):
        mirror = universe.mirror(n)
        assert all(mirror[m - 1] == x for x, m in enumerate(mirror, 1)), n


def test_mirror_reverses_the_tableau_lines(universe):
    for n in range(1, 10):
        mirror, lower = universe.mirror(n), universe.mirror(n - 1)
        rows = universe.tableau_a(n)
        for k, row in enumerate(rows, 1):
            image = rows[n - k]  # row n+1-k
            assert all(mirror[label - 1] == image[lower[x - 1] - 1] for x, label in enumerate(row, 1)), (n, k)
        left, right = universe.tableau_b(n)
        for j in range(1, len(left) + 1):
            assert mirror[left[j - 1] - 1] == right[lower[j - 1] - 1], (n, j)
            assert mirror[right[j - 1] - 1] == left[lower[j - 1] - 1], (n, j)


def test_self_mirror_counts(universe):
    # the symmetric trees of order 2k+1 are a tree of order k and its mirror
    counts = [sum(m == x for x, m in enumerate(universe.mirror(n), 1)) for n in range(1, 10)]
    assert counts == [1, 0, 1, 0, 2, 0, 5, 0, 14]


def test_mirror_is_built_from_the_rank_blocks():
    universe = Universe(9)
    universe.mirror(9)
    with pytest.raises(TypeError):
        universe.mirror(9)[0] = 1  # a read-only view
    universe.signatures(9)
    skein_levels(universe, 9)
    assert len(universe.catalog(9).words) == catalan(9)
    assert all("decompositions" not in vars(universe.catalog(n)) for n in range(10))


def leaf_depths(t: Term, depth: int = 0) -> tuple[int, ...]:
    if t.is_leaf:
        return (depth,)
    return leaf_depths(t.left, depth + 1) + leaf_depths(t.right, depth + 1)


def test_fold_matches_term_oracle():
    # an arbitrary join: each label's leaf depths, left to right
    blocks = []

    def join(lo, ro, left, right):
        blocks.append((lo, ro))
        assert (len(left), len(right)) == (catalan(lo), catalan(ro))
        return [tuple(d + 1 for d in a + b) for a in left for b in right]

    universe = Universe(9)
    levels = universe.fold(9, ((0,),), join)
    assert blocks == [(lo, n - 1 - lo) for n in range(1, 10) for lo in range(n)]  # one call per block
    catalogs, _ = term_oracle(9)
    assert levels == [tuple(leaf_depths(t) for t in terms) for terms in catalogs]
