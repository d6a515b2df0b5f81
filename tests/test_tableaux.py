"""Label grids, multiplicities, intersections, and the triangle partitions."""

from itertools import combinations

import pytest

from iterforge import (
    CatalogCache,
    UnknownLabel,
    Universe,
    all_terms,
    ballot_row,
    catalan,
    t_nk,
)
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
        assert universe.tableau_a(n).rows == gold
    for n, gold in B_GOLD.items():
        assert universe.tableau_b(n).rows == gold


def test_build_returns_catalog_and_grid(universe):
    catalog, grid = universe.build(4)
    assert len(catalog) == 14
    assert grid.rows == A_GOLD[4]


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
        for row in universe.tableau_a(n).rows:
            for label in row:
                if label > top:
                    assert label == top + 1
                    top = label
        assert top == catalan(n)


def test_line_completeness(universe):
    for n in range(1, 10):
        union = set()
        for row in universe.tableau_a(n).rows:
            assert len(set(row)) == len(row)  # no label twice on one line
            union |= set(row)
        assert union == set(range(1, catalan(n) + 1))


def test_no_label_on_adjacent_lines(universe):
    for n in range(1, 10):
        rows = universe.tableau_a(n).rows
        for a, b in zip(rows, rows[1:]):
            assert not set(a) & set(b)


def test_b_entries_distinct(universe):
    assert universe.tableau_b(1).rows == ((1,), (1,))  # the one degenerate case
    for n in range(2, 10):
        rows = universe.tableau_b(n).rows
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


def test_catalog_cache_round_trip(tmp_path):
    cache = CatalogCache(tmp_path)
    first = Universe(5, cache=cache)
    first.ensure(5)
    assert cache.load(5) is not None
    second = Universe(5, cache=CatalogCache(tmp_path))
    for n in range(6):
        assert second.catalog(n).terms == first.catalog(n).terms
        if n >= 1:
            assert second.tableau_a(n) == first.tableau_a(n)
            assert second.tableau_b(n) == first.tableau_b(n)


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("ITERFORGE_CACHE", str(tmp_path / "alt"))
    cache = CatalogCache()
    assert str(cache.root) == str(tmp_path / "alt")


def test_tableau_text_golden(universe):
    tab = universe.tableau_a(4)
    assert tableau_text(tab.rows) == "1 2 3 4 5\n6 7 8 9 10\n3 4 11 12 13\n2 5 7 10 14"
