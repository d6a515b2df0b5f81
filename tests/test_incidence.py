"""Incidence matrices, the reducible-pair count, and its closed form."""

import json
from fractions import Fraction

import numpy as np
import pytest

from iterforge import (
    OrderMismatch,
    Universe,
    catalan,
    count_reducible,
    delta_oracle,
    frequency_report,
    i_n_formula,
    incidence_matrix,
    row_sum_value,
    t_nk_aplusb,
    parse_word,
    t_nk,
)
from iterforge.incidence import MODE_A, MODE_AB
from iterforge.render import incidence as render_incidence
from iterforge.render import matrix_csv
from iterforge.terms import cherries

# The 5x5 order-3 matrix, one row per label.
MATRIX3_A = [
    [1, 1, 0, 0, 0],
    [1, 1, 0, 0, 1],
    [0, 0, 1, 1, 0],
    [0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1],
]

# Order-3 matrix with the root extensions folded in.
MATRIX3_AB = [
    [1, 1, 1, 0, 0],
    [1, 1, 0, 0, 1],
    [1, 0, 1, 1, 0],
    [0, 0, 1, 1, 1],
    [0, 1, 0, 1, 1],
]

# Order-4 matrix given as the column set of each row, plus row sums and
# multiplicities.
MATRIX4_ROWS = {
    1: {1, 2, 3, 4, 5},
    2: {1, 2, 3, 4, 5, 7, 10, 14},
    3: {1, 2, 3, 4, 5, 11, 12, 13},
    4: {1, 2, 3, 4, 5, 11, 12, 13},
    5: {1, 2, 3, 4, 5, 7, 10, 14},
    6: {6, 7, 8, 9, 10},
    7: {2, 5, 6, 7, 8, 9, 10, 14},
    8: {6, 7, 8, 9, 10},
    9: {6, 7, 8, 9, 10},
    10: {2, 5, 6, 7, 8, 9, 10, 14},
    11: {3, 4, 11, 12, 13},
    12: {3, 4, 11, 12, 13},
    13: {3, 4, 11, 12, 13},
    14: {2, 5, 7, 10, 14},
}


def test_order3_matrix_golden(universe):
    m = incidence_matrix(universe, 3, MODE_A)
    assert [[m.entry(i, j) for j in range(1, 6)] for i in range(1, 6)] == MATRIX3_A
    assert [m.row_sum(i) for i in range(1, 6)] == [2, 3, 2, 2, 2]
    assert m.total() == 11


def test_order3_combined_matrix_golden(universe):
    m = incidence_matrix(universe, 3, MODE_AB)
    assert [[m.entry(i, j) for j in range(1, 6)] for i in range(1, 6)] == MATRIX3_AB
    zeros = [(i, j) for i in range(1, 6) for j in range(i + 1, 6) if not m.entry(i, j)]
    assert zeros == [(1, 4), (1, 5), (2, 3), (2, 4), (3, 5)]


def test_order4_matrix_golden(universe):
    m = incidence_matrix(universe, 4, MODE_A)
    for i in range(1, 15):
        assert {j for j in range(1, 15) if m.entry(i, j)} == MATRIX4_ROWS[i]
    assert m.total() == 88
    for i in range(1, 15):
        expected = 8 if universe.multiplicity(4, i) == 2 else 5
        assert m.row_sum(i) == expected


def test_delta_oracle_examples(universe):
    cat = universe.catalog(3)
    assert delta_oracle(cat.term(1), cat.term(3), MODE_A) == 0
    assert delta_oracle(cat.term(2), cat.term(5), MODE_A) == 1
    assert delta_oracle(cat.term(1), cat.term(3), MODE_AB) == 1
    with pytest.raises(OrderMismatch):
        delta_oracle(cat.term(1), parse_word("Vxx"))


def test_oracle_agrees_with_matrix_exhaustively(universe):
    for n in range(1, 8):
        cat = universe.catalog(n)
        for mode in (MODE_A, MODE_AB):
            m = incidence_matrix(universe, n, mode)
            for i in range(1, len(cat) + 1):
                ti = cat.term(i)
                for j in range(1, len(cat) + 1):
                    assert delta_oracle(ti, cat.term(j), mode) == m.entry(i, j)


def test_oracle_agrees_with_matrix_order8_by_rows(universe):
    # same oracle primitive, vectorized into row masks to keep n=8 fast
    n = 8
    cat = universe.catalog(n)
    size = len(cat)
    position_masks: dict[int, int] = {}
    right_leaf = left_leaf = 0
    for label in range(1, size + 1):
        t = cat.term(label)
        bit = 1 << (label - 1)
        for p in cherries(t):
            position_masks[p] = position_masks.get(p, 0) | bit
        if t.right.is_leaf:
            right_leaf |= bit
        if t.left.is_leaf:
            left_leaf |= bit
    m_a = incidence_matrix(universe, n, MODE_A)
    m_ab = incidence_matrix(universe, n, MODE_AB)
    for label in range(1, size + 1):
        t = cat.term(label)
        row = 0
        for p in cherries(t):
            row |= position_masks[p]
        assert row == m_a.rows[label - 1]
        if t.right.is_leaf:
            row |= right_leaf
        if t.left.is_leaf:
            row |= left_leaf
        assert row == m_ab.rows[label - 1]


def _as_bool_matrix(m):
    width = (m.size + 7) // 8
    packed = b"".join(row.to_bytes(width, "little") for row in m.rows)
    bits = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), bitorder="little")
    return bits.reshape(m.size, 8 * width)[:, : m.size]


def test_matrix_symmetric_and_reflexive(universe):
    for n in range(1, 10):
        for mode in (MODE_A, MODE_AB):
            m = incidence_matrix(universe, n, mode)
            dense = _as_bool_matrix(m)
            assert (dense.diagonal() == 1).all()
            assert (dense == dense.T).all()


def test_row_sum_theorem(universe):
    for n in range(1, 9):
        m = incidence_matrix(universe, n, MODE_A)
        for i in range(1, m.size + 1):
            k = universe.multiplicity(n, i)
            assert m.row_sum(i) == row_sum_value(n, k), (n, i, k)


def test_row_sum_value_examples():
    assert row_sum_value(4, 2) == 2 * catalan(3) - catalan(2)
    assert row_sum_value(4, 1) == catalan(3)
    assert row_sum_value(6, 3) == 3 * 42 - 3 * 14 + 5


def test_formula_equals_brute_force(universe):
    assert i_n_formula(1) == 1
    assert i_n_formula(3) == 11
    assert i_n_formula(4) == 88
    for n in range(3, 10):
        assert i_n_formula(n) == count_reducible(universe, n, MODE_A)


def test_count_reducible_past_the_cap():
    # an S_n^2 bitmask would need 5.4 GB at order 12; the mode-AB values are
    # S_n^2 - sum_i (-1)^i [C(n-i+1, i) S_{n-i}^2 - 2 C(n-i, i) S_{n-1-i}^2]
    universe = Universe(12)
    for n in (10, 11, 12):
        assert count_reducible(universe, n, MODE_A) == i_n_formula(n), n
    assert [count_reducible(universe, n, MODE_AB) for n in (10, 11, 12)] == [192090112, 2417906738, 31057201140]


def aplusb_histogram(universe, n):
    """Direct multiplicity histogram over the (n+2)-row combined grid."""
    counts = [0] * (len(universe.catalog(n)) + 1)
    for row in universe.grid_aplusb(n):
        for label in row:
            counts[label] += 1
    hist = {}
    for label in range(1, len(counts)):
        hist[counts[label]] = hist.get(counts[label], 0) + 1
    return hist


def test_combined_multiplicity_closed_form(universe):
    assert [t_nk_aplusb(4, k) for k in (1, 2, 3)] == [0, 12, 2]
    assert aplusb_histogram(universe, 2) == {2: 2}
    for n in range(2, 10):
        expected = {k: t_nk_aplusb(n, k) for k in range(1, n + 2) if t_nk_aplusb(n, k)}
        assert aplusb_histogram(universe, n) == expected
        total = sum(k * t_nk_aplusb(n, k) for k in range(1, n + 2))
        assert total == (n + 2) * catalan(n - 1)


def test_frequency_report(universe):
    rows = frequency_report(9, universe)
    by_n = {r.n: r for r in rows}
    assert by_n[3].ratio == Fraction(11, 25)
    assert by_n[4].ratio == Fraction(22, 49)
    assert by_n[4].i_n_matrix == 88
    for a, b in zip(rows, rows[1:]):
        if 4 <= a.n <= 7:
            assert a.one_minus_ratio > b.one_minus_ratio


def test_catalan_ratio_limit():
    # S_{n-k}/S_n approaches 4^-k; the relative error shrinks with n and is
    # below 5% by n = 120 for k <= 3
    def rel_error(n, k):
        ratio = Fraction(catalan(n - k), catalan(n))
        return abs(float(ratio * 4**k) - 1.0)

    for k in (1, 2, 3):
        assert rel_error(120, k) < 0.05
        assert rel_error(120, k) < rel_error(60, k) < rel_error(30, k)


def test_incidence_renderings_match_entries(universe):
    assert matrix_csv(incidence_matrix(universe, 4, MODE_A)).splitlines()[-1] == "I_4,88"
    for n in range(1, 7):
        for mode in (MODE_A, MODE_AB):
            m = incidence_matrix(universe, n, mode)
            labels = range(1, m.size + 1)
            rows = [[m.entry(i, j) for j in labels] for i in labels]
            csv_lines = matrix_csv(m).splitlines()
            assert csv_lines == [",".join(map(str, row)) for row in rows] + [f"I_{n},{m.total()}"], (n, mode)
            text_lines = render_incidence(m, "text").splitlines()
            assert text_lines == [" ".join(map(str, row)) for row in rows] + [f"I_{n} = {m.total()}"], (n, mode)
            record = json.loads(render_incidence(m, "json"))
            assert record["rows"] == rows
            assert (record["total"], record["total_unordered"]) == (m.total(), m.total_unordered())
