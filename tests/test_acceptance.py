"""Acceptance gate: one test per criterion, each at its stated range and
exact unless marked otherwise.  Run with -v for one pass/fail line per
criterion; report-only side values are printed alongside."""

import hashlib
import math
from itertools import combinations

from iterforge import (
    ClosureConfig,
    IdentitySpec,
    MalformedWord,
    SkeinPoly,
    all_terms,
    ballot_row,
    catalan,
    catalan_general,
    classify_identity,
    close,
    collision_groups,
    column_pair_survey,
    compose_classes,
    count_reducible,
    frequency_report,
    i_n_formula,
    implication_pairs,
    incidence_matrix,
    np_recursion_check,
    parse_word,
    row_sum_value,
    run_length_code,
    series_mixed,
    skein,
    skein_levels,
    t_nk,
    unicity_bounds_check,
    validate_word_diophantine,
)
from iterforge.incidence import MODE_A, MODE_AB
from iterforge.polynomials import enumerate_trees_mixed
from iterforge.semantics import (
    ESSENTIAL_UP_TO,
    SEMANTICALLY_REDUCIBLE,
    class_handle,
    h_formula_a,
    h_formula_b,
)
from iterforge.tableaux import multiplicity_sum_identity
from iterforge.verify import (
    A_GOLD,
    B_GOLD,
    CLOSURE_GOLDENS,
    MATRIX4_ROWS,
    ORDER3_TABLE,
    ORDER3_TABLE_H67,
    SKEIN_TABLE,
    run_verify,
)

BALLOT_TRIANGLE_ROWS = [
    (1,),
    (1, 1),
    (2, 2, 1),
    (5, 5, 3, 1),
    (14, 14, 9, 4, 1),
    (42, 42, 28, 14, 5, 1),
    (132, 132, 90, 48, 20, 6, 1),
    (429, 429, 297, 165, 75, 27, 7, 1),
    (1430, 1430, 1001, 572, 275, 110, 35, 8, 1),
    (4862, 4862, 3432, 2002, 1001, 429, 154, 44, 9, 1),
]


def done(n, name):
    print(f"criterion {n:02d} ({name}): PASS")


def test_criterion_01_catalan_ballot_tables():
    assert [catalan(n) for n in range(11)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
    for n, row in enumerate(BALLOT_TRIANGLE_ROWS, start=1):
        assert ballot_row(n) == row
        assert sum(row) == catalan(n)
    done(1, "catalan and ballot tables exact")


def test_criterion_02_tableau_goldens(universe):
    for n, gold in A_GOLD.items():
        assert universe.tableau_a(n) == gold
    for n, gold in B_GOLD.items():
        assert universe.tableau_b(n) == gold
    for n in (3, 4, 5):
        assert universe.grid_aplusb(n) == A_GOLD[n] + B_GOLD[n]
    done(2, "tableaux 1..5 cell-for-cell")


def test_criterion_03_incidence_goldens(universe):
    m3 = incidence_matrix(universe, 3, MODE_A)
    assert [[m3.entry(i, j) for j in range(1, 6)] for i in range(1, 6)] == [
        [1, 1, 0, 0, 0],
        [1, 1, 0, 0, 1],
        [0, 0, 1, 1, 0],
        [0, 0, 1, 1, 0],
        [0, 1, 0, 0, 1],
    ]
    assert m3.total() == 11
    m4 = incidence_matrix(universe, 4, MODE_A)
    assert m4.total() == 88
    for i in range(1, 15):
        assert {j for j in range(1, 15) if m4.entry(i, j)} == MATRIX4_ROWS[i]
        assert m4.row_sum(i) == (8 if universe.multiplicity(4, i) == 2 else 5)
    done(3, "incidence matrices n=3, n=4 exact")


def test_criterion_04_closed_form_vs_brute_force(universe):
    for n in range(3, 10):
        assert i_n_formula(n) == count_reducible(universe, n, MODE_A), n
    done(4, "closed form equals matrix count 3..9")


def test_criterion_05_row_sum_theorem(universe):
    for n in range(1, 9):
        m = incidence_matrix(universe, n, MODE_A)
        for i in range(1, m.size + 1):
            assert m.row_sum(i) == row_sum_value(n, universe.multiplicity(n, i))
    done(5, "row-sum theorem every row n<=8")


def test_criterion_06_multiplicity_histograms(universe):
    for n in range(1, 10):
        expected = {k: t_nk(n, k) for k in range(1, (n + 1) // 2 + 1) if t_nk(n, k)}
        assert universe.multiplicity_histogram(n) == expected
    for n in range(1, 15):
        for k in range(1, (n + 1) // 2 + 1):
            lhs, rhs = multiplicity_sum_identity(n, k)
            assert lhs == rhs
    done(6, "histograms n<=9 and summed identity n<=14")


def test_criterion_07_frequency_trend(universe):
    rows = frequency_report(9, universe)
    print("n, 1 - I_n/S_n^2, e^(-n/16):")
    for r in rows:
        print(f"  {r.n}  {float(r.one_minus_ratio):.6f}  {math.exp(-r.n / 16):.6f}")
    windowed = [r for r in rows if 4 <= r.n <= 8]
    for a, b in zip(windowed, windowed[1:]):
        assert a.one_minus_ratio > b.one_minus_ratio
    done(7, "irreducible share strictly decreasing 4..8")


def test_criterion_08_closure_goldens(universe):
    def classes(pair, mode, order, bound):
        state = close(IdentitySpec.of(3, pair), ClosureConfig(bound, mode, False), universe)
        return {tuple(c) for c in state.classes(order)}

    assert classes((2, 4), "A", 4, 4) == CLOSURE_GOLDENS[("2=4", "A", 4)]
    assert classes((2, 4), "AB", 4, 4) == CLOSURE_GOLDENS[("2=4", "AB", 4)]
    assert classes((1, 5), "AB", 4, 5) == CLOSURE_GOLDENS[("1=5", "AB", 4)]
    assert classes((1, 5), "AB", 5, 5) == CLOSURE_GOLDENS[("1=5", "AB", 5)]
    done(8, "closure partitions match the worked examples")


def test_criterion_09_classnumber_formulas(universe):
    for pair in combinations(range(1, 6), 2):
        state_a = close(IdentitySpec.of(3, pair), ClosureConfig(6, "A", False), universe)
        state_b = close(IdentitySpec.of(3, pair), ClosureConfig(6, "B", False), universe)
        for k in range(4):
            assert state_a.classnumber(3 + k) == h_formula_a(3, k) == catalan(3 + k) - ballot_row(4 + k)[3]
            assert state_b.classnumber(3 + k) == h_formula_b(3, k) == catalan(3 + k) - 2**k
    done(9, "classnumber formulas, ten identities, k<=3")


def test_criterion_10_order3_table(universe):
    for pair, (hs, single) in ORDER3_TABLE.items():
        state = close(IdentitySpec.of(3, pair), ClosureConfig(7, "AB", False), universe)
        assert tuple(state.classnumber(m) for m in (3, 4, 5)) == hs, pair
        assert tuple(state.singleton_count(m) for m in (3, 4, 5)) == single, pair
        h6, h7 = state.classnumber(6), state.classnumber(7)
        hand = ORDER3_TABLE_H67[pair]
        print(f"  {pair}: h6={h6} h7={h7} (report-only; hand-computed {hand})")
    done(10, "order-3 table h3..h5 and singletons exact; h6/h7 reported")


def test_criterion_11_classification(universe):
    for pair in [(1, 5), (2, 3), (2, 4)]:
        verdict = classify_identity(universe, 3, pair, 7)
        assert verdict.kind == SEMANTICALLY_REDUCIBLE
        assert verdict.witness and verdict.witness[-1][0] < 3
    chain = classify_identity(universe, 3, (1, 5), 7).witness
    assert (5, 8, 11) in chain
    assert chain[-1] == (2, 1, 2)
    for pair in [(1, 4), (3, 5)]:
        verdict = classify_identity(universe, 3, pair, 7)
        assert verdict.kind == ESSENTIAL_UP_TO and verdict.bound == 7
    done(11, "verdicts and the associativity witness chain")


def test_criterion_12_implication_pairs(universe):
    for n, k in [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (5, 4)]:
        count, pairs = implication_pairs(universe, n, k)
        assert count == (n - k + 1) * catalan(n - k) * catalan(k) * (catalan(k) - 1) // 2
    assert (8, 11) in implication_pairs(universe, 5, 2)[1]
    done(12, "implication-pair counts and the (8,11) membership")


def test_criterion_13_class_algebra(universe):
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(5, "AB", False), universe)
    for p in range(5):
        for q in range(5):
            if p + q + 1 > 5:
                continue
            for cp in state.classes(p):
                for cq in state.classes(q):
                    compose_classes(
                        universe,
                        state,
                        class_handle(state, p, cp[0]),
                        class_handle(state, q, cq[0]),
                    )
    done(13, "class composition well-defined for p+q+1 <= 5")


def test_criterion_14_skein(universe):
    for word, coeffs in SKEIN_TABLE.items():
        assert skein(parse_word(word)) == SkeinPoly(coeffs)
    levels = skein_levels(universe, 7)
    shared = SkeinPoly({(2, 0): 1, (1, 1): 1, (2, 1): 1, (1, 2): 1, (0, 2): 1})
    assert collision_groups(levels[4])[shared] == (4, 7)
    for n in range(9):
        for t in all_terms(n):
            assert skein(t).evaluate(1, 1) == n + 1
            assert skein(t).substitute_b_complement() == (1,)
    assert np_recursion_check(levels)
    done(14, "skein table, the (4,7) collision, evaluations, recursion")


def test_criterion_15_generalized_catalan():
    for a in (2, 3, 4):
        phi = series_mixed([a], 12)
        for n in range(13):
            assert phi[n] == catalan_general(a, n)
    phi23 = series_mixed([2, 3], 7)
    for n in range(8):
        trees = list(enumerate_trees_mixed((2, 3), n))
        assert len(set(trees)) == len(trees) == phi23[n]
    done(15, "generalized counting vs closed form and enumeration")


def test_criterion_16_word_language(universe):
    for length in range(1, 14):
        for bits in range(1 << length):
            word = "".join("Vx"[(bits >> i) & 1] for i in range(length))
            try:
                parse_word(word)
                parses = True
            except MalformedWord:
                parses = False
            assert validate_word_diophantine(word) == parses, word
    code = run_length_code(universe.catalog(5).word(11))
    assert code.digits == "321113" and code.k == 3
    done(16, "validator agrees with parser on all 2^L strings, L<=13")


def test_criterion_17_class_size_bounds(universe):
    for n in (3, 4):
        for pair in combinations(range(1, len(universe.catalog(n)) + 1), 2):
            state = close(IdentitySpec.of(n, pair), ClosureConfig(n, "AB", False), universe)
            report = unicity_bounds_check(universe, state)
            assert report.ok
            assert report.classnumber >= catalan(n - 1)
            assert report.min_class_size <= 3
    done(17, "defining-order bounds, all order-3 and order-4 identities")


def test_criterion_18_column_pair_conjecture(universe):
    survey3 = column_pair_survey(universe, 3, 7)
    assert survey3.column_pairs == ((1, 4), (3, 5))
    assert survey3.essential_columns == ((1, 4), (3, 5))
    assert survey3.essential_others == ()
    survey4 = column_pair_survey(universe, 4, 7)
    assert survey4.column_pairs == ((1, 9), (3, 10), (6, 12), (8, 13), (11, 14))
    for pair, verdict in zip(survey4.column_pairs, survey4.column_verdicts):
        print(f"  order-4 column {pair}: {verdict} (report-only)")
    done(18, "order-3 columns are exactly the essential identities")


def test_verify_harness_is_green(universe):
    report = run_verify(9, 7, universe)
    assert report.ok, [c.id for c in report.failed]
    ids = [c.id for c in report.checks]
    assert len(ids) == len(set(ids))
    assert sum(1 for c in report.checks if c.status == "pass") == 19
    assert sum(1 for c in report.checks if c.status == "report") == 4
    assert not [c for c in report.checks if c.status == "skip"]


# sha256 of each survey check's computed text, recorded before the surveys
# closed one identity per mirror orbit
SURVEY_REPORT_DIGESTS = {
    "column-pairs-order3": "ec285b3de4166c2d54306be729e8f92f6314d3ca3bc8473b6b561dbf8702f0bb",
    "column-pairs-order4": "72ecfdf5f8b1670a2d85267391b5fdeee6e41b1fbf977c331621111930eeb406",
    "order4-sample-formula": "3085ff84ac36d9cfb55d59c63dd49daaf15bf4ee7bf78b741db3dd3fb66e99e1",
}


def test_survey_report_texts_are_pinned(universe):
    report = run_verify(9, 7, universe)
    digests = {
        c.id: hashlib.sha256(c.computed.encode()).hexdigest()
        for c in report.checks
        if c.id in SURVEY_REPORT_DIGESTS
    }
    assert digests == SURVEY_REPORT_DIGESTS


def test_verify_harness_bounded_run():
    report = run_verify(4)
    assert report.ok  # skipped checks never fail a bounded run
    statuses = {c.id: c.status for c in report.checks}
    assert statuses["classification-verdicts"] == "skip"
    assert statuses["catalan-ballot-tables"] == "pass"
    assert statuses["incidence-goldens"] == "pass"
