"""Skein polynomials, collision counts, series, and the convolution relations."""

import gc
import math
import operator
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterforge import (
    BadArity,
    IllFoundedRecursion,
    NonIntegralTerm,
    PowerSeries,
    SkeinPoly,
    Term,
    Universe,
    all_terms,
    catalan,
    catalan_convolution,
    catalan_general,
    catalan_relative,
    collision_groups,
    convolution_relation_check,
    np_recursion_check,
    parse_word,
    series_mixed,
    skein,
    skein_q,
    weighted_recurrence,
)
from iterforge import polynomials
from iterforge.polynomials import (
    b_complement,
    catalan_general_sequence,
    enumerate_trees_mixed,
    op_symbol,
    relation1_coefficients,
    relation2_check,
    relation3_estimate,
    skein_levels,
    skein_table,
)
from iterforge.verify import FAIL, PASS, check_generalized_catalan, check_skein

ONE = SkeinPoly({(0, 0): 1})

SKEIN_TABLE = {
    "x": {(0, 0): 1},
    "Vxx": {(1, 0): 1, (0, 1): 1},
    "VVxxx": {(2, 0): 1, (1, 1): 1, (0, 1): 1},
    "VxVxx": {(1, 0): 1, (1, 1): 1, (0, 2): 1},
    "VVVxxxx": {(3, 0): 1, (2, 1): 1, (1, 1): 1, (0, 1): 1},
    "VVxxVxx": {(2, 0): 1, (1, 1): 2, (0, 2): 1},
    "VVxVxxx": {(2, 0): 1, (2, 1): 1, (1, 2): 1, (0, 1): 1},
    "VxVVxxx": {(1, 0): 1, (2, 1): 1, (1, 2): 1, (0, 2): 1},
    "VxVxVxx": {(1, 0): 1, (1, 1): 1, (1, 2): 1, (0, 3): 1},
}


def test_skein_table_through_order_three():
    for word, coeffs in SKEIN_TABLE.items():
        assert skein(parse_word(word)) == SkeinPoly(coeffs), word


def test_skein_text_form():
    assert str(skein(parse_word("VVxxx"))) == "a^2 + a*b + b"
    assert str(skein(parse_word("VVxxVxx"))) == "a^2 + 2*a*b + b^2"
    assert str(SkeinPoly()) == "0"


def test_skein_homomorphism_rule():
    for n in range(1, 7):
        for t in all_terms(n):
            assert skein(t) == SkeinPoly.join(skein(t.left), skein(t.right))


def test_skein_at_one_one_counts_variables():
    for n in range(9):
        for t in all_terms(n):
            assert skein(t).evaluate(1, 1) == n + 1


def test_skein_collapses_on_complement_line():
    for n in range(9):
        for t in all_terms(n):
            assert skein(t).substitute_b_complement() == (1,)


def test_q_polynomial_relation():
    assert skein_q(parse_word("x")) == SkeinPoly()
    assert skein_q(parse_word("Vxx")) == ONE
    for n in range(9):
        for t in all_terms(n):
            q = skein_q(t)
            assert SkeinPoly.join(q, q) - q + ONE == skein(t)


def test_collision_groups(universe):
    levels = skein_levels(universe, 8)
    for n in range(4):
        assert all(len(g) == 1 for g in collision_groups(levels[n]).values())
    groups = collision_groups(levels[4])
    shared = SkeinPoly({(2, 0): 1, (1, 1): 1, (2, 1): 1, (1, 2): 1, (0, 2): 1})
    assert groups[shared] == (4, 7)
    assert all(labels == (4, 7) for labels in groups.values() if len(labels) > 1)
    for n in range(1, 9):
        sizes = [len(g) for g in collision_groups(levels[n]).values()]
        assert sum(sizes) == catalan(n)


def test_np_recursion(universe):
    levels = skein_levels(universe, 7)
    assert np_recursion_check(levels)
    with pytest.raises(ValueError):
        np_recursion_check(levels[:1])


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)), st.integers(-9, 9), max_size=12))
def test_b_complement_matches_the_binomial_expansion(coeffs):
    poly = SkeinPoly(coeffs)
    out = [0] * (max((s + t for s, t in poly.coeffs), default=0) + 1)
    for (s, t), c in poly.coeffs.items():
        for i in range(t + 1):
            out[s + i] += c * math.comb(t, i) * (-1) ** i
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    assert poly.substitute_b_complement() == tuple(out)


def tamper(levels, n):
    """`levels` with level n's first value replaced by its last."""
    level = levels[n]
    assert level[0] != level[-1]
    return levels[:n] + ((level[-1],) + level[1:],) + levels[n + 1:]


def test_np_recursion_fails_at_any_order(universe):
    levels = skein_levels(universe, 8)
    table = skein_table(universe, 8)
    assert np_recursion_check(levels) and np_recursion_check(table.levels, table.join)
    for n in (4, 8):
        assert not np_recursion_check(tamper(levels, n)), n
        assert not np_recursion_check(tamper(table.levels, n), table.join), n


def test_check_skein_builds_one_table(universe, monkeypatch):
    calls = []
    build = polynomials.skein_table

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(polynomials, "skein_table", counting_build)
    assert check_skein(universe, 9, 7).status == "pass"
    assert len(calls) == 1


def move_one_coefficient(table, x):
    """x with one unit of a^s b^t, t >= 1, moved to a^(s+1) b^(t-1): P(1,1)
    stays, the b := 1 - a line does not."""
    s, t, _ = next(d for d in table.digits(x) if d[1] >= 1)
    digit = table.bits * (s * table.stride + t)
    return x - (1 << digit) + (1 << digit + table.bits * (table.stride - 1))


@pytest.mark.parametrize("damage", ["evaluation", "recursion", "complement"])
def test_check_skein_fails_on_a_tampered_table(universe, monkeypatch, damage):
    build = polynomials.skein_table

    def tampered_build(*args):
        table = build(*args)
        levels = table.levels
        if damage == "evaluation":  # one int of level 8 one higher: P(1,1) = 10
            levels = levels[:8] + ((levels[8][0] + 1,) + levels[8][1:],)
        elif damage == "complement":  # one int of level 8 changed, its P(1,1) still 9
            moved = move_one_coefficient(table, levels[8][0])
            assert sum(c for _, _, c in table.digits(moved)) == 9
            assert b_complement(table.digits(moved)) != (1,)
            levels = levels[:8] + ((moved,) + levels[8][1:],)
        else:  # level 7's multiset changed, every P(1,1) still 8
            levels = tamper(levels, 7)
        return table._replace(levels=levels)

    monkeypatch.setattr(polynomials, "skein_table", tampered_build)
    assert check_skein(universe, 9, 7).status == FAIL


def test_packed_table_matches_term_oracle(universe):
    table = skein_table(universe, 9)
    assert table.levels[0] == (1,)
    for n, level in enumerate(table.levels):
        cat = universe.catalog(n)
        assert len(level) == len(cat)
        for i, x in enumerate(level, 1):
            assert x == table.pack(skein(cat.term(i))), (n, i)
            assert table.pack(table.unpack(x)) == x


def test_pack_rejects_a_polynomial_the_table_cannot_hold(universe):
    table = skein_table(universe, 3)
    assert (table.bits, table.stride) == (3, 4)
    for poly in (SkeinPoly({(4, 0): 1}), SkeinPoly({(0, 4): 1}), SkeinPoly({(1, 1): 8}), SkeinPoly({(1, 1): -1})):
        with pytest.raises(ValueError):
            table.pack(poly)


def test_packed_digits_never_overflow_at_order_12():
    table = skein_table(Universe(12), 12)
    assert table.bits == 4
    for x in set(table.levels[12]):
        coeffs = table.unpack(x).coeffs
        assert sum(coeffs.values()) == 13
        assert max(s + t for s, t in coeffs) <= 12


def test_label_table_matches_term_oracle(universe):
    levels = skein_levels(universe, 9)
    assert levels[0] == (ONE,)
    for n, level in enumerate(levels):
        cat = universe.catalog(n)
        assert level == tuple(skein(cat.term(i)) for i in range(1, len(cat) + 1)), n


def test_label_table_builds_no_terms(monkeypatch):
    made = []
    init = Term.__init__

    def counting_init(self, *children):
        made.append(children)
        init(self, *children)

    monkeypatch.setattr(Term, "__init__", counting_init)
    levels = skein_levels(Universe(9), 9)
    groups = collision_groups(levels[9])
    assert np_recursion_check(levels)
    assert made == []
    assert sum(len(labels) for labels in groups.values()) == catalan(9)


def test_equal_polynomials_hash_equal():
    forward = SkeinPoly({(2, 0): 1, (1, 1): -2, (0, 2): 3})
    backward = SkeinPoly({(0, 2): 3, (0, 0): 0, (1, 1): -2, (2, 0): 1, (5, 5): 0})
    assert forward == backward and hash(forward) == hash(backward)
    assert len({forward, backward}) == 1
    assert SkeinPoly({(1, 0): 0}) == SkeinPoly() and hash(SkeinPoly({(1, 0): 0})) == hash(SkeinPoly())


coeff_dicts = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3), max_size=6
)


@st.composite
def poly_pairs(draw):
    """Two signed coefficient dicts, where some b*right terms cancel a*left terms."""
    left = draw(coeff_dicts)
    right = draw(coeff_dicts)
    for (s, t), c in left.items():
        if t and draw(st.booleans()):
            right[(s + 1, t - 1)] = -c
    return left, right


@settings(deadline=None, database=None)
@given(poly_pairs())
def test_join_matches_plain_dict_oracle(pair):
    left, right = pair
    by_a = {(s + 1, t): c for (s, t), c in left.items()}
    by_b = {(s, t + 1): c for (s, t), c in right.items()}
    total = {k: by_a.get(k, 0) + by_b.get(k, 0) for k in by_a.keys() | by_b.keys()}
    expected = SkeinPoly(total)
    joined = SkeinPoly.join(SkeinPoly(left), SkeinPoly(right))
    assert joined == expected and hash(joined) == hash(expected)
    assert 0 not in joined.coeffs.values()


# -- series ------------------------------------------------------------------


def test_power_series_arithmetic():
    a = PowerSeries((1, 2, 3))
    b = PowerSeries((0, 1, 0))
    assert (a + b).coeffs == (1, 3, 3)
    assert (a * b).coeffs == (0, 1, 2)
    assert a.power(2).coeffs == (1, 4, 10)
    assert a.shift().coeffs == (0, 1, 2)


def test_power_series_shift_past_the_degree_keeps_it():
    assert PowerSeries((1, 2, 3)).shift(5).coeffs == (0, 0, 0)
    assert PowerSeries((1, 2, 3)).shift(3).coeffs == (0, 0, 0)
    assert PowerSeries((1, 2, 3)).shift(0).coeffs == (1, 2, 3)


def test_power_series_power_rejects_negative_e():
    with pytest.raises(ValueError):
        PowerSeries((1, 2)).power(-1)
    assert PowerSeries((1, 2)).power(0).coeffs == (1, 0)


def test_power_series_shift_rejects_negative_k():
    with pytest.raises(ValueError):
        PowerSeries((1, 2, 3)).shift(-1)


def test_power_series_product_truncates_at_the_smaller_degree():
    # as `+` does
    a, b = PowerSeries((1, 2, 3)), PowerSeries((1, 1))
    assert (a * b).coeffs == (b * a).coeffs == (1, 3)
    assert (a + b).coeffs == (2, 3)


def test_series_single_arity_matches_closed_form():
    for a in (2, 3, 4):
        phi = series_mixed([a], 12)
        for n in range(13):
            assert phi[n] == catalan_general(a, n), (a, n)
    assert series_mixed([2], 8).coeffs == tuple(catalan(n) for n in range(9))
    assert catalan_general(3, 3) == 12


def test_catalan_general_sequence_matches_closed_form():
    # every arity the cli accepts, and the cli's cap on N for the smallest and largest
    for a in range(2, 21):
        assert catalan_general_sequence(a, 300) == [catalan_general(a, n) for n in range(301)], a
    for a in (2, 20):
        assert catalan_general_sequence(a, 2000) == [catalan_general(a, n) for n in range(2001)], a
    assert catalan_general_sequence(3, 0) == [1]


def series_mixed_oracle(arities, degree: int) -> PowerSeries:
    """The fixpoint loop that preceded the shared powers: phi.power(a)
    recomputed for every arity in every round."""
    phi = PowerSeries.constant(1, degree)
    for _ in range(degree + 1):
        total = PowerSeries.constant(0, degree)
        for a in sorted(arities):
            total = total + phi.power(a)
        phi = PowerSeries.constant(1, degree) + total.shift(1)
    return phi


# the arities and degrees verify checks, and the cli's caps (at most three
# arities of at most 4 each, degree 100)
@pytest.mark.parametrize(
    "arities, degree",
    [([2], 12), ([3], 12), ([4], 12), ([2, 3], 7), ([2, 2], 8), ([4, 4, 4], 100), ([2, 3, 4], 100), ([4, 2], 30)],
)
def test_series_matches_power_per_arity_oracle(arities, degree):
    assert series_mixed(arities, degree) == series_mixed_oracle(arities, degree)


def test_series_rejects_bad_arity():
    with pytest.raises(BadArity):
        series_mixed([1], 4)
    with pytest.raises(BadArity):
        catalan_general(1, 4)
    with pytest.raises(BadArity):
        catalan_general_sequence(1, 4)
    with pytest.raises(BadArity):
        series_mixed([], 4)


def test_mixed_arities_match_enumeration():
    phi = series_mixed([2, 3], 7)
    for n in range(7):
        trees = list(enumerate_trees_mixed((2, 3), n))
        assert len(set(trees)) == len(trees) == phi[n]
    assert len(list(enumerate_trees_mixed((2, 3), 7))) == phi[7]


# The nested-tuple enumerator that preceded the prefix-word one, kept as
# the independent oracle: trees are (op_index, children...), leaves "x".


def tuple_trees_mixed(arities: tuple[int, ...], n: int) -> list:
    if n == 0:
        return ["x"]
    out = []
    for op_index, a in enumerate(arities):
        for forest in _tuple_forests(arities, a, n - 1):
            out.append((op_index, *forest))
    return out


def _tuple_forests(arities: tuple[int, ...], slots: int, budget: int) -> list:
    if slots == 0:
        return [()] if budget == 0 else []
    out = []
    for first in range(budget + 1):
        heads = tuple_trees_mixed(arities, first)
        for tail in _tuple_forests(arities, slots - 1, budget - first):
            for head in heads:
                out.append((head, *tail))
    return out


def tuple_to_word(tree) -> str:
    if tree == "x":
        return "x"
    return op_symbol(tree[0]) + "".join(tuple_to_word(child) for child in tree[1:])


def count_word_operations(word: str, arities: tuple[int, ...]) -> int:
    """Decode a prefix word symbol by symbol; return its number of
    operations, or raise if it is not exactly one complete tree."""
    arity = {op_symbol(i): a for i, a in enumerate(arities)}
    open_slots, operations = 1, 0
    for position, symbol in enumerate(word):
        if open_slots == 0:
            raise ValueError(f"{word!r}: trailing text at {position}")
        open_slots -= 1
        if symbol != "x":
            open_slots += arity[symbol]
            operations += 1
    if open_slots:
        raise ValueError(f"{word!r}: {open_slots} open slots at the end")
    return operations


# (2,) * 26 + (3,): the binary symbols lie below "x", the ternary one above
DIFFERENTIAL_ARITIES = [
    (2,), (3,), (5,), (2, 2), (2, 3), (2, 4), (2, 3, 4), (2, 3) * 6, (2,) * 30, (2,) * 26 + (3,),
]


@pytest.mark.parametrize("arities", DIFFERENTIAL_ARITIES)
def test_prefix_words_match_tuple_oracle(arities):
    n = 0
    while series_mixed(arities, n)[n] <= 5000:
        words = list(enumerate_trees_mixed(arities, n))
        assert words == sorted(tuple_to_word(t) for t in tuple_trees_mixed(arities, n)), n
        assert all(count_word_operations(w, arities) == n for w in words)
        n += 1
    assert n >= 2


def test_word_decoder_rejects_incomplete_words():
    for word in ("", "A", "Ax", "Axxx", "xx"):
        with pytest.raises(ValueError):
            count_word_operations(word, (2,))


def test_operation_symbols_distinct_past_ten():
    symbols = [op_symbol(i) for i in range(300)]
    assert len(set(symbols)) == 300 and "x" not in symbols
    assert all(len(s) == 1 for s in symbols)


def test_enumeration_rejects_bad_input():
    with pytest.raises(BadArity):
        enumerate_trees_mixed((2, 1), 3)
    with pytest.raises(BadArity):
        enumerate_trees_mixed((), 3)
    with pytest.raises(ValueError):
        enumerate_trees_mixed((2,), -1)


def test_enumeration_streams_level_n():
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_trees_mixed((2, 3), 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == series_mixed([2, 3], 7)[7] == 312066
    # holding level 7 as a list peaks near 27 MB
    assert peak < 12 * 10**6, peak


def _level_7_list_sizes(monkeypatch) -> list[int]:
    """The sizes of the lists the walk yields for level 7 of (2, 3)."""
    sizes = []
    walk = polynomials._walk

    def counted(cells, moves, prefix, slots, budget):
        for chunk in walk(cells, moves, prefix, slots, budget):
            if not prefix:  # the outermost walk: every list once
                sizes.append(len(chunk))
            yield chunk

    monkeypatch.setattr(polynomials, "_walk", counted)
    assert sum(1 for _ in enumerate_trees_mixed((2, 3), 7)) == sum(sizes) == 312066
    return sizes


def test_level_n_comes_in_few_lists(monkeypatch):
    sizes = _level_7_list_sizes(monkeypatch)
    # one list per word-completing suffix would make 312,066 lists
    assert len(sizes) < 10_000, len(sizes)


def test_level_n_streams_from_plain_lower_levels():
    # (word, size) tuples for the lower levels peak near 9 MB here, plain
    # word and size lists near 4.1 MB
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_trees_mixed((2, 3), 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 312066
    assert peak < 6 * 10**6, peak


def test_oracle_holds_top_level_as_text():
    # one str per word of level 6 peaks near 4.1 MB here, "\n"-joined runs
    # of level 6 near 2.3 MB
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_trees_mixed((2, 3), 7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 312066
    assert peak < 3 * 10**6, peak


@pytest.mark.parametrize("arities, n", [((2,) * 30, 3), ((2, 3), 7)])
def test_large_levels_increase_and_decode(arities, n):
    # past the tuple oracle's reach; 30 operations put symbols above "x"
    words = list(enumerate_trees_mixed(arities, n))
    assert len(words) == series_mixed(arities, n)[n]
    assert all(map(operator.lt, words, words[1:]))
    assert all(count_word_operations(w, arities) == n for w in words)


def test_dropped_level_stream_leaves_no_cycle():
    # a walk that closes over itself keeps the lower levels alive until a
    # cyclic collection runs
    gc.collect()
    gc.disable()
    try:
        words = enumerate_trees_mixed((2, 3), 6)
        assert sum(1 for _ in words) == 34970
        del words
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_level_n_lists_are_capped(monkeypatch):
    sizes = _level_7_list_sizes(monkeypatch)
    # a whole level held as one list would be 312,066 words
    assert max(sizes) <= 8192, max(sizes)


def _corrupt(words: list, kind: str, at: int) -> None:
    if kind == "repeat":
        words[at + 1] = words[at]
    elif kind == "drop":
        del words[at]
    else:
        words[at], words[at + 1] = words[at + 1], words[at]


def test_generalized_catalan_check_catches_bad_streams(monkeypatch):
    universe = Universe(1)
    assert check_generalized_catalan(universe, 9, 7).status == PASS
    enumerate_words = polynomials.enumerate_trees_mixed
    # position 4095 puts the fault across the check's batch boundary
    for kind in ("repeat", "drop", "swap"):
        for at in (5, 4095):

            def corrupted(arities, n, kind=kind, at=at):
                words = list(enumerate_words(arities, n))
                if n == 7:
                    _corrupt(words, kind, at)
                return iter(words)

            monkeypatch.setattr(polynomials, "enumerate_trees_mixed", corrupted)
            assert check_generalized_catalan(universe, 9, 7).status == FAIL, (kind, at)


@settings(deadline=None, database=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=3).map(tuple), st.integers(0, 4))
def test_enumeration_counts_agree(arities, n):
    words = list(enumerate_trees_mixed(arities, n))
    assert len(words) == series_mixed(arities, n)[n]
    assert len(set(words)) == len(words)
    assert all(map(operator.lt, words, words[1:]))
    assert all(count_word_operations(w, arities) == n for w in words)


def test_duplicate_arities_label_operations():
    # two binary operations: counts are 2^n times the single-operation counts
    phi = series_mixed([2, 2], 8)
    for n in range(9):
        assert phi[n] == 2**n * catalan(n)


# -- relative counting -------------------------------------------------------


def test_relative_sequence_reproduces_catalan():
    values = catalan_relative(lambda s, t: s + t + 1, {0: 1}, 8)
    assert values == [catalan(n) for n in range(9)]


def test_relative_sequence_sparse_law():
    values = catalan_relative(lambda s, t: s * s + t * t + 2, {0: 1}, 5)
    assert values[2] == 1
    assert values[3] == 0


def test_relative_sequence_zero_base():
    assert catalan_relative(lambda s, t: s + t + 1, {0: 0}, 5) == [0] * 6


def test_relative_sequence_rejects_ill_founded_law():
    with pytest.raises(IllFoundedRecursion):
        catalan_relative(lambda s, t: s + t, {0: 1}, 5)


def test_weighted_recurrence_non_integral():
    with pytest.raises(NonIntegralTerm) as caught:
        weighted_recurrence(1, 1, [1], 5)
    assert caught.value.n == 1
    with pytest.raises(ValueError):
        weighted_recurrence(1, 0, [1], 5)


def test_weighted_recurrence_report():
    terms = weighted_recurrence(2, 1, [1, 1], 10, strict=False)
    assert [t.value for t in terms[:3]] == [1, 1, Fraction(1, 3)]
    assert [t.integral for t in terms[:3]] == [True, True, False]
    assert len(terms) == 11
    for t in terms:
        assert t.integral == (t.value.denominator == 1)


# -- convolution relations ---------------------------------------------------


def test_convolution_base_case():
    for n in range(1, 16):
        assert catalan_convolution(1, n) == catalan(n)
    assert catalan_convolution(2, 2) == 1
    assert catalan_convolution(2, 5) == 28


def test_relation1_closed_form_matches_the_convolution():
    for lam in range(1, 16):
        coefficients = relation1_coefficients(lam)
        assert len(coefficients) == lam // 2 + 1
        for n in range(lam, 45):
            expansion = sum((-1) ** j * d * catalan(n - j) for j, d in enumerate(coefficients))
            assert expansion == catalan_convolution(lam, n), (lam, n)
    assert relation1_coefficients(4) == (1, 3, 1)


def test_relation2():
    for lam in range(1, 6):
        assert relation2_check(lam, 14)


def test_relation3_limit():
    ratio, limit = relation3_estimate(2, 30)
    assert limit == Fraction(3, 4)
    assert abs(float(ratio / limit) - 1) < 0.02
    assert relation3_estimate(1, 25)[0] == 1  # lam=1 is the defining recursion
    for lam in (2, 3):
        near, far = relation3_estimate(lam, 40)[0], relation3_estimate(lam, 12)[0]
        target = Fraction(lam + 1, 2**lam)
        assert abs(float(near / target) - 1) < abs(float(far / target) - 1)


def test_convolution_report_bundle():
    report = convolution_relation_check(2, 30)
    assert report.convolution == catalan_convolution(2, 30)
    assert report.relation1 == relation1_coefficients(2) == (1, 1)
    assert (report.relation3_ratio, report.relation3_limit) == relation3_estimate(2, 30)
    assert report.relation2_ok
    assert report.relation3_relative_error < 0.02
    with pytest.raises(ValueError):
        convolution_relation_check(5, 3)
