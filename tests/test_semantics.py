"""Closure engine, classnumbers, classification, and the class algebra."""

import copy
import hashlib
import json
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterforge import (
    ClosureConfig,
    CompositionNotWellDefined,
    IdentitySpec,
    InvalidSpec,
    OrderOverflow,
    UnknownLabel,
    Universe,
    all_terms,
    catalan,
    classify_identity,
    classnumbers,
    close,
    column_pair_survey,
    compose_classes,
    formal_cascade,
    h_formula_a,
    h_formula_b,
    implication_pairs,
    parse_word,
    semantics,
    singletons,
    unicity_bounds_check,
)
from iterforge.incidence import MODE_AB, delta_oracle
from iterforge.semantics import (
    ESSENTIAL_UP_TO,
    FORMALLY_REDUCIBLE,
    MODE_A,
    MODE_B,
    SEMANTICALLY_REDUCIBLE,
    ClosureState,
    Verdict,
    class_handle,
    find_witness_chain,
    order4_formula_survey,
    order4_sample_formula,
    replay,
)
from iterforge.render import closure_record, closure_text
from iterforge.semantics import _saturate as worklist_saturate
from iterforge.semantics import _seed, _verdict_kind
from iterforge.terms import LEAF, Term, substitute_cherry

ORDER3_PAIRS = list(combinations(range(1, 6), 2))

# order-3 classnumber/singleton table, defining order through order 5
ORDER3_TABLE = {
    (1, 2): ((4, 8, 16), (3, 5, 8)),
    (1, 3): ((4, 8, 16), (3, 5, 8)),
    (1, 4): ((4, 8, 16), (3, 4, 5)),
    (1, 5): ((4, 8, 14), (3, 4, 5)),
    (2, 3): ((4, 8, 14), (3, 4, 5)),
    (2, 4): ((4, 8, 14), (3, 4, 5)),
    (2, 5): ((4, 8, 16), (3, 5, 8)),
    (3, 4): ((4, 8, 16), (3, 4, 5)),
    (3, 5): ((4, 8, 16), (3, 4, 5)),
    (4, 5): ((4, 8, 16), (3, 5, 8)),
}


def classes_as_sets(state, order):
    return {frozenset(c) for c in state.classes(order)}


def brute_force_classnumbers(universe, spec, n_max):
    """Independent oracle: breadth-first closure over raw term pairs.

    Generates, from each known equal pair, its cherry substitutions and both
    root extensions, then counts classes per order with a dict-based
    union-find over terms.  The catalog is used only to read off the
    defining pair; no tableaux are involved.
    """
    parent = {}

    def find(t):
        while parent.get(t, t) != t:
            t = parent[t]
        return t

    cat = universe.catalog(spec.order)
    base = [(cat.term(i), cat.term(j)) for i, j in spec.pairs]
    seen = set(base)
    queue = deque(base)
    while queue:
        p, q = queue.popleft()
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq
        if p.order >= n_max:
            continue
        derived = [
            (substitute_cherry(p, k), substitute_cherry(q, k))
            for k in range(1, p.order + 2)
        ]
        derived.append((Term(p, LEAF), Term(q, LEAF)))
        derived.append((Term(LEAF, p), Term(LEAF, q)))
        for pair in derived:
            if pair not in seen and (pair[1], pair[0]) not in seen:
                seen.add(pair)
                queue.append(pair)
    return {
        m: len({find(t) for t in all_terms(m)}) for m in range(spec.order, n_max + 1)
    }


# -- closure goldens ---------------------------------------------------------


def brute_force_unicity_classnumbers(universe, spec, n_max):
    """Second independent oracle: naive quadratic fixpoint over raw terms
    with the cancellation laws.

    Every same-class pair is re-examined each sweep; upward generators and
    flank cancellations are applied pairwise until nothing changes.  No
    catalogs, grids, or grouping shortcuts.
    """
    parent = {}

    def find(t):
        while parent.get(t, t) != t:
            t = parent[t]
        return t

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    cat = universe.catalog(spec.order)
    for i, j in spec.pairs:
        union(cat.term(i), cat.term(j))
    ground = {m: all_terms(m) for m in range(n_max + 1)}
    changed = True
    while changed:
        changed = False
        for m in range(1, n_max + 1):
            classes = {}
            for t in ground[m]:
                classes.setdefault(find(t), []).append(t)
            for members in classes.values():
                for t, v in combinations(members, 2):
                    if m < n_max:
                        for k in range(1, m + 2):
                            changed |= union(substitute_cherry(t, k), substitute_cherry(v, k))
                        changed |= union(Term(t, LEAF), Term(v, LEAF))
                        changed |= union(Term(LEAF, t), Term(LEAF, v))
                    if t.left.order == v.left.order and find(t.left) == find(v.left):
                        changed |= union(t.right, v.right)
                    if t.right.order == v.right.order and find(t.right) == find(v.right):
                        changed |= union(t.left, v.left)
    return {m: len({find(t) for t in ground[m]}) for m in range(1, n_max + 1)}


def test_unicity_closure_matches_naive_term_oracle(universe):
    for pair in [(1, 5), (2, 3), (1, 4), (3, 5)]:
        spec = IdentitySpec.of(3, pair)
        state = close(spec, ClosureConfig(6, "AB", True), universe)
        expected = brute_force_unicity_classnumbers(universe, spec, 6)
        assert {m: state.classnumber(m) for m in range(1, 7)} == expected, pair


def test_closure_2_4_substitution_only(universe):
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(4, "A", False), universe)
    assert classes_as_sets(state, 4) == {
        frozenset(c)
        for c in ([1], [2, 4, 12], [3], [5, 10], [6], [7, 9], [8], [11], [13], [14])
    }
    assert state.classnumber(4) == 10


def test_closure_2_4_combined(universe):
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(4, "AB", False), universe)
    assert classes_as_sets(state, 4) == {
        frozenset(c)
        for c in ([1], [2, 4, 12], [3, 8], [5, 10, 13], [6], [7, 9], [11], [14])
    }
    assert state.classnumber(4) == 8


def test_closure_1_5_combined(universe):
    state = close(IdentitySpec.of(3, (1, 5)), ClosureConfig(5, "AB", False), universe)
    assert classes_as_sets(state, 4) == {
        frozenset(c)
        for c in ([1, 5, 11], [2, 9, 14], [3, 13], [4], [6, 10], [7], [8], [12])
    }
    assert classes_as_sets(state, 5) == {
        frozenset(c)
        for c in (
            [1, 5, 8, 11, 20, 24, 29, 33, 36, 40, 42],
            [2, 9, 14, 30],
            [3, 13, 22, 38],
            [4, 26, 41],
            [6, 10, 34],
            [7, 32, 37],
            [12],
            [15, 19, 25],
            [16, 23, 28, 39],
            [17, 27],
            [18],
            [21],
            [31],
            [35],
        )
    }
    assert classnumbers(state) == [4, 8, 14]


def test_closure_matches_brute_force_oracle(universe):
    for pair in ORDER3_PAIRS:
        spec = IdentitySpec.of(3, pair)
        state = close(spec, ClosureConfig(6, "AB", False), universe)
        expected = brute_force_classnumbers(universe, spec, 6)
        assert {m: state.classnumber(m) for m in range(3, 7)} == expected, pair


def test_closure_order4_matches_brute_force_oracle(universe):
    for pair in [(11, 14), (1, 9), (4, 7)]:
        spec = IdentitySpec.of(4, pair)
        state = close(spec, ClosureConfig(7, "AB", False), universe)
        expected = brute_force_classnumbers(universe, spec, 7)
        assert {m: state.classnumber(m) for m in range(4, 8)} == expected, pair


def test_closure_multi_pair_matches_brute_force(universe):
    spec = IdentitySpec.of(3, (1, 4), (3, 5))
    state = close(spec, ClosureConfig(6, "AB", False), universe)
    expected = brute_force_classnumbers(universe, spec, 6)
    assert {m: state.classnumber(m) for m in range(3, 7)} == expected
    # both defining identities together force total collapse from order 5 on
    assert [state.classnumber(m) for m in (3, 4, 5, 6)] == [3, 3, 1, 1]


def test_order3_table(universe):
    for pair, (hs, single) in ORDER3_TABLE.items():
        state = close(IdentitySpec.of(3, pair), ClosureConfig(5, "AB", False), universe)
        assert tuple(state.classnumber(m) for m in (3, 4, 5)) == hs, pair
        assert tuple(singletons(state, m) for m in (3, 4, 5)) == single, pair


def test_order3_table_extended_recomputation(universe):
    # the hand-computed h_6/h_7 column contains slips; the recomputed values
    # are pinned here, cross-checked by the brute-force oracle above
    expected = {
        (1, 2): (32, 64), (1, 3): (32, 64), (1, 4): (32, 64),
        (1, 5): (20, 19), (2, 3): (21, 29), (2, 4): (21, 29),
        (2, 5): (32, 64), (3, 4): (32, 64), (3, 5): (32, 64), (4, 5): (32, 64),
    }
    for pair, (h6, h7) in expected.items():
        state = close(IdentitySpec.of(3, pair), ClosureConfig(7, "AB", False), universe)
        assert (state.classnumber(6), state.classnumber(7)) == (h6, h7), pair


def test_lower_orders_stay_discrete_without_unicity(universe):
    state = close(IdentitySpec.of(4, (1, 9)), ClosureConfig(6, "AB", False), universe)
    for m in range(1, 4):
        assert state.classnumber(m) == catalan(m)


def test_classnumber_formulas(universe):
    for pair in ORDER3_PAIRS:
        state_a = close(IdentitySpec.of(3, pair), ClosureConfig(6, "A", False), universe)
        state_b = close(IdentitySpec.of(3, pair), ClosureConfig(6, "B", False), universe)
        for k in range(4):
            assert state_a.classnumber(3 + k) == h_formula_a(3, k), (pair, k)
            assert state_b.classnumber(3 + k) == h_formula_b(3, k), (pair, k)
    assert h_formula_a(3, 1) == 10
    assert h_formula_a(3, 0) == 4
    assert h_formula_b(3, 2) == 38


def test_closures_at_the_order_cap(universe):
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(9, "A", False), universe)
    for k in range(7):
        assert state.classnumber(3 + k) == h_formula_a(3, k)
    state = close(IdentitySpec.of(3, (1, 4)), ClosureConfig(9, "AB", True), universe)
    assert [state.classnumber(m) for m in range(3, 10)] == [2**m for m in range(2, 9)]
    for m in range(1, 3):
        assert state.classnumber(m) == catalan(m)  # still no lower-order law


def test_combined_mode_never_coarser_than_a_only(universe):
    for pair in ORDER3_PAIRS:
        state_a = close(IdentitySpec.of(3, pair), ClosureConfig(7, "A", False), universe)
        state_ab = close(IdentitySpec.of(3, pair), ClosureConfig(7, "AB", False), universe)
        for m in range(3, 8):
            assert state_ab.classnumber(m) <= state_a.classnumber(m)


def test_closure_is_deterministic(universe):
    spec = IdentitySpec.of(3, (2, 4))
    cfg = ClosureConfig(6, "AB", True)
    first = close(spec, cfg, universe)
    second = close(spec, cfg, universe)
    assert first.log == second.log
    for m in range(7):
        assert first.classes(m) == second.classes(m)


def test_replay_reproduces_partitions(universe):
    for pair, unicity in [((2, 4), False), ((1, 5), True), ((1, 4), True)]:
        state = close(IdentitySpec.of(3, pair), ClosureConfig(6, "AB", unicity), universe)
        assert replay(universe, state)


def test_replay_rejects_swapped_cancellation_entries(universe):
    state = close(IdentitySpec.of(3, (1, 5)), ClosureConfig(6, "AB", True), universe)
    for rule in ("cancel-left", "cancel-right"):
        i = next(i for i, merge in enumerate(state.log) if merge.rule == rule)
        forged = copy.copy(state)
        forged.log = list(state.log)
        forged.log[i] = state.log[i]._replace(a=state.log[i].b, b=state.log[i].a)
        assert replay(universe, forged) is False, rule
    assert replay(universe, state) is True


def test_invalid_specs(universe):
    with pytest.raises(InvalidSpec):
        close(IdentitySpec.of(3, (1, 1)), ClosureConfig(5), universe)
    with pytest.raises(InvalidSpec):
        close(IdentitySpec.of(3, (1, 6)), ClosureConfig(5), universe)
    with pytest.raises(InvalidSpec):
        close(IdentitySpec.of(6, (1, 2)), ClosureConfig(5), universe)
    with pytest.raises(InvalidSpec):
        close(IdentitySpec.of(3, (1, 2)), ClosureConfig(5, mode="X"), universe)


# -- classification ----------------------------------------------------------


def test_classification_verdicts(universe):
    assert classify_identity(universe, 3, (1, 2), 7).kind == FORMALLY_REDUCIBLE
    for pair in [(1, 5), (2, 3), (2, 4)]:
        verdict = classify_identity(universe, 3, pair, 7)
        assert verdict.kind == SEMANTICALLY_REDUCIBLE, pair
        assert verdict.witness is not None
        assert verdict.witness[-1][0] < 3
    for pair in [(1, 4), (3, 5)]:
        verdict = classify_identity(universe, 3, pair, 7)
        assert verdict.kind == ESSENTIAL_UP_TO, pair
        assert str(verdict) == "essential-up-to 7"


def test_associativity_witness_chain(universe):
    verdict = classify_identity(universe, 3, (1, 5), 7)
    assert verdict.witness == ((5, 8, 11), (4, 4, 5), (2, 1, 2))


def test_witness_chains_are_valid_cascades(universe):
    for pair in [(1, 5), (2, 3), (2, 4)]:
        witness = classify_identity(universe, 3, pair, 7).witness
        order, i, j = witness[0]
        assert formal_cascade(universe, order, i, j)[: len(witness)] == witness
        state = close(
            IdentitySpec.of(3, pair), ClosureConfig(7, "AB", True), universe
        )
        for order, a, b in witness:
            assert state.same_class(order, a, b)


def test_cascade_examples(universe):
    chain = formal_cascade(universe, 5, 8, 11)
    assert chain == ((5, 8, 11), (4, 4, 5), (2, 1, 2))
    assert formal_cascade(universe, 3, 1, 2) == ((3, 1, 2),)


def test_implication_pair_counts(universe):
    for n, k in [(3, 2), (4, 2), (5, 2), (4, 3), (5, 3), (5, 4)]:
        count, pairs = implication_pairs(universe, n, k)
        expected = (n - k + 1) * catalan(n - k) * catalan(k) * (catalan(k) - 1) // 2
        assert count == len(pairs) == expected, (n, k)


def test_implication_pair_contents(universe):
    count, pairs = implication_pairs(universe, 5, 2)
    assert (8, 11) in pairs
    assert implication_pairs(universe, 4, 2)[1] == (
        (1, 6), (2, 7), (4, 5), (8, 11), (9, 12), (13, 14),
    )
    with pytest.raises(ValueError):
        implication_pairs(universe, 4, 4)


def test_implication_pairs_match_the_chain_definition(universe):
    # the definition: the pair's full `formal_cascade` chain visits order k
    for n in range(3, 7):
        pairs = list(combinations(range(1, catalan(n) + 1), 2))
        chains = [formal_cascade(universe, n, i, j) for i, j in pairs]
        for k in range(2, n):
            expected = tuple(
                pair for pair, chain in zip(pairs, chains) if any(order == k for order, _, _ in chain[1:])
            )
            assert implication_pairs(universe, n, k) == (len(expected), expected), (n, k)


# -- the class algebra -------------------------------------------------------


def test_compose_classes_base_case(universe):
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(5, "AB", False), universe)
    leaf_class = class_handle(state, 0, 1)
    assert compose_classes(universe, state, leaf_class, leaf_class) == (1, 1)


def test_compose_classes_well_defined_exhaustively(universe):
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(5, "AB", False), universe)
    for p in range(5):
        for q in range(5):
            if p + q + 1 > 5:
                continue
            p_handles = {class_handle(state, p, c[0]) for c in state.classes(p)}
            q_handles = {class_handle(state, q, c[0]) for c in state.classes(q)}
            for hp in p_handles:
                for hq in q_handles:
                    compose_classes(universe, state, hp, hq)  # raises if scattered


def evaluate_shape(universe, state, shape, args):
    """Evaluate a term shape over the class algebra, feeding the argument
    classes to the leaves left to right."""
    feed = iter(args)

    def walk(t):
        if t.is_leaf:
            return next(feed)
        return compose_classes(universe, state, walk(t.left), walk(t.right), verify=False)

    result = walk(shape)
    leftover = next(feed, None)
    if leftover is not None:
        raise ValueError("more argument classes than leaves")
    return result


def test_compose_classes_satisfies_defining_identity(universe):
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(5, "AB", False), universe)
    lhs_shape = parse_word("VVxxVxx")  # label 2 at order 3
    rhs_shape = parse_word("VxVVxxx")  # label 4 at order 3
    arg_pool = [class_handle(state, 0, 1), class_handle(state, 1, 1)] + [
        class_handle(state, 2, c[0]) for c in state.classes(2)
    ]
    for slot in range(4):
        for extra in arg_pool:
            args = [class_handle(state, 0, 1)] * 4
            args[slot] = extra
            total = sum(order for order, _ in args) + 3
            if total > 5:
                continue
            assert evaluate_shape(universe, state, lhs_shape, args) == evaluate_shape(
                universe, state, rhs_shape, args
            )


def test_compose_classes_order_overflow(universe):
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(5, "AB", False), universe)
    h3 = class_handle(state, 3, 1)
    with pytest.raises(OrderOverflow):
        compose_classes(universe, state, h3, h3)


def test_compose_classes_rejects_a_representative_outside_its_order(universe):
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(5, "AB", False), universe)
    # S_0 = S_1 = 1 and S_2 = 2: each of these keys would rank into a neighbouring block
    for cls_p, cls_q in (((1, 2), (1, 1)), ((1, 1), (1, 2)), ((2, 3), (0, 1)), ((0, 2), (2, 1)), ((1, 0), (1, 1))):
        with pytest.raises(UnknownLabel):
            compose_classes(universe, state, cls_p, cls_q, verify=False)


# -- cancellation-law consequences -------------------------------------------


def test_unicity_bounds_order3(universe):
    # bounds on each identity's own class system at the defining order; a
    # system that cancellation collapses below its order voids the premise
    for pair in ORDER3_PAIRS:
        state = close(IdentitySpec.of(3, pair), ClosureConfig(3, "AB", False), universe)
        report = unicity_bounds_check(universe, state)
        assert report.ok, (pair, report)
        assert report.classnumber == catalan(3) - 1 >= catalan(2)
        assert report.min_class_size == 1


def test_unicity_bounds_order4(universe):
    for pair in combinations(range(1, 15), 2):
        state = close(IdentitySpec.of(4, pair), ClosureConfig(4, "AB", False), universe)
        report = unicity_bounds_check(universe, state)
        assert report.ok, (pair, report)
        assert report.classnumber == catalan(4) - 1 >= catalan(3)


def test_unicity_bounds_survive_cancellation_for_essential_pairs(universe):
    for pair in [(1, 4), (3, 5)]:
        state = close(IdentitySpec.of(3, pair), ClosureConfig(7, "AB", True), universe)
        report = unicity_bounds_check(universe, state)
        assert report.ok, (pair, report)


def test_column_pair_survey_order3(universe):
    survey = column_pair_survey(universe, 3, 7)
    assert survey.column_pairs == ((1, 4), (3, 5))
    assert survey.essential_columns == ((1, 4), (3, 5))
    assert set(survey.other_pairs) == {(1, 5), (2, 3), (2, 4)}
    assert survey.essential_others == ()
    assert all(v.kind == SEMANTICALLY_REDUCIBLE for v in survey.other_verdicts)


def test_column_pairs_order4(universe):
    survey = column_pair_survey(universe, 4, 5)
    assert survey.column_pairs == ((1, 9), (3, 10), (6, 12), (8, 13), (11, 14))


@pytest.mark.parametrize("bound", [5, 6, 7])
@pytest.mark.parametrize("n", [3, 4])
def test_survey_verdicts_match_classify_without_witnesses(universe, n, bound):
    survey = column_pair_survey(universe, n, bound)
    pairs = survey.column_pairs + survey.other_pairs
    verdicts = survey.column_verdicts + survey.other_verdicts
    assert all(v.witness is None and v.bound == bound for v in verdicts)
    for pair, verdict in zip(pairs, verdicts):
        assert verdict.kind == classify_identity(universe, n, pair, bound).kind, pair


def test_classify_witnesses_match_benchmark_reference(universe):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())["classify"]
    assert reference
    for key, expected in reference.items():
        n, pair, bound = key.split("|")
        i, j = map(int, pair.split("-"))
        verdict = classify_identity(universe, int(n), (i, j), int(bound))
        witness = [list(step) for step in verdict.witness] if verdict.witness else None
        assert [verdict.kind, witness] == expected, key


def test_order4_formula_survey(universe):
    survey = order4_formula_survey(universe, 7)
    assert survey.expected == (5, 13, 35, 96, 269)
    assert order4_sample_formula(4) == 13
    assert len(survey.sequences) == 91
    # the formula's h_7 = 269 is attained by no identity (every computed
    # value lands in 264..267 or 274..275); through order 6 it fits 79
    assert survey.full_matches == ()
    through6 = survey.matching_through(6)
    assert (11, 14) in through6 and (1, 9) in through6
    assert len(through6) == 79
    assert survey.sequences[(11, 14)] == (5, 13, 35, 96, 267)


def mirror_pair(universe, n, pair):
    mirror = universe.mirror(n)
    a, b = (mirror[x - 1] for x in pair)
    return min(a, b), max(a, b)


@pytest.mark.parametrize(("n", "bound"), [(3, 9), (4, 8)])
def test_mirror_images_share_classnumbers_and_verdicts(universe, n, bound):
    # the evidence the surveys' one-closure-per-orbit shortcut rests on
    configs = [ClosureConfig(bound, mode, False) for mode in (MODE_A, MODE_B, MODE_AB)]
    configs.append(ClosureConfig(bound, MODE_AB, True))
    outcome = {}
    for pair in combinations(range(1, catalan(n) + 1), 2):
        spec = IdentitySpec.of(n, pair)
        numbers = tuple(tuple(classnumbers(close(spec, config, universe))) for config in configs)
        outcome[pair] = numbers, _verdict_kind(universe, spec, bound)
    assert len(outcome) == catalan(n) * (catalan(n) - 1) // 2
    for pair, result in outcome.items():
        assert outcome[mirror_pair(universe, n, pair)] == result, pair


@pytest.mark.parametrize(("n", "bound"), [(3, 7), (4, 6)])
def test_mirror_images_share_singletons_and_bounds(universe, n, bound):
    # what verify's per-orbit checks read: classnumbers and singleton counts
    # at every order, and the unicity bounds at the defining order
    configs = [ClosureConfig(bound, mode, False) for mode in (MODE_A, MODE_B, MODE_AB)]
    configs.append(ClosureConfig(bound, MODE_AB, True))
    outcome = {}
    for pair in combinations(range(1, catalan(n) + 1), 2):
        states = [close(IdentitySpec.of(n, pair), config, universe) for config in configs]
        outcome[pair] = [
            (
                [state.classnumber(m) for m in range(bound + 1)],
                [state.singleton_count(m) for m in range(bound + 1)],
                unicity_bounds_check(universe, state),
            )
            for state in states
        ]
    for pair, result in outcome.items():
        assert outcome[mirror_pair(universe, n, pair)] == result, pair


def test_surveys_close_one_identity_per_mirror_orbit(universe, monkeypatch):
    closed = []

    def counted(original):
        def call(*args):
            closed.extend(arg.pairs for arg in args if isinstance(arg, IdentitySpec))
            return original(*args)

        return call

    monkeypatch.setattr(semantics, "_verdict_kind", counted(_verdict_kind))
    monkeypatch.setattr(semantics, "close", counted(close))
    for n, pairs, orbits in ((3, 5, 3), (4, 40, 23)):
        closed.clear()
        survey = column_pair_survey(universe, n, 5)
        assert len(survey.column_pairs + survey.other_pairs) == pairs
        assert len(closed) == len(set(closed)) == orbits, n
    closed.clear()
    assert len(order4_formula_survey(universe, 5).sequences) == 91
    assert len(closed) == len(set(closed)) == 49


def test_formula_survey_matches_per_pair_closures(universe):
    survey = order4_formula_survey(universe, 7)
    assert list(survey.sequences) == list(combinations(range(1, 15), 2))
    for pair, sequence in survey.sequences.items():
        state = close(IdentitySpec.of(4, pair), ClosureConfig(7, MODE_AB, False), universe)
        assert sequence == tuple(state.classnumber(m) for m in range(3, 8)), pair


# -- reports -----------------------------------------------------------------


def test_closure_record_and_text(universe):
    state = close(IdentitySpec.of(3, (2, 4)), ClosureConfig(4, "AB", False), universe)
    record = closure_record(state)
    assert record["spec"] == {"order": 3, "pairs": [[2, 4]]}
    assert record["config"] == {"max_order": 4, "mode": "AB", "unicity": False}
    assert record["per_order"]["4"]["h"] == 8
    assert record["per_order"]["4"]["classes"] == state.classes(4)
    assert any(d["rule"] == "identity" for d in record["derivations"])
    text = closure_text(state)
    assert "order 4: h=8" in text
    assert "{2 4 12}" in text


def full_bound_witness_chain(universe, spec, bound):
    """`find_witness_chain` as it was before the per-order scan, kept as its
    oracle: close without cancellation to the full bound, then alternate a
    scan of every order with a round of verbatim-flank cancellations."""
    n = spec.order
    state = close(spec, ClosureConfig(bound, MODE_AB, unicity=False), universe)
    for _ in range(bound + 1):
        for m in range(n, bound + 1):
            for members in state.classes(m):
                for x, y in combinations(members, 2):
                    chain = formal_cascade(universe, m, x, y)
                    below = [idx for idx, (order, _, _) in enumerate(chain) if order < n]
                    if below:
                        return chain[: below[0] + 1]
        if not verbatim_cancellation_round(universe, state):
            return None
        worklist_saturate(state, universe)
    return None


def verbatim_cancellation_round(universe, state):
    """One round of cancellations on verbatim-equal flanks, in class order."""
    changed = False
    for m in range(2, state.config.max_order + 1):
        decomp = universe.decompositions(m)
        for members in state.classes(m):
            by_left, by_right = {}, {}
            for x in members:
                lo, la, ro, rb = decomp[x - 1]
                by_left.setdefault((lo, la), []).append(x)
                by_right.setdefault((ro, rb), []).append(x)
            for _, xs in sorted(by_left.items()):
                for x, y in zip(xs, xs[1:]):
                    _, _, ro, rb = decomp[x - 1]
                    changed |= state._union(ro, rb, decomp[y - 1][3], "cancel-left", (m, x, y))
            for _, xs in sorted(by_right.items()):
                for x, y in zip(xs, xs[1:]):
                    lo, la, _, _ = decomp[x - 1]
                    changed |= state._union(lo, la, decomp[y - 1][1], "cancel-right", (m, x, y))
    return changed


WITNESS_CASES = [(3, b) for b in range(4, 10)] + [(4, b) for b in range(5, 9)] + [(5, b) for b in range(6, 9)]


@pytest.mark.parametrize(("n", "bound"), WITNESS_CASES)
def test_classify_matches_full_bound_witness_oracle(universe, n, bound):
    # kinds too: a pair that is not formally reducible is semantically
    # reducible exactly when the full-bound search finds a witness
    cat = universe.catalog(n)
    for pair in combinations(range(1, catalan(n) + 1), 2):
        if delta_oracle(cat.term(pair[0]), cat.term(pair[1]), MODE_AB):
            expected = Verdict(FORMALLY_REDUCIBLE, bound)
        else:
            witness = full_bound_witness_chain(universe, IdentitySpec.of(n, pair), bound)
            expected = Verdict(ESSENTIAL_UP_TO if witness is None else SEMANTICALLY_REDUCIBLE, bound, witness)
        assert classify_identity(universe, n, pair, bound) == expected, pair


def test_witness_search_returns_none_for_essential(universe):
    assert find_witness_chain(universe, IdentitySpec.of(3, (1, 4)), 7) is None


def test_classify_rejects_reflexive_pair(universe):
    with pytest.raises(InvalidSpec, match="reflexive"):
        classify_identity(universe, 3, (1, 1), 7)


# -- the Term-walking cascade, kept as the oracle ----------------------------


def term_cascade(universe, order, i, j):
    """formal_cascade over Term trees: compare flanks structurally and look
    the remaining flanks up in their catalogs."""
    cat = universe.catalog(order)
    t, u = cat.term(i), cat.term(j)
    chain = [(order, i, j)]
    while not t.is_leaf and not u.is_leaf:
        if t.left == u.left:
            t, u = t.right, u.right
        elif t.right == u.right:
            t, u = t.left, u.left
        else:
            break
        sub = universe.catalog(t.order)
        chain.append((t.order, sub.label_of(t), sub.label_of(u)))
    return tuple(chain)


def test_formal_cascade_matches_term_oracle(universe):
    for order in (3, 4, 5):
        size = catalan(order)
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                assert formal_cascade(universe, order, i, j) == term_cascade(universe, order, i, j)


# -- the round-based closure, kept as the oracle -----------------------------


def round_based_close(spec, config, universe):
    """Round-based closure: rescan every class at every order until a
    whole round merges nothing."""
    sizes = [len(universe.catalog(m)) for m in range(config.max_order + 1)]
    state = ClosureState(spec, config, sizes)
    for i, j in spec.pairs:
        state._union(spec.order, i, j, "identity", None)
    _saturate(state, universe)
    return state


def _saturate(state: ClosureState, universe: Universe) -> None:
    config = state.config
    while True:
        changed = False
        for m in range(1, config.max_order + 1):
            for members in state.classes(m):
                if len(members) < 2:
                    continue
                if m < config.max_order:
                    changed |= _apply_tableaux(state, universe, m, members)
                if config.unicity:
                    changed |= _apply_cancellation(state, universe, m, members)
        if not changed:
            return


def _apply_tableaux(state: ClosureState, universe: Universe, m: int, members: list[int]) -> bool:
    """Merge the order-(m+1) column entries over a class of order-m labels."""
    mode = state.config.mode
    changed = False
    rows_a = universe.tableau_a(m + 1) if mode in (MODE_A, MODE_AB) else ()
    rows_b = universe.tableau_b(m + 1) if mode in (MODE_B, MODE_AB) else ()
    for x, y in zip(members, members[1:]):
        for line, row in enumerate(rows_a, start=1):
            changed |= state._union(m + 1, row[x - 1], row[y - 1], "tableau-A", (m, x, y, line))
        for line, row in enumerate(rows_b, start=1):
            changed |= state._union(m + 1, row[x - 1], row[y - 1], "tableau-B", (m, x, y, line))
    return changed


def _apply_cancellation(state: ClosureState, universe: Universe, m: int, members: list[int]) -> bool:
    """Within one class, cancel flanks that already compare equal.

    Members are grouped by (flank order, flank class); all members of a
    group must then agree on the other flank, which merges those labels
    one order down.  Formal equality of flanks is the special case of a
    discrete class.
    """
    decomp = universe.decompositions(m)
    by_left: dict[tuple[int, int], list[int]] = {}
    by_right: dict[tuple[int, int], list[int]] = {}
    for x in members:
        lo, la, ro, rb = decomp[x - 1]
        by_left.setdefault((lo, state.find(lo, la)), []).append(x)
        by_right.setdefault((ro, state.find(ro, rb)), []).append(x)
    changed = False
    for (_, _), xs in sorted(by_left.items()):
        if len(xs) < 2:
            continue
        for x, y in zip(xs, xs[1:]):
            ro = decomp[x - 1][2]
            changed |= state._union(
                ro, decomp[x - 1][3], decomp[y - 1][3], "cancel-left", (m, x, y)
            )
    for (_, _), xs in sorted(by_right.items()):
        if len(xs) < 2:
            continue
        for x, y in zip(xs, xs[1:]):
            lo = decomp[x - 1][0]
            changed |= state._union(
                lo, decomp[x - 1][1], decomp[y - 1][1], "cancel-right", (m, x, y)
            )
    return changed


CLOSURE_MODES = [("A", False), ("B", False), ("AB", False), ("AB", True)]


def single_pair_specs(order):
    return [IdentitySpec.of(order, pair) for pair in combinations(range(1, catalan(order) + 1), 2)]


@pytest.mark.parametrize("mode,unicity", CLOSURE_MODES)
def test_worklist_closure_matches_round_based_oracle(universe, mode, unicity):
    runs = [(spec, 7) for spec in single_pair_specs(3) + single_pair_specs(4)]
    runs += [(spec, 8) for spec in single_pair_specs(3)]
    for spec, bound in runs:
        config = ClosureConfig(bound, mode, unicity)
        state = close(spec, config, universe)
        expected = round_based_close(spec, config, universe)
        for m in range(bound + 1):
            assert state.classes(m) == expected.classes(m), (spec, config, m)
        assert replay(universe, state) is True, (spec, config)


# sha256 over the per-spec log digests of every single-pair spec of the order
# at bound 7, in label order: the log is the derivation record, so a faster
# engine must leave each entry, and its place in the log, as it was
LOG_GOLDENS = {
    (3, "A", False): "822b39154483272db590d03f4b524fb2887eafc4a4ee1e792fd047f7e7679f5d",
    (4, "A", False): "d81e14081250bef614ae0fa3179737ff14f57ca8106cc6a13390ffb53696b40a",
    (3, "B", False): "224b6fdace9aafa118f5fa9fac17ab753cf7ad5f9bdaafe453dcf4a5662871b5",
    (4, "B", False): "39cfbfd658808af4dee60435df99556373502ab015371320c912d201729df89a",
    (3, "AB", False): "76f6ea1a07416b5cc406248a0c36bf2bb1ccfb86f40292320b6fed58a59f567f",
    (4, "AB", False): "3327c0af9c684c3bdf9aa5fb9ab8a1236dd32d0d038c5561c8bbdfc1ba8915d3",
    (3, "AB", True): "a528647c339496a7c48863edffbbf0ee7bce983927c762b59898f3917941a073",
    (4, "AB", True): "730b3717142680d1ebd27f215c1bf079f9ba44d294278d69ebc61098205072e2",
}


def log_digest(state) -> str:
    entries = [(e.order, e.a, e.b, e.rule, e.source) for e in state.log]
    return hashlib.sha256(repr(entries).encode()).hexdigest()


@pytest.mark.parametrize("mode,unicity", CLOSURE_MODES)
@pytest.mark.parametrize("order", [3, 4])
def test_closure_logs_match_goldens(universe, order, mode, unicity):
    config = ClosureConfig(7, mode, unicity)
    digests = [log_digest(close(spec, config, universe)) for spec in single_pair_specs(order)]
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == LOG_GOLDENS[(order, mode, unicity)]


def test_flank_merge_rekeys_the_labels_above(universe):
    # V(c,a) = V(c,b) cancels to a = b at order 2; that merge must re-key
    # V(a,r) and V(b,s), already equal, so that they cancel to r = s
    cat2, cat3, cat6 = universe.catalog(2), universe.catalog(3), universe.catalog(6)
    a, b = cat2.term(1), cat2.term(2)
    c, r, s = cat3.term(5), cat3.term(5), cat3.term(2)
    spec = IdentitySpec.of(
        6,
        (cat6.label_of(Term(c, a)), cat6.label_of(Term(c, b))),
        (cat6.label_of(Term(a, r)), cat6.label_of(Term(b, s))),
    )
    config = ClosureConfig(6, "B", True)
    state = close(spec, config, universe)
    assert state.same_class(3, 5, 2)
    expected = round_based_close(spec, config, universe)
    for m in range(7):
        assert state.classes(m) == expected.classes(m), m


def full_closure_verdict(universe, n, pair, bound):
    """classify_identity without the early exit: close with cancellation to
    the bound, then ask whether any order below n collapsed."""
    i, j = pair
    cat = universe.catalog(n)
    if delta_oracle(cat.term(i), cat.term(j), MODE_AB):
        return Verdict(FORMALLY_REDUCIBLE, bound)
    spec = IdentitySpec.of(n, pair)
    state = close(spec, ClosureConfig(bound, MODE_AB, unicity=True), universe)
    if all(state.classnumber(m) == catalan(m) for m in range(1, n)):
        return Verdict(ESSENTIAL_UP_TO, bound)
    return Verdict(SEMANTICALLY_REDUCIBLE, bound, find_witness_chain(universe, spec, bound))


def test_early_exit_verdicts_match_full_closure(universe):
    for n in (3, 4):
        for pair in combinations(range(1, catalan(n) + 1), 2):
            assert classify_identity(universe, n, pair, 7) == full_closure_verdict(universe, n, pair, 7), pair


def test_resumed_cancellation_closure_matches_one_pass(universe):
    # a second pair merged into a closed state: the resumed saturation starts
    # new signature tables, which must first catch up with the merged classes
    config = ClosureConfig(6, MODE_AB, unicity=True)
    for p, q in combinations(combinations(range(1, catalan(3) + 1), 2), 2):
        state = close(IdentitySpec.of(3, p), config, universe)
        state.spec = IdentitySpec.of(3, p, q)
        state._union(3, *q, "identity", None)
        assert not worklist_saturate(state, universe)
        expected = close(state.spec, config, universe)
        assert all(state.classes(m) == expected.classes(m) for m in range(7)), (p, q)
        assert replay(universe, state), (p, q)


def test_lowest_first_verdicts_match_fifo_closure(universe):
    for pair in combinations(range(1, catalan(4) + 1), 2):
        kind = _verdict_kind(universe, IdentitySpec.of(4, pair), 8)
        assert kind == full_closure_verdict(universe, 4, pair, 8).kind, pair


def test_lowest_first_verdict_stops_early():
    # walked in log order, this closure logs 15,778 entries before its
    # first merge below order 4
    universe = Universe(10)
    state = _seed(IdentitySpec.of(4, (6, 12)), ClosureConfig(10, MODE_AB, unicity=True), universe)
    assert worklist_saturate(state, universe, below=4)
    assert len(state.log) < 2000, len(state.log)


# sha256 over the per-spec digests of `_seed` + `_saturate(below=order)`, the
# lowest-first walk of a verdict closure, and whether it exited early, for
# every single-pair spec of the order in label order, with cancellation
WALK_GOLDENS = {
    (3, 7): "8f537c7ba2ed8c58243e9f38c1fdd88038ecfcdaf26c3fd1baed11c10e7e0ca2",
    (4, 7): "498cf0989c9d22647d0e857b0f80d2efe0acaf3f8e4410c29373164e86dcf0f9",
    (4, 8): "3a52a6a58a0989fed5852f797db4406e6c87cbbdc87bf5d6f0b96809663383a8",
}


@pytest.mark.parametrize(("order", "bound"), list(WALK_GOLDENS))
def test_lowest_first_walk_logs_match_goldens(universe, order, bound):
    config = ClosureConfig(bound, MODE_AB, unicity=True)
    digests = []
    for spec in single_pair_specs(order):
        state = _seed(spec, config, universe)
        exited = worklist_saturate(state, universe, below=order)
        digests.append(f"{log_digest(state)} {exited}")
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == WALK_GOLDENS[(order, bound)]


# -- closure laws ------------------------------------------------------------


@st.composite
def closure_cases(draw):
    order = draw(st.sampled_from([3, 4]))
    pair = st.tuples(st.integers(1, catalan(order)), st.integers(1, catalan(order))).filter(
        lambda p: p[0] != p[1]
    )
    pairs = draw(st.lists(pair, min_size=1, max_size=3))
    extra = draw(pair)
    bound = draw(st.integers(max(4, order), 6))
    mode = draw(st.sampled_from(["A", "B", "AB"]))
    return IdentitySpec.of(order, *pairs), extra, ClosureConfig(bound, mode, draw(st.booleans()))


@settings(max_examples=50, deadline=None, database=None)
@given(closure_cases())
def test_closure_laws(universe, case):
    spec, extra, config = case
    state = close(spec, config, universe)
    assert replay(universe, state)
    bound = config.max_order
    expected = round_based_close(spec, config, universe)
    assert all(state.classes(m) == expected.classes(m) for m in range(bound + 1))
    assert len(state.log) == sum(catalan(m) - state.classnumber(m) for m in range(bound + 1))
    wider = close(IdentitySpec.of(spec.order, *spec.pairs, extra), config, universe)
    for m in range(bound + 1):
        for members in state.classes(m):
            assert len({wider.find(m, x) for x in members}) == 1, (m, members)


@settings(max_examples=50, deadline=None, database=None)
@given(closure_cases())
def test_closure_is_idempotent(universe, case):
    # a closure's defining-order classes, taken as the defining identities,
    # close to the same partitions: the first closure was a fixpoint
    spec, _, config = case
    state = close(spec, config, universe)
    n = spec.order
    pairs = [(members[0], x) for members in state.classes(n) for x in members[1:]]
    again = close(IdentitySpec.of(n, *pairs), config, universe)
    assert all(again.classes(m) == state.classes(m) for m in range(config.max_order + 1))
    assert replay(universe, state) and replay(universe, again)


# -- the partition type ------------------------------------------------------


@st.composite
def union_sequences(draw):
    n = draw(st.integers(1, 24))
    label = st.integers(1, n)
    return n, draw(st.lists(st.tuples(label, label, st.booleans()), max_size=40))


@settings(max_examples=200, deadline=None, database=None)
@given(union_sequences())
def test_disjoint_set_matches_naive_partition(case):
    n, steps = case
    state = ClosureState(IdentitySpec.of(1, (1, 2)), ClosureConfig(), [n])
    part = state.partitions[0]
    oracle = {x: {x} for x in range(1, n + 1)}
    for a, b, via_merge in steps:
        apart = oracle[a] is not oracle[b]
        if via_merge:
            before = list(part.owner)
            moved = part.merge(a, b)
            changed = [x for x in range(1, n + 1) if part.find(x) != before[x]]
            assert (moved is None) == (not apart)
            assert sorted(moved or []) == changed
        else:
            assert part.union(a, b) == apart
        if apart:
            joined = oracle[a] | oracle[b]
            for x in joined:
                oracle[x] = joined
        for x in range(1, n + 1):
            assert set(state.class_members(0, x)) == oracle[x]
            assert all((part.find(x) == part.find(y)) == (y in oracle[x]) for y in range(1, n + 1))
        groups = sorted({min(c): sorted(c) for c in oracle.values()}.items())
        assert state.classes(0) == [c for _, c in groups]
        assert part.count == state.classnumber(0) == len(groups)
        assert state.singleton_count(0) == sum(len(c) == 1 for _, c in groups)


def test_engine_builds_no_terms(monkeypatch):
    made = []
    init = Term.__init__

    def counting_init(self, *children):
        made.append(children)
        init(self, *children)

    monkeypatch.setattr(Term, "__init__", counting_init)
    universe = Universe(9)
    column_pair_survey(universe, 4, 7)
    classify_identity(universe, 9, (1, catalan(9)), 9)
    assert made == []
