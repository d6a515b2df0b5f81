"""Term structure, prefix words, and the exact counting arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iterforge import (
    LEAF,
    IndexOutOfRange,
    MalformedWord,
    OrderZero,
    PositionOutOfRange,
    Term,
    all_terms,
    ballot,
    ballot_row,
    catalan,
    cherries,
    decompose,
    node,
    parse_word,
    render_word,
    run_length_code,
    substitute_cherry,
    validate_word_diophantine,
)
from iterforge.render import term_to_nested


def collapse_cherry(t, p):
    """Test-local inverse of substitute_cherry: shrink the cherry at p to a leaf."""
    if t.left.is_leaf and t.right.is_leaf:
        assert p == 1
        return LEAF
    left_leaves = t.left.order + 1
    if not t.left.is_leaf and p <= left_leaves - 1:
        return node(collapse_cherry(t.left, p), t.right)
    return node(t.left, collapse_cherry(t.right, p - left_leaves))


# -- words -------------------------------------------------------------------


def test_parse_examples():
    assert parse_word("x") is LEAF
    assert parse_word("VVxxVxx") == node(node(LEAF, LEAF), node(LEAF, LEAF))
    assert parse_word("VVxxVxx").order == 3
    with pytest.raises(MalformedWord):
        parse_word("VVxx")
    with pytest.raises(MalformedWord):
        parse_word("")
    with pytest.raises(MalformedWord):
        parse_word("xx")
    with pytest.raises(MalformedWord):
        parse_word("Vxy")


@pytest.mark.parametrize(
    "word, message",
    [
        ("", "'': word ends while arguments are missing"),
        ("V", "'V': word ends while arguments are missing"),
        ("Vx", "'Vx': word ends while arguments are missing"),
        ("xx", "'xx': trailing symbols after position 0"),
        ("xV", "'xV': trailing symbols after position 0"),
        ("Vxxx", "'Vxxx': trailing symbols after position 2"),
        ("a", "'a': invalid symbol 'a' at position 0"),
        ("Va", "'Va': invalid symbol 'a' at position 1"),
        ("Vxa", "'Vxa': invalid symbol 'a' at position 2"),
        ("xa", "'xa': trailing symbols after position 0"),
        ("VxxVxx", "'VxxVxx': trailing symbols after position 2"),
    ],
)
def test_parse_word_error_messages(word, message):
    with pytest.raises(MalformedWord) as caught:
        parse_word(word)
    assert str(caught.value) == message


def test_parse_word_has_no_depth_limit():
    for word in ("V" * 5000 + "x" * 5001, "Vx" * 5000 + "x"):
        t = parse_word(word)
        assert t.order == 5000 and render_word(t) == word
    with pytest.raises(MalformedWord):
        parse_word("V" * 5000 + "x" * 5000)


def test_render_examples():
    assert render_word(LEAF) == "x"
    assert render_word(node(LEAF, node(LEAF, LEAF))) == "VxVxx"


def test_round_trip_exhaustive():
    for n in range(9):
        for t in all_terms(n):
            assert parse_word(render_word(t)) == t


def test_term_count_matches_catalan():
    for n in range(11):
        terms = all_terms(n)
        assert len(set(terms)) == len(terms) == catalan(n)


def test_term_equality_and_hash():
    a = parse_word("VVxVxxx")
    b = parse_word("VVxVxxx")
    assert a == b and hash(a) == hash(b)
    assert a != parse_word("VxVVxxx")
    assert a != "VVxVxxx"


def test_nested_serialization_round_trip():
    assert term_to_nested(LEAF) == "x"
    t = parse_word("VVxxVxVxx")
    assert term_to_nested(t) == ["V", ["V", "x", "x"], ["V", "x", ["V", "x", "x"]]]


# -- run-length validator ----------------------------------------------------


def test_run_length_code_of_order5_word():
    code = run_length_code("VVVxxVxVxxx")
    assert code.pairs == ((3, 2), (1, 1), (1, 3))
    assert code.k == 3
    assert code.digits == "321113"


def test_diophantine_examples():
    assert validate_word_diophantine("VVVxxVxVxxx")
    assert validate_word_diophantine("x")
    assert not validate_word_diophantine("VVxx")
    assert not validate_word_diophantine("xVx")
    assert not validate_word_diophantine("Vyx")


def test_diophantine_agrees_with_parser_exhaustively():
    for length in range(1, 14):
        for bits in range(1 << length):
            word = "".join("Vx"[(bits >> i) & 1] for i in range(length))
            try:
                parse_word(word)
                parses = True
            except MalformedWord:
                parses = False
            assert validate_word_diophantine(word) == parses, word


def char_loop_run_length_code(word):
    """The run-length code read one character at a time: the oracle for the
    pattern scan of `run_length_code`."""
    if not word or word[0] != "V" or word[-1] != "x":
        return None
    pairs, i = [], 0
    while i < len(word):
        a = b = 0
        while i < len(word) and word[i] == "V":
            a, i = a + 1, i + 1
        while i < len(word) and word[i] == "x":
            b, i = b + 1, i + 1
        if a == 0 or b == 0:
            return None
        pairs.append((a, b))
    return tuple(pairs)


# well-formed words of order 7..29 (length 15..59)
term_words = st.recursive(
    st.just("x"), lambda words: st.tuples(words, words).map(lambda lr: "V" + lr[0] + lr[1]), max_leaves=30
).filter(lambda word: len(word) >= 15)


@st.composite
def long_vx_words(draw):
    """Random strings over {V, x}, and well-formed words kept as they are,
    with one symbol flipped, with two neighbours swapped (which keeps the
    balance of V and x but can close the term early) or with a tail."""
    damage = draw(st.sampled_from(["random", "none", "flip", "swap", "tail"]))
    if damage == "random":
        return draw(st.text(alphabet="Vx", min_size=14, max_size=60))
    word = draw(term_words)
    i = draw(st.integers(0, len(word) - 2))
    if damage == "flip":
        word = word[:i] + ("x" if word[i] == "V" else "V") + word[i + 1 :]
    elif damage == "swap":
        word = word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    elif damage == "tail":
        word += draw(st.text(alphabet="Vx", min_size=1, max_size=min(6, 60 - len(word))))
    return word


@settings(max_examples=300, deadline=None)
@given(long_vx_words())
def test_run_scan_agrees_with_parser_and_char_loop_past_the_sweep(word):
    # the exhaustive sweep above stops at length 13
    try:
        parse_word(word)
        parses = True
    except MalformedWord:
        parses = False
    assert validate_word_diophantine(word) == parses
    code = run_length_code(word)
    assert (code.pairs if code else None) == char_loop_run_length_code(word)


# -- structural operations ---------------------------------------------------


def test_cherries_examples():
    assert cherries(parse_word("VVxxVxx")) == {1, 3}
    assert cherries(parse_word("VxVxVxx")) == {3}
    with pytest.raises(OrderZero):
        cherries(LEAF)


def test_cherry_collapse_yields_valid_lower_term():
    for n in range(1, 9):
        for t in all_terms(n):
            ps = cherries(t)
            assert ps
            for p in ps:
                u = collapse_cherry(t, p)
                assert u.order == n - 1
                assert substitute_cherry(u, p) == t


def test_substitute_cherry_examples():
    assert render_word(substitute_cherry(parse_word("VVxVxxx"), 1)) == "VVVxxVxxx"
    assert render_word(substitute_cherry(LEAF, 1)) == "Vxx"
    assert render_word(substitute_cherry(parse_word("VVVxxxx"), 3)) == "VVVxxVxxx"
    with pytest.raises(PositionOutOfRange):
        substitute_cherry(LEAF, 2)
    with pytest.raises(PositionOutOfRange):
        substitute_cherry(parse_word("Vxx"), 0)


def test_decompose():
    assert decompose(parse_word("VVxxVxx")) == (parse_word("Vxx"), parse_word("Vxx"))
    assert decompose(parse_word("VxVVxxx")) == (LEAF, parse_word("VVxxx"))
    with pytest.raises(OrderZero):
        decompose(LEAF)
    for n in range(1, 9):
        for t in all_terms(n):
            left, right = decompose(t)
            assert node(left, right) == t


# -- counting ----------------------------------------------------------------


def test_catalan_values():
    assert [catalan(n) for n in range(11)] == [
        1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796,
    ]


def test_catalan_convolution_recurrence():
    for n in range(1, 21):
        assert catalan(n) == sum(catalan(k) * catalan(n - 1 - k) for k in range(n))


def test_catalan_ratio_recurrence():
    for n in range(1, 40):
        assert (n + 1) * catalan(n) == 2 * (2 * n - 1) * catalan(n - 1)


def test_ballot_examples():
    assert ballot(5, 3) == 9
    assert ballot(8, 4) == 165
    assert all(ballot(n, n) == 1 for n in range(1, 13))
    with pytest.raises(IndexOutOfRange):
        ballot(5, 6)
    with pytest.raises(IndexOutOfRange):
        ballot(5, 0)


def test_ballot_recursion_matches_closed_form():
    for n in range(2, 13):
        for j in range(1, n + 1):
            recursed = sum(ballot(n - 1, i) for i in range(max(j - 1, 1), n))
            assert ballot(n, j) == recursed


def test_ballot_rows_sum_to_catalan():
    for n in range(1, 13):
        assert sum(ballot_row(n)) == catalan(n)
