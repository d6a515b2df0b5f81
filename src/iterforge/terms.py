"""Full binary trees under one binary operation, their prefix words, and
exact Catalan / ballot arithmetic.

A term of order n is a fully parenthesized product of n+1 variables:
a full binary tree with n internal nodes.  Its prefix word spells the
tree with "V" for an application and "x" for a variable, so the order-3
term V(V(x,x), V(x,x)) prints as "VVxxVxx".  Leaf positions are numbered
1..n+1 from the left throughout.

Every command imports this module, so its one record, `RunLengthCode`, is
a `collections.namedtuple` subclass, which loads no module: a dataclass
would load `inspect` and `typing.NamedTuple` would load `typing` at every
start.  The run-length scan compiles two `re` patterns; `argparse` loads
`re` in every command anyway.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from math import comb

from .errors import (
    IndexOutOfRange,
    MalformedWord,
    OrderZero,
    PositionOutOfRange,
)


class Term:
    """Immutable full binary tree; leaf iff both children are None.

    Structural equality and a precomputed structural hash: terms are
    freely shared as dict keys by catalogs and closures.
    """

    __slots__ = ("left", "right", "order", "_hash")

    def __init__(self, left: Term | None = None, right: Term | None = None):
        if (left is None) != (right is None):
            raise ValueError("a node needs both children")
        self.left = left
        self.right = right
        if left is None:
            self.order = 0
            self._hash = hash("x")
        else:
            self.order = left.order + right.order + 1
            self._hash = hash((left._hash, right._hash))

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash or self.order != other.order:
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.is_leaf or b.is_leaf:
                if a.is_leaf != b.is_leaf:
                    return False
                continue
            stack.append((a.left, b.left))
            stack.append((a.right, b.right))
        return True

    def __repr__(self) -> str:
        return f"Term({render_word(self)!r})"


LEAF = Term()
CHERRY = Term(LEAF, LEAF)


def node(left: Term, right: Term) -> Term:
    return Term(left, right)


def render_word(t: Term) -> str:
    """Prefix word of a term: V for each node, x for each leaf."""
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        if u.is_leaf:
            out.append("x")
        else:
            out.append("V")
            stack.append(u.right)
            stack.append(u.left)
    return "".join(out)


def parse_word(word: str) -> Term:
    """Parse a prefix word back into the unique term it renders.

    Raises MalformedWord unless the string is exactly one well-formed
    term over the alphabet {V, x}.  Nothing recurses, so any depth
    parses: one pass counts the open argument slots from the left and
    stops at the first fault, a second builds the term from the right on
    a stack.
    """
    open_slots = 1
    for position, symbol in enumerate(word):
        if not open_slots:
            raise MalformedWord(f"{word!r}: trailing symbols after position {position - 1}")
        if symbol == "x":
            open_slots -= 1
        elif symbol == "V":
            open_slots += 1
        else:
            raise MalformedWord(f"{word!r}: invalid symbol {symbol!r} at position {position}")
    if open_slots:
        raise MalformedWord(f"{word!r}: word ends while arguments are missing")
    stack = []
    for symbol in reversed(word):
        stack.append(LEAF if symbol == "x" else Term(stack.pop(), stack.pop()))
    return stack[0]


class RunLengthCode(namedtuple("RunLengthCode", "pairs")):
    """Alternating (V-run, x-run) lengths of a word, leftmost block first:
    pairs is a tuple of (a, b) pairs."""

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.pairs)

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(v for pair in self.pairs for v in pair)

    @property
    def digits(self) -> str:
        return "".join(str(v) for v in self.flat)


# a word of shape (V+x+)+ and its (V-run, x-run) pairs
_RUN_WORD = re.compile(r"(?:V+x+)+")
_RUN = re.compile(r"(V+)(x+)")


def run_length_code(word: str) -> RunLengthCode | None:
    """Encode a word as V-run/x-run pairs, or None if not of shape (V+x+)+."""
    if not _RUN_WORD.fullmatch(word):
        return None
    return RunLengthCode(tuple((len(a), len(b)) for a, b in _RUN.findall(word)))


def validate_word_diophantine(word: str) -> bool:
    """Decide well-formedness from the run-length code alone.

    The word V^a1 x^b1 ... V^ak x^bk is a term of order n iff the a's sum
    to n, the b's sum to n+1, and every proper leading block satisfies
    a1+...+aj >= b1+...+bj.  The bare variable "x" is the order-0 term.
    Agrees with parse_word on every string over {V, x}.  The runs are read
    straight off the word, with no `RunLengthCode` built.
    """
    if word == "x":
        return True
    if not _RUN_WORD.fullmatch(word):
        return False
    lead = 0  # a1+...+aj - (b1+...+bj) over the blocks before this one
    for a, b in _RUN.findall(word):
        if lead < 0:
            return False
        lead += len(a) - len(b)
    return lead == -1


@lru_cache(maxsize=None)
def cherries(t: Term) -> frozenset[int]:
    """Positions p where leaves p and p+1 are siblings (a Vxx subterm).

    Nonempty for every term of order >= 1.
    """
    if t.is_leaf:
        raise OrderZero("the leaf has no cherries")
    found = []
    stack = [(t, 1)]
    while stack:
        u, start = stack.pop()
        if u.left.is_leaf and u.right.is_leaf:
            found.append(start)
            continue
        if not u.left.is_leaf:
            stack.append((u.left, start))
        if not u.right.is_leaf:
            stack.append((u.right, start + u.left.order + 1))
    return frozenset(found)


def substitute_cherry(t: Term, p: int) -> Term:
    """Replace leaf p of t with Vxx, producing a term one order higher."""
    if not 1 <= p <= t.order + 1:
        raise PositionOutOfRange(f"position {p} outside 1..{t.order + 1}")
    if t.is_leaf:
        return CHERRY
    left_leaves = t.left.order + 1
    if p <= left_leaves:
        return Term(substitute_cherry(t.left, p), t.right)
    return Term(t.left, substitute_cherry(t.right, p - left_leaves))


def decompose(t: Term) -> tuple[Term, Term]:
    """The unique (left, right) with t = V(left, right)."""
    if t.is_leaf:
        raise OrderZero("the leaf does not decompose")
    return t.left, t.right


def catalan(n: int) -> int:
    """Number of terms of order n: comb(2n, n) / (n + 1)."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def ballot(n: int, j: int) -> int:
    """Entry j of row n of the ballot triangle: (j/n) * comb(2n-j-1, n-1)."""
    if n < 1 or not 1 <= j <= n:
        raise IndexOutOfRange(f"ballot index (n={n}, j={j}) outside 1 <= j <= n")
    return j * comb(2 * n - j - 1, n - 1) // n


def ballot_row(n: int) -> tuple[int, ...]:
    return tuple(ballot(n, j) for j in range(1, n + 1))


@lru_cache(maxsize=None)
def all_terms(n: int) -> tuple[Term, ...]:
    """Every term of order n by direct composition; small n only."""
    if n == 0:
        return (LEAF,)
    out = []
    for k in range(n):
        for left in all_terms(k):
            for right in all_terms(n - 1 - k):
                out.append(Term(left, right))
    return tuple(out)

