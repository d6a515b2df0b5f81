"""Semantic-equality closures generated by defining identities.

A defining identity merges two labels at its order.  Upward, every pair
already merged at order m forces the column entries of the order-(m+1)
tableaux to merge (substituting the same cherry, or extending by the same
root, on both sides).  Downward, under the cancellation laws
V(a,x)=V(a,y) => x=y and V(x,a)=V(y,a) => x=y, a merged pair whose
decompositions agree on one flank forces the other flanks to merge.

The closure is a worklist congruence closure (Downey, Sethi and Tarjan,
J. ACM 27(4), 1980; Nelson and Oppen, J. ACM 27(2), 1980).  Every
effective union is appended to a derivation log, and the log is the
queue: a cursor walks it, and each entry (m, a, b) unions the order-(m+1)
cells in columns a and b of every tableau line.  Most such pairs already
share a class; the loop compares their class ids and calls the partition
only for the rest, so the log holds effective unions only, in the order
they took effect.  Cancellation keeps, per order, a signature table keyed
by (class, side, flank order, flank class), as in Nieuwenhuis and Oliveras
(Inf. Comput. 205(4), 2007); two labels that land on one key have their
other flanks merged.  The one partition type, `DisjointSet`, keeps member
lists; both the live partitions and the tables' copy as of the walk use
it.  The tables' step runs inline in the walk's loop, as the tableau step
does: it merges the entry's classes in the copy and re-keys only the
labels it moved and the labels above that use them as a flank, read as
slices of the rank tables.  The engine reads integer labels only and
builds no `Term`.  The log stays replayable: every entry names the rule
and the already-merged pair it came from.

Classifying an identity needs only a verdict's kind: the cancellation
closure stops at its first merge below the defining order, and walks its
log lowest order first, from one FIFO queue per order, so that a
descending cancellation is not queued behind the upward tableau cascade.
A witness chain costs a second closure, so `classify_identity` finds it
for a reducible identity, and `column_pair_survey` returns kinds only.
That closure has no cancellation, so its order-m classes are final once
order m - 1 is walked: `find_witness_chain` raises its bound one order
at a time and scans each order for a descending cascade as soon as it is
final.  Only when no order through the bound holds one does it go on to
rounds that union the first peels (`_peel`) the scans listed, close and
rescan: the one cancellation on verbatim flanks.  Reflecting every term
left to right maps a closure onto the closure of the mirror identity, so
the surveys close one identity per mirror orbit.

The value records (specs, configs, verdicts, reports) are
`collections.namedtuple` subclasses, as `Merge` is: a dataclass would load
`inspect` and compile its methods with `exec` each time a command imports
this module, and `typing.NamedTuple` would load `typing`.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import chain, combinations, islice

from .errors import (
    CompositionNotWellDefined,
    InvalidSpec,
    OrderOverflow,
    UnknownLabel,
)
from .incidence import MODE_AB, incidence_matrix
from .tableaux import Universe
from .terms import ballot, catalan

MODE_A = "A"
MODE_B = "B"
DEFAULT_CLOSURE_ORDER = 7

FORMALLY_REDUCIBLE = "formally-reducible"
SEMANTICALLY_REDUCIBLE = "semantically-reducible"
ESSENTIAL_UP_TO = "essential-up-to"


class IdentitySpec(namedtuple("IdentitySpec", "order pairs")):
    """A set of defining label pairs at one order."""

    __slots__ = ()

    @classmethod
    def of(cls, order: int, *pairs: tuple[int, int]) -> IdentitySpec:
        normalized = sorted({(min(i, j), max(i, j)) for i, j in pairs})
        return cls(order, tuple(normalized))


class ClosureConfig(namedtuple(
    "ClosureConfig", "max_order mode unicity", defaults=(DEFAULT_CLOSURE_ORDER, MODE_AB, False)
)):
    """The closure bound, the tableau mode ("A", "B" or "AB"), and unicity:
    whether the cancellation laws apply."""

    __slots__ = ()


class Merge(namedtuple("Merge", "order a b rule source")):
    """One effective union in the derivation log: labels a and b of one order.

    rule is one of "identity", "tableau-A", "tableau-B", "cancel-left",
    "cancel-right"; source names the pair (and tableau line) it came from,
    or is None.  A named tuple, since the log holds one per effective union
    and a tuple is the cheapest immutable record to build.
    """

    __slots__ = ()


_new = tuple.__new__  # _new(Merge, fields) builds a log entry, faster than Merge(...) or Merge._make


class DisjointSet:
    """Partition of labels 1..n: owner[x] is the class id of x (a member),
    members[id] lists each class of more than one.  A merge moves the smaller
    class into the larger (Hopcroft and Ullman, SIAM J. Comput. 2(4), 1973)."""

    __slots__ = ("owner", "members", "count")

    def __init__(self, n: int):
        self.owner = list(range(n + 1))
        self.members: dict[int, list[int]] = {}
        self.count = n

    def find(self, x: int) -> int:
        return self.owner[x]

    def merge(self, a: int, b: int) -> list[int] | None:
        """Merge the classes of a and b; return the labels whose class id
        changed, or None when a and b were already in one class."""
        owner, members = self.owner, self.members
        ca, cb = owner[a], owner[b]
        if ca == cb:
            return None
        kept, moved = members.pop(ca, [ca]), members.pop(cb, [cb])
        if len(kept) < len(moved):
            ca, kept, moved = cb, moved, kept
        for x in moved:
            owner[x] = ca
        kept.extend(moved)
        members[ca] = kept
        self.count -= 1
        return moved

    def union(self, a: int, b: int) -> bool:
        return self.merge(a, b) is not None

    def same(self, a: int, b: int) -> bool:
        return self.owner[a] == self.owner[b]

    def classes(self) -> list[list[int]]:
        owner, members = self.owner, self.members
        groups = [sorted(members.get(c, (c,))) for c in range(1, len(owner)) if owner[c] == c]
        groups.sort()  # by least member: no two classes share one
        return groups

    def singleton_count(self) -> int:
        return self.count - len(self.members)


class ClosureState:
    """Per-order partitions of labels plus the merge log that produced them."""

    def __init__(self, spec: IdentitySpec, config: ClosureConfig, sizes: list[int]):
        self.spec = spec
        self.config = config
        self.partitions = [DisjointSet(s) for s in sizes]
        self.log: list[Merge] = []
        self.cursor = 0  # log entries before it have been saturated

    def find(self, order: int, label: int) -> int:
        return self.partitions[order].find(label)

    def same_class(self, order: int, a: int, b: int) -> bool:
        return self.partitions[order].same(a, b)

    def classes(self, order: int) -> list[list[int]]:
        return self.partitions[order].classes()

    def class_members(self, order: int, label: int) -> list[int]:
        """The members of label's class, in the order the merges added them."""
        part = self.partitions[order]
        c = part.owner[label]
        return list(part.members.get(c, (c,)))

    def classnumber(self, order: int) -> int:
        return self.partitions[order].count

    def singleton_count(self, order: int) -> int:
        return self.partitions[order].singleton_count()

    def _union(self, order: int, a: int, b: int, rule: str, source: tuple | None) -> bool:
        if self.partitions[order].union(a, b):
            self.log.append(_new(Merge, (order, a, b, rule, source)))
            return True
        return False


def _validate(spec: IdentitySpec, config: ClosureConfig, universe: Universe) -> None:
    if config.mode not in (MODE_A, MODE_B, MODE_AB):
        raise InvalidSpec(f"unknown tableau mode {config.mode!r}")
    if spec.order < 1:
        raise InvalidSpec("identities start at order 1")
    if spec.order > config.max_order:
        raise InvalidSpec(
            f"identity order {spec.order} exceeds closure bound {config.max_order}"
        )
    size = len(universe.catalog(spec.order))
    for i, j in spec.pairs:
        if i == j:
            raise InvalidSpec(f"reflexive pair ({i}, {j})")
        if not (1 <= i <= size and 1 <= j <= size):
            raise InvalidSpec(f"pair ({i}, {j}) outside labels 1..{size}")


def close(spec: IdentitySpec, config: ClosureConfig, universe: Universe) -> ClosureState:
    """Saturate the closure of a defining identity under the configured rules."""
    state = _seed(spec, config, universe)
    _saturate(state, universe)
    return state


def _seed(spec: IdentitySpec, config: ClosureConfig, universe: Universe) -> ClosureState:
    """A state holding only the defining identity's merges."""
    _validate(spec, config, universe)
    sizes = [len(universe.catalog(m)) for m in range(config.max_order + 1)]
    state = ClosureState(spec, config, sizes)
    for i, j in spec.pairs:
        state._union(spec.order, i, j, "identity", None)
    return state


def _saturate(state: ClosureState, universe: Universe, below: int = 0) -> bool:
    """Walk the log from the state's cursor to its end, applying the rules.

    An entry (m, a, b) below the closure bound unions the order-(m+1)
    cells of columns a and b on every tableau line of the mode; each
    effective union lands at the end of the log and is walked in turn.
    With the cancellation laws on, signature tables local to this call
    turn each entry into the re-keyings that may cancel flanks; they start
    from the discrete partitions, so on a resumed state they first catch up
    on the entries before the cursor, in log order, with the tables step
    only.  Each entry's work is done once, so reaching the end of the log
    is the fixpoint.  Returns True, leaving the closure unfinished, as soon
    as a cancellation logs a merge below order `below`.

    The tables keep their own copy of the partitions as of the walk.  Each
    member of a non-singleton class sits in its order's table under a left
    key (class, 0, left order, left class) and a right key (class, 1, right
    order, right class), classes read in the copy; a label arriving on a key
    already held by another merges the two labels' other flanks.  A merge
    re-keys the labels it moved, both labels when it joins two singletons,
    and the labels above whose flank it moved (`Catalog.users`).  A label is
    not re-keyed on a side whose other flank's order is one class in the
    live partitions, as orders 0 and 1 always are: a collision there could
    only merge flanks already merged, and the partitions only coarsen.

    `close` walks in log order, which the log digests and `replay` pin.
    With `below` > 0 the entries are walked lowest order first, so that a
    cancellation that descends is not queued behind the upward cascade.
    The closure reached is the same, and each table still applies each
    effective union once: the unions of one order form a forest, so no
    order of applying them makes one a no-op.  The cursor moves to the end
    of the log at the fixpoint; an early exit leaves it where it was, and
    walking those entries again merges nothing new.
    """
    config = state.config
    bound = config.max_order
    lines: list[list[tuple[str, int, tuple[int, ...]]]] = [[] for _ in range(bound + 1)]
    for m in range(2, bound + 1):
        if config.mode in (MODE_A, MODE_AB):
            lines[m] += [("tableau-A", k, row) for k, row in enumerate(universe.tableau_a(m), 1)]
        if config.mode in (MODE_B, MODE_AB):
            lines[m] += [("tableau-B", k, row) for k, row in enumerate(universe.tableau_b(m), 1)]
    log, partitions, cursor = state.log, state.partitions, state.cursor
    # a list's iterator also yields the entries appended while it runs
    walk = _lowest_first(log, cursor, bound + 1) if below else islice(log, cursor, None)
    unicity, catch_up = config.unicity, 0
    if unicity:
        decomps = [()] + [universe.decompositions(m) for m in range(1, bound + 1)]
        users = [universe.catalog(m).users for m in range(bound + 1)]
        parts = [DisjointSet(len(p.owner) - 1) for p in partitions]
        tables: list[dict[tuple[int, int, int, int], int]] = [{} for _ in partitions]
        union = state._union
        catch_up = cursor
        walk = chain(islice(log, cursor), walk)
    for m, a, b, _, _ in walk:
        if catch_up:
            catch_up -= 1
        elif m < bound:
            part = partitions[m + 1]
            owner = part.owner
            for rule, line, row in lines[m + 1]:
                x, y = row[a - 1], row[b - 1]
                if owner[x] != owner[y]:  # most cells already share a class: no call, no entry
                    part.union(x, y)
                    log.append(_new(Merge, (m + 1, x, y, rule, (m, a, b, line))))
        if not unicity:
            continue
        end = len(log)
        copy = parts[m]  # merge a's and b's classes in the tables' copy, as `DisjointSet.merge` does
        c, cb = copy.owner[a], copy.owner[b]
        kept, moved = copy.members.pop(c, [c]), copy.members.pop(cb, [cb])
        if len(kept) < len(moved):
            c, kept, moved = cb, moved, kept
        for x in moved:
            copy.owner[x] = c
        kept.extend(moved)
        copy.members[c] = kept
        copy.count -= 1
        decomp, table = decomps[m], tables[m]
        for x in kept if len(kept) == 2 else moved:  # a singleton had no keys
            lo, la, ro, rb = decomp[x - 1]
            if partitions[ro].count > 1:
                y = table.setdefault((c, 0, lo, parts[lo].owner[la]), x)
                if y != x:
                    union(ro, decomp[y - 1][3], rb, "cancel-left", (m, y, x))
            if partitions[lo].count > 1:
                y = table.setdefault((c, 1, ro, parts[ro].owner[rb]), x)
                if y != x:
                    union(lo, decomp[y - 1][1], la, "cancel-right", (m, y, x))
        for k in range(m + 1, bound + 1):
            ko = k - 1 - m  # a flank of order m leaves the other one order k-1-m
            if partitions[ko].count == 1:
                continue
            owner_k, members_k, decomp_k, table_k = parts[k].owner, parts[k].members, decomps[k], tables[k]
            for side in (0, 1):
                for x in moved:  # now in class c, so each user's key on this side is (.., side, m, c)
                    for z in users[k](side, m, x):
                        cz = owner_k[z]
                        if cz in members_k:
                            y = table_k.setdefault((cz, side, m, c), z)
                            if y != z:
                                other, rule = (1, "cancel-right") if side else (3, "cancel-left")
                                union(ko, decomp_k[y - 1][other], decomp_k[z - 1][other], rule, (k, y, z))
        # only cancellations merge downward, so this is where it happens first
        if below and len(log) > end and any(e[0] < below for e in islice(log, end, None)):
            return True
    state.cursor = len(log)
    return False


def _lowest_first(log: list[Merge], start: int, orders: int) -> Iterator[Merge]:
    """The log's entries from start on, lowest order first and, within an
    order, in log order, counting those appended while the walk runs.  Each
    order keeps a FIFO queue of its entries; the lowest order with entries
    pending drops when an entry of a lower one arrives."""
    queues = [deque() for _ in range(orders)]
    queued, low = start, orders - 1
    while True:
        while queued < len(log):
            entry = log[queued]
            queues[entry[0]].append(entry)
            if entry[0] < low:
                low = entry[0]
            queued += 1
        while not queues[low]:
            if low == orders - 1:
                return
            low += 1
        yield queues[low].popleft()


def classnumbers(state: ClosureState) -> list[int]:
    """Class counts from the defining order up to the closure bound."""
    return [state.classnumber(m) for m in range(state.spec.order, state.config.max_order + 1)]


def singletons(state: ClosureState, order: int) -> int:
    return state.singleton_count(order)


def h_formula_a(n: int, k: int) -> int:
    """Predicted classnumber at order n+k under A-tableaux only:
    S_{n+k} - c_{n+k+1, n+1}."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return catalan(n + k) - ballot(n + k + 1, n + 1)


def h_formula_b(n: int, k: int) -> int:
    """Predicted classnumber at order n+k under B-tableaux only: S_{n+k} - 2^k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return catalan(n + k) - 2**k


# -- cancellation cascades ---------------------------------------------------


def formal_cascade(universe: Universe, order: int, i: int, j: int) -> tuple[tuple[int, int, int], ...]:
    """Chain of label pairs peeled off (i, j) by cancelling identical flanks.

    Each step strips a flank the two terms share verbatim, descending to
    the pair of remaining flanks; the chain ends when no flank is shared.
    All visited pairs are distinct by construction.
    """
    cat = universe.catalog(order)
    cat.check_label(i), cat.check_label(j)
    chain = [(order, i, j)]
    while order > 0:
        step = _peel(universe.decompositions(order), i, j)
        if step is None:
            break
        order, i, j = step
        chain.append(step)
    return tuple(chain)


def _peel(decomp, i: int, j: int) -> tuple[int, int, int] | None:
    """(order, x, y): the other flanks of labels i and j once a flank they
    share verbatim is stripped, the left one first; None if they share none."""
    lo, la, ro, rb = decomp[i - 1]
    lo_j, la_j, ro_j, rb_j = decomp[j - 1]
    if lo == lo_j and la == la_j:
        return ro, rb, rb_j
    if ro == ro_j and rb == rb_j:
        return lo, la, la_j
    return None


def implication_pairs(universe: Universe, n: int, k: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Unordered order-n pairs whose cancellation cascade visits order k.

    Equality of such a pair forces, under cancellation alone, the equality
    of two distinct k-iterates.  Each pair's cascade is peeled only down to
    order k, since its orders strictly decrease.
    """
    if not 2 <= k <= n - 1:
        raise ValueError(f"need 2 <= k <= n-1, got k={k}, n={n}")
    decomps = {m: universe.decompositions(m) for m in range(k + 1, n + 1)}
    size = len(decomps[n])
    hits = []
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            step = (n, i, j)
            while step is not None and step[0] > k:
                step = _peel(decomps[step[0]], step[1], step[2])
            if step is not None and step[0] == k:
                hits.append((i, j))
    return len(hits), tuple(hits)


# -- classification ----------------------------------------------------------


class Verdict(namedtuple("Verdict", "kind bound witness", defaults=(None,))):
    """kind is FORMALLY_REDUCIBLE, SEMANTICALLY_REDUCIBLE or ESSENTIAL_UP_TO;
    witness is a chain of (order, i, j) steps, or None."""

    __slots__ = ()

    def __str__(self) -> str:
        if self.kind == ESSENTIAL_UP_TO:
            return f"{self.kind} {self.bound}"
        return self.kind


def classify_identity(
    universe: Universe, n: int, pair: tuple[int, int], bound: int = DEFAULT_CLOSURE_ORDER
) -> Verdict:
    """Sort one order-n identity into formally reducible, semantically
    reducible, or essential up to the bound.  A semantically reducible
    verdict carries its cancellation witness, found by `find_witness_chain`."""
    spec = IdentitySpec.of(n, pair)
    kind = _verdict_kind(universe, spec, bound)
    witness = find_witness_chain(universe, spec, bound) if kind == SEMANTICALLY_REDUCIBLE else None
    return Verdict(kind, bound, witness)


def _verdict_kind(universe: Universe, spec: IdentitySpec, bound: int) -> str:
    """The kind of a one-pair spec's verdict, without a witness: formal
    reducibility from the incidence matrix, else a cancellation closure that
    stops at its first merge below the defining order."""
    state = _seed(spec, ClosureConfig(bound, MODE_AB, unicity=True), universe)
    ((i, j),) = spec.pairs
    if incidence_matrix(universe, spec.order, MODE_AB).entry(i, j):
        return FORMALLY_REDUCIBLE
    # the identity collapses a lower order iff some merge lands below its own
    if _saturate(state, universe, below=spec.order):
        return SEMANTICALLY_REDUCIBLE
    return ESSENTIAL_UP_TO


def find_witness_chain(
    universe: Universe, spec: IdentitySpec, bound: int
) -> tuple[tuple[int, int, int], ...] | None:
    """Explicit chain certifying that an identity derives a lower-order one.

    Scans, order by order from the defining one, the same-class pairs of
    each class (classes by least member, pairs in label order) for a
    cascade that descends below the defining order, and returns the first
    such chain truncated at its first sub-order entry.  Without
    cancellation, merges at order m come only from order m - 1, so the
    tableau closure is extended one order at a time and each order is
    scanned as soon as its partition is final.  The scan lists each pair's
    first peel and unions nothing, since `_raise_bound` would carry a union
    upward.  Only when no order through the bound holds a descent does each
    round union the listed peels, close, and rescan every order.

    The rounds reach the classes of rounds that union, order by order
    upward, the other flanks of consecutive members of each class's
    verbatim-flank groups (the tests' oracle), so both give one witness:
    - a peel lands below its pair's order, so those rounds read every
      order as it was when the round began, when the scan listed it;
    - orders below the defining one stay discrete: a peel landing there
      is a descent, which the scan returns before any round;
    - unioning every pair of a group joins the labels a chain through it
      joins, and a closure's classes depend only on the labels its
      unions join, not on which unions its log records.
    """
    n = spec.order
    config = ClosureConfig(bound, MODE_AB, unicity=False)
    _validate(spec, config, universe)
    state = close(spec, config._replace(max_order=n), universe)
    peels: list[tuple[int, int, int, tuple[int, int, int]]] = []
    start = 0  # the entries at the state's bound, which it did not expand
    for m in range(n, bound + 1):
        if m > n:
            start = _raise_bound(state, universe, start)
        hit = _scan_cascades(universe, state, n, (m,), peels)
        if hit is not None:
            return hit
    for _ in range(bound):
        changed = False
        for m, x, y, (order, a, b) in peels:
            decomp = universe.decompositions(m)
            rule = "cancel-left" if decomp[x - 1][:2] == decomp[y - 1][:2] else "cancel-right"
            changed |= state._union(order, a, b, rule, (m, x, y))
        if not changed:
            return None
        _saturate(state, universe)
        peels.clear()
        hit = _scan_cascades(universe, state, n, range(n, bound + 1), peels)
        if hit is not None:
            return hit
    return None


def _raise_bound(state: ClosureState, universe: Universe, start: int) -> int:
    """Raise a cancellation-free closure's bound by one order: add that
    order's partition and walk the log from `start`, the entries at the old
    bound.  The partitions equal those of a closure run to the new bound.
    Returns where the entries at the new bound begin."""
    bound = state.config.max_order + 1
    state.config = state.config._replace(max_order=bound)
    state.partitions.append(DisjointSet(len(universe.catalog(bound))))
    end, state.cursor = len(state.log), start
    _saturate(state, universe)
    return end


def _scan_cascades(universe, state, n, orders, peels):
    """The first same-class pair's cascade that descends below order n, cut
    there, or None; each pair scanned before it appends (m, x, y, first peel)
    to `peels` when it has a peel."""
    for m in orders:
        for members in state.classes(m):
            if len(members) < 2:
                continue
            for x, y in combinations(members, 2):
                chain = formal_cascade(universe, m, x, y)
                for idx, (order, _, _) in enumerate(chain):
                    if order < n:
                        return chain[: idx + 1]
                if len(chain) > 1:
                    peels.append((m, x, y, chain[1]))
    return None


# -- the algebra of classes --------------------------------------------------


def class_handle(state: ClosureState, order: int, label: int) -> tuple[int, int]:
    """Canonical (order, least member) handle of the class containing label."""
    return order, min(state.class_members(order, label))


def compose_classes(
    universe: Universe,
    state: ClosureState,
    cls_p: tuple[int, int],
    cls_q: tuple[int, int],
    verify: bool = True,
) -> tuple[int, int]:
    """Class of V(a, b) for representatives a, b of the two argument classes.

    With verify=True every representative pair is exhausted and must land
    in one class, otherwise CompositionNotWellDefined is raised.
    """
    (p, rep_p), (q, rep_q) = cls_p, cls_q
    out_order = p + q + 1
    if out_order > state.config.max_order:
        raise OrderOverflow(
            f"composition order {out_order} exceeds closure bound {state.config.max_order}"
        )
    cat = universe.catalog(out_order)
    members_p = state.class_members(p, rep_p) if verify else [rep_p]
    members_q = state.class_members(q, rep_q) if verify else [rep_q]
    roots = set()
    for a in members_p:
        for b in members_q:
            label = cat.label_at(p, a, b)
            if label is None:
                raise UnknownLabel(f"no term V(({p},{a}), ({q},{b})) of order {out_order}")
            roots.add(state.find(out_order, label))
    if len(roots) != 1:
        raise CompositionNotWellDefined(
            f"classes ({p},{rep_p}) x ({q},{rep_q}) scatter over {len(roots)} classes"
        )
    return class_handle(state, out_order, next(iter(roots)))


# -- bounds and surveys ------------------------------------------------------


class BoundsReport(namedtuple("BoundsReport", "order classnumber lower_bound min_class_size ok")):
    """`unicity_bounds_check` at the defining order; lower_bound is S_{n-1}."""

    __slots__ = ()


def unicity_bounds_check(universe: Universe, state: ClosureState) -> BoundsReport:
    """At the defining order: classnumber >= S_{n-1} and some class has <= 3
    members.  Meaningful for closures consistent with the cancellation laws."""
    n = state.spec.order
    h = state.classnumber(n)
    min_size = min(len(c) for c in state.classes(n))
    lower = catalan(n - 1)
    return BoundsReport(n, h, lower, min_size, h >= lower and min_size <= 3)


class ColumnSurvey(namedtuple(
    "ColumnSurvey", "order bound column_pairs column_verdicts other_pairs other_verdicts"
)):
    """`column_pair_survey`'s column pairs and other pairs, each with its `Verdict`s."""

    __slots__ = ()

    @property
    def essential_columns(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            pair
            for pair, verdict in zip(self.column_pairs, self.column_verdicts)
            if verdict.kind == ESSENTIAL_UP_TO
        )

    @property
    def essential_others(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            pair
            for pair, verdict in zip(self.other_pairs, self.other_verdicts)
            if verdict.kind == ESSENTIAL_UP_TO
        )


def column_pair_survey(universe: Universe, n: int, bound: int = DEFAULT_CLOSURE_ORDER) -> ColumnSurvey:
    """Classify the column pairs V(J,x) = V(x,J) of the order-n root-extension
    tableau, and every other formally irreducible order-n identity.

    The verdicts are kinds only: each has witness None.  A survey reads no
    witness, and finding one costs a second closure; `classify_identity`
    gives the witness of one pair on demand.  The mirror maps columns to
    columns and the other pairs to other pairs; one identity per mirror
    orbit is closed (`_per_orbit`)."""
    if n < 3:
        raise ValueError("survey starts at order 3")
    columns = tuple((min(a, b), max(a, b)) for a, b in zip(*universe.tableau_b(n)))

    def verdict(pair: tuple[int, int]) -> Verdict:
        return Verdict(_verdict_kind(universe, IdentitySpec.of(n, pair), bound), bound)

    column_verdicts = tuple(_per_orbit(universe, n, columns, verdict))
    reducible = incidence_matrix(universe, n, MODE_AB)
    column_set = set(columns)
    other_pairs = tuple(
        (i, j)
        for i in range(1, reducible.size + 1)
        for j in range(i + 1, reducible.size + 1)
        if (i, j) not in column_set and not reducible.entry(i, j)
    )
    other_verdicts = tuple(_per_orbit(universe, n, other_pairs, verdict))
    return ColumnSurvey(n, bound, columns, column_verdicts, other_pairs, other_verdicts)


def order4_sample_formula(n: int) -> int:
    """Candidate classnumber for certain order-4 identities:
    S_n - 2 (4^(n-3) - 1)/3 + (n-2)(n-3)/2."""
    return catalan(n) - 2 * (4 ** (n - 3) - 1) // 3 + (n - 2) * (n - 3) // 2


class FormulaSurvey(namedtuple("FormulaSurvey", "bound expected sequences")):
    """`order4_formula_survey`: the formula's h_3..h_bound and each pair's sequence of them."""

    __slots__ = ()

    def matching_through(self, order: int) -> tuple[tuple[int, int], ...]:
        width = order - 2
        return tuple(
            pair
            for pair, seq in sorted(self.sequences.items())
            if seq[:width] == self.expected[:width]
        )

    @property
    def full_matches(self) -> tuple[tuple[int, int], ...]:
        return self.matching_through(self.bound)


def order4_formula_survey(universe: Universe, bound: int = DEFAULT_CLOSURE_ORDER) -> FormulaSurvey:
    """Classnumber sequences h_3..h_bound of all 91 order-4 identities under
    the combined-tableau closure, compared against the sample formula.
    The 91 pairs fall into 49 mirror orbits, one closure each."""
    expected = tuple(order4_sample_formula(m) for m in range(3, bound + 1))
    config = ClosureConfig(bound, MODE_AB, unicity=False)

    def sequence(pair: tuple[int, int]) -> tuple[int, ...]:
        state = close(IdentitySpec.of(4, pair), config, universe)
        return tuple(state.classnumber(m) for m in range(3, bound + 1))

    pairs = list(combinations(range(1, len(universe.catalog(4)) + 1), 2))
    sequences = dict(zip(pairs, _per_orbit(universe, 4, pairs, sequence)))
    return FormulaSurvey(bound, expected, sequences)


def _per_orbit(universe: Universe, n: int, pairs, compute) -> Iterator:
    """compute(pair) for each order-n pair, run once per mirror orbit.

    Reflecting every term left to right maps the closure of an identity
    onto the closure of its mirror image: the tableau lines trade places
    and the two cancellation laws swap.  So an identity and its image get
    the same classnumbers and the same verdict kind; each orbit's result
    is computed for its least pair and read back for the other."""
    mirror = universe.mirror(n)
    results: dict[tuple[int, int], object] = {}
    for i, j in pairs:
        a, b = mirror[i - 1], mirror[j - 1]
        least = min((i, j), (min(a, b), max(a, b)))
        if least not in results:
            results[least] = compute(least)
        yield results[least]


# -- log replay --------------------------------------------------------------


def replay(universe: Universe, state: ClosureState) -> bool:
    """Re-derive the final partitions from the log, validating every entry
    as a rule application that was enabled at its position."""
    sizes = [len(universe.catalog(m)) for m in range(state.config.max_order + 1)]
    fresh = ClosureState(state.spec, state.config, sizes)
    for merge in state.log:
        if not _merge_enabled(universe, fresh, state.spec, merge):
            return False
        if not fresh.partitions[merge.order].union(merge.a, merge.b):
            return False  # entry merged nothing: log unsound
    for m in range(state.config.max_order + 1):
        if fresh.classes(m) != state.classes(m):
            return False
    return True


def _merge_enabled(universe, fresh, spec, merge: Merge) -> bool:
    if merge.rule == "identity":
        pair = (min(merge.a, merge.b), max(merge.a, merge.b))
        return merge.order == spec.order and pair in spec.pairs
    if merge.rule in ("tableau-A", "tableau-B"):
        m, x, y, line = merge.source
        if merge.order != m + 1 or not fresh.same_class(m, x, y):
            return False
        rows = universe.tableau_a(m + 1) if merge.rule == "tableau-A" else universe.tableau_b(m + 1)
        row = rows[line - 1]
        return row[x - 1] == merge.a and row[y - 1] == merge.b
    if merge.rule in ("cancel-left", "cancel-right"):
        m, x, y = merge.source
        if not fresh.same_class(m, x, y):
            return False
        lo_x, la_x, ro_x, rb_x = universe.decompositions(m)[x - 1]
        lo_y, la_y, ro_y, rb_y = universe.decompositions(m)[y - 1]
        if merge.rule == "cancel-left":
            return (
                lo_x == lo_y
                and fresh.same_class(lo_x, la_x, la_y)
                and merge.order == ro_x
                and (merge.a, merge.b) == (rb_x, rb_y)
            )
        return (
            ro_x == ro_y
            and fresh.same_class(ro_x, rb_x, rb_y)
            and merge.order == lo_x
            and (merge.a, merge.b) == (la_x, la_y)
        )
    return False

