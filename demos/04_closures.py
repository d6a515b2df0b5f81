#!/usr/bin/env python3
"""Semantic closures: what one defining identity forces at higher orders.

Postulating label i = label j at order n merges column entries of every
higher grid: equal terms stay equal when the same cherry is planted on
both sides or the same root is wrapped around both.  Classnumbers count
the resulting classes per order.
"""

from iterforge import (
    ClosureConfig,
    IdentitySpec,
    Universe,
    classnumbers,
    close,
    h_formula_a,
    h_formula_b,
    singletons,
)
from iterforge.render import closure_text

universe = Universe(9)

print("== the worked example: 2 = 4 at order 3 ==")
spec = IdentitySpec.of(3, (2, 4))
state_a = close(spec, ClosureConfig(4, "A", False), universe)
print("substitution grid only ->", state_a.classnumber(4), "classes at order 4:")
print("  ", state_a.classes(4))
state_ab = close(spec, ClosureConfig(4, "AB", False), universe)
print("with root extensions   ->", state_ab.classnumber(4), "classes at order 4:")
print("  ", state_ab.classes(4))

print()
print("== closure report for 1 = 5 ==")
state = close(IdentitySpec.of(3, (1, 5)), ClosureConfig(5, "AB", False), universe)
print(closure_text(state))

print()
print("== classnumbers are grid-independent under one-grid closure ==")
print("substitution-only predictions:", [h_formula_a(3, k) for k in range(4)])
print("extension-only predictions:   ", [h_formula_b(3, k) for k in range(4)])
for pair in [(1, 2), (2, 4), (3, 5)]:
    a = close(IdentitySpec.of(3, pair), ClosureConfig(6, "A", False), universe)
    b = close(IdentitySpec.of(3, pair), ClosureConfig(6, "B", False), universe)
    print(f"  {pair}: A-closure {[a.classnumber(m) for m in range(3, 7)]}"
          f"  B-closure {[b.classnumber(m) for m in range(3, 7)]}")

print()
print("== the order-3 table, recomputed to order 7 ==")
print("pair     h3..h7              singletons 3..5")
for pair in [(1, 2), (1, 4), (1, 5), (2, 3), (2, 4), (3, 5)]:
    state = close(IdentitySpec.of(3, pair), ClosureConfig(7, "AB", False), universe)
    hs = classnumbers(state)
    sing = [singletons(state, m) for m in (3, 4, 5)]
    print(f"  {pair}  {hs}  {sing}")
print("(note h_7 = 19 < h_6 = 20 on the 1=5 row: the drop is real)")

print()
print("== two identities at once ==")
state = close(IdentitySpec.of(3, (1, 4), (3, 5)), ClosureConfig(6, "AB", False), universe)
print("1=4 and 3=5 together:", classnumbers(state), "- total collapse from order 5 on")
