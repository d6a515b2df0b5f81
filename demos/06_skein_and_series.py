#!/usr/bin/env python3
"""Skein polynomials and the generalized counting series.

Each variable of a term contributes a^s b^t where s and t count its
first- and second-argument positions on the way to the root; the sum over
variables almost separates terms, with the first collision at order 4.
The same counting equation generalizes to other arities and to arbitrary
integer laws on the orders.
"""

from iterforge import (
    Universe,
    catalan,
    catalan_general,
    catalan_relative,
    collision_groups,
    convolution_relation_check,
    np_recursion_check,
    parse_word,
    series_mixed,
    skein,
    skein_levels,
    skein_q,
    weighted_recurrence,
)

universe = Universe(9)
levels = skein_levels(universe, 7)

print("== the polynomial table through order 3 ==")
for n in range(4):
    cat = universe.catalog(n)
    for label in range(1, len(cat) + 1):
        word = cat.word(label)
        print(f"  {word:<9} {skein(parse_word(word))}")

print()
print("== the first collision ==")
groups = collision_groups(levels[4])
for poly, labels in groups.items():
    if len(labels) > 1:
        cat = universe.catalog(4)
        words = ", ".join(cat.word(v) for v in labels)
        print(f"  {words} share {poly}")
print("collision-count recursion holds through order 7:",
      np_recursion_check(levels))

print()
print("== the companion polynomial ==")
t = parse_word("VVxxVxx")
print(f"P = {skein(t)},  Q = {skein_q(t)},  (a+b-1)Q + 1 = P exactly")

print()
print("== one arity, higher arities, mixed arities ==")
print("arity 2 (the classic count):", series_mixed([2], 8).coeffs)
print("arity 3 closed form:        ", [catalan_general(3, n) for n in range(9)])
print("arities {2,3} together:     ", series_mixed([2, 3], 8).coeffs)
print("two distinct binary ops:    ", series_mixed([2, 2], 8).coeffs)

print()
print("== counting relative to an integer law on the orders ==")
print("law s+t+1 reproduces the classic count:",
      catalan_relative(lambda s, t: s + t + 1, {0: 1}, 8))
print("law s^2+t^2+2 is sparse:",
      catalan_relative(lambda s, t: s * s + t * t + 2, {0: 1}, 10))

print()
print("== weighted recurrence terms need not stay integral ==")
terms = weighted_recurrence(2, 1, [1, 1], 8, strict=False)
print("k=2, l=1:", ", ".join(f"{term.n}: {term.value}" for term in terms))

print()
print("== convolution relations ==")
report = convolution_relation_check(2, 30)
print(f"threefold convolution at n=30: {report.convolution}")
print(f"closed-form alternating coefficients C(lam-j, j): {report.relation1}")
print(f"triangle-weighted expansion exact: {report.relation2_ok}")
print(f"ratio to catalan(30): {float(report.relation3_ratio):.6f} -> limit {float(report.relation3_limit)}")
print("catalan(30) =", catalan(30))
