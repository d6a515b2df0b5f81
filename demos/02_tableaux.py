#!/usr/bin/env python3
"""Building the label grids level by level.

Row k of the substitution grid at order n plants Vxx at leaf k of every
(n-1)-term; scanning row-major and handing out labels at first sight
orders the n-terms canonically.  The extension grid labels V(J,x) and
V(x,J) in the same system.  Line structure is where all the counting
theorems live.
"""

from iterforge import Universe, ballot_row, catalan, t_nk
from iterforge.render import tableau_text
from iterforge.tableaux import line_intersection_formula

universe = Universe(9)

print("== substitution grid, order 4 ==")
print(tableau_text(universe.tableau_a(4)))
print()
print("== extension grid, order 4 ==")
print(tableau_text(universe.tableau_b(4)))

print()
print("== what the columns mean ==")
cat3, cat4 = universe.catalog(3), universe.catalog(4)
column = 2  # the term VVxxVxx
for row_index, row in enumerate(universe.tableau_a(4), start=1):
    label = row[column - 1]
    print(f"  plant at leaf {row_index} of {cat3.word(column)}: label {label} = {cat4.word(label)}")

print()
print("== fresh labels per line = ballot row ==")
for n in range(2, 7):
    print(f"  n={n}: fresh {universe.fresh_label_counts(n)}  ballot {ballot_row(n)}")

print()
print("== multiplicities ==")
for n in range(3, 8):
    hist = universe.multiplicity_histogram(n)
    formula = {k: t_nk(n, k) for k in range(1, (n + 1) // 2 + 1)}
    print(f"  n={n}: histogram {hist}  closed form {formula}")

print()
print("== line intersections follow the gap pattern ==")
for lines in [{1, 3}, {2, 3}, {1, 4}, {1, 3, 5}]:
    actual = universe.line_intersection_card(5, lines)
    predicted = line_intersection_formula(5, lines)
    print(f"  lines {sorted(lines)} of the order-5 grid: |common| = {actual} (formula {predicted})")
print(f"  single line: {universe.line_intersection_card(5, {2})} = catalan(4) = {catalan(4)}")
