#!/usr/bin/env python3
"""Tour of the saturating matrices.

A doubly stochastic matrix always has a diagonal sum at least as large as
its Frobenius norm squared.  This script walks the matrices for which the
two are *equal*: the complete list of order-3 canonical forms, the order-2
family, and the block-J family that works in every order.
"""

from fractions import Fraction as F

from dstoch import (CANONICAL_TAGS, RatMatrix, canonical, classify3,
                    frobenius_sq, make_tn, marcus_ree_gap, max_trace_brute,
                    validate_ds)


def show(m):
    width = max(len(str(x)) for x in m.entries())
    for row in m.rows:
        print("   ", "  ".join(str(x).rjust(width) for x in row))


print("The six canonical saturating forms of order 3")
print("=" * 55)
for tag in CANONICAL_TAGS:
    m = canonical(tag)
    report = marcus_ree_gap(m)
    print(f"\n{tag}:  ||A||_F^2 = max_tr = {report.frob_sq}")
    show(m)
    assert report.saturated

print("\n\nEvery other order-3 matrix has a strict gap, e.g.")
m = validate_ds(RatMatrix([[F(1, 2), F(1, 4), F(1, 4)],
                           [F(1, 4), F(1, 2), F(1, 4)],
                           [F(1, 4), F(1, 4), F(1, 2)]]))
show(m)
report = marcus_ree_gap(m)
print(f"frob^2 = {report.frob_sq}, max_tr = {report.max_trace}, "
      f"gap = {report.gap}")
c = classify3(m)
print(f"classify3: saturated={c.saturated}, separator={c.separator}")

print("\nClassification returns permutation witnesses:")
rows = [canonical("S").rows[i] for i in (2, 0, 1)]
shuffled = validate_ds(RatMatrix(rows))
c = classify3(shuffled)
print(f"a row-rotated S classifies as {c.form} with witness P={c.witness[0]},"
      f" Q={c.witness[1]}")

print("\nOrder 2: saturation happens exactly at t in {0, 1/2, 1}")
for t in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
    m = validate_ds(RatMatrix([[t, 1 - t], [1 - t, t]]))
    report = marcus_ree_gap(m)
    print(f"  t = {t}: saturated = {report.saturated}, gap = {report.gap}")

print("\nThe zero-diagonal family works at every order: "
      "frob^2 = max_tr = n/(n-1)")
for n in (2, 3, 5, 8, 13):
    t = make_tn(n)
    print(f"  n = {n:2d}: {frobenius_sq(t)} = {max_trace_brute(t).max_value}"
          if n <= 10 else
          f"  n = {n:2d}: {frobenius_sq(t)}")
