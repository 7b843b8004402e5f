#!/usr/bin/env python3
"""The weak form: matrices whose Frobenius norm squared equals SOME
diagonal sum, parametrized by a point (u, v) and a root sign.

Demonstrates the exact region predicates, the matrix construction at
rational-root points, the famous witness that the weak form does not
imply saturation (an irrational root, still decided exactly), and exports
the boundary-curve table that reproduces the region figures.
"""

from fractions import Fraction as F

from dstoch import (boundary_csv, boundary_curves, classify3, in_disc_e0,
                    in_ellipse, in_u_minus, in_u_plus, params_to_matrix,
                    solve_w, trace_dominant, weak_residual,
                    weak_saturation_check)

print("Exact region membership")
print("=" * 55)
for u, v in [(0, 0), (0, 1), (0, -1), (F(2, 5), -1), (F(3, 5), 0), (1, 1)]:
    print(f"  ({str(u):>4}, {str(v):>4}): E0={in_disc_e0(u, v)!s:5} "
          f"E1={in_ellipse(1, u, v)!s:5} E3={in_ellipse(3, u, v)!s:5} "
          f"U-={in_u_minus(u, v)!s:5} U+={in_u_plus(u, v)!s:5}")

print("\nConstruction at rational-root points (exact)")
for u, v, sign in [(0, F(-3, 5), "minus"), (0, 1, "plus"), (0, -1, "plus")]:
    params = solve_w(u, v, sign)
    m = params_to_matrix(params)
    c = classify3(m)
    print(f"  ({u}, {v}) {sign:5}: w = {params.w}, classifies as {c.form}")

print("\nAn irrational-root point builds an exact matrix over Q(sqrt(disc)):")
params = solve_w(0, F(-21, 20), "minus")
m = params_to_matrix(params)
print(f"  (0, -21/20) minus: w = {params.w}")
print(f"  (discriminant {params.discriminant} is not a perfect square)")
for row in m:
    print("   ", "  |  ".join(str(x) for x in row))
frob = sum(x * x for row in m for x in row)
tr = m[0][0] + m[1][1] + m[2][2]
sigma = weak_saturation_check(m)
print(f"  weak form holds at sigma = {sigma} (frob^2 == tr exactly: "
      f"{frob == tr}),")
print(f"  but trace_dominant = {trace_dominant(m)}: "
      "the matrix does NOT saturate.")

print("\nThe residual 4w^2 + (2v-1)w + (3u^2+5v^2-2v-3)/8 is exactly")
print("frob^2 - tr for the parametrized format:")
for u, v, w in [(0, F(-3, 5), 0), (0, 1, 0), (0, 0, 0), (F(1, 2), 0, F(1, 8))]:
    print(f"  residual({u}, {v}, {w}) = {weak_residual(u, v, w)}")

print("\nDiscriminant arithmetic stays exact:")
for u, v in [(0, F(-3, 5)), (0, F(-21, 20))]:
    params = solve_w(u, v, "minus")
    # an exact minus root is w = (1 - 2v - sqrt(disc)) / 8
    root = 1 - 2 * v - 8 * params.w if params.exact else "irrational"
    print(f"  7-6u^2-6v^2 at ({u}, {v}) = {params.discriminant}, sqrt: {root}")

path = "boundary_curves.csv"
with open(path, "w", encoding="utf-8") as handle:
    handle.write(boundary_csv(boundary_curves(-1.2, 1.2, 0.01)))
print(f"\nWrote {path} (columns u,f,g,h; plot v against u to reproduce the")
print("region figures; empty cells mark points outside a curve's domain).")
