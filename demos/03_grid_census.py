#!/usr/bin/env python3
"""Exhaustive census of the 1/d grid inside the order-3 Birkhoff polytope.

Every 3 x 3 doubly stochastic matrix with entries in (1/d)Z is tested for
saturation, exactly.  The census fixes three entries and solves for the
fourth (each saturating point is an integer root of a quadratic), so it
covers the (d+1)^4 grid in O(d^3) work.  The transpose and the swaps of
the last two rows and of the last two columns keep the top-left entry and
saturation, so it scans only one (x12, x21) per orbit of the eight maps
they generate, about 1/8 of the triples, and maps each find back over its
orbit.  The saturating set always comes out as the union of the
permutation orbits of the six canonical forms; at d = 60 (a 13.8M-point
grid, a few milliseconds) and d = 120 that reproduces the classification
at desk scale.

Usage: python 03_grid_census.py [denominator]   (default 12, try 60 or 120)
"""

import sys
import time
from collections import Counter

from dstoch import all_permutations, canonical, enumerate_grid, perm_matrix, validate_ds

d = int(sys.argv[1]) if len(sys.argv) > 1 else 12

enumerate_grid(1)  # loads numpy and the classifier, outside the timing
start = time.perf_counter()
report = enumerate_grid(d)
elapsed = time.perf_counter() - start

print(f"denominator        : {report.denominator}")
print(f"grid points        : {report.total_candidates:,}")
print(f"doubly stochastic  : {report.ds_count:,}")
print(f"saturating         : {len(report.saturating)}")
print(f"elapsed            : {elapsed * 1e3:.1f} ms")

forms = Counter(c.form for _, c in report.saturating)
print("\nby canonical form  :", dict(sorted(forms.items())))

orbit = set()
for tag in ("I3", "J3", "I1_J2", "S", "T", "R"):
    rep = canonical(tag)
    for p in all_permutations(3):
        for q in all_permutations(3):
            orbit.add(validate_ds(perm_matrix(p) @ rep @ perm_matrix(q)))
expected = {m for m in orbit
            if all((x * d).denominator == 1 for x in m.entries())}
found = {m for m, _ in report.saturating}
print(f"\norbit members with denominator dividing {d}: {len(expected)}")
print(f"census matches the orbit union exactly     : {found == expected}")

print("\nsample finds:")
for m, c in report.saturating[:3]:
    print(f"  {m.rows}  ->  {c.form}")
