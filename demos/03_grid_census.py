#!/usr/bin/env python3
"""The census of the 1/d grid inside the order-3 Birkhoff polytope.

The paper classifies the 3 x 3 saturators: they are exactly the (P, Q)
permutation orbits of six canonical forms, 49 matrices in all.  So the
census is a lookup of that classification, not a search.  The saturating
points of the 1/d grid are the orbit members whose denominator divides
d, each stored with its form and witness.  The doubly stochastic
count is the Ehrhart polynomial of the Birkhoff polytope,
C(d+4,4) + C(d+3,4) + C(d+2,4) (MacMahon).  The evidence that nothing
else saturates is the exhaustive scan in tests/test_explore.py, which
the census is checked against at every d <= 60 and at d = 120 and 240.

Usage: python 03_grid_census.py [denominator]   (default 12, try 60 or 120)
"""

import sys
import time
from collections import Counter

from dstoch import enumerate_grid

d = int(sys.argv[1]) if len(sys.argv) > 1 else 12

enumerate_grid(1)  # loads the classifier, outside the timing
start = time.perf_counter()
report = enumerate_grid(d)
elapsed = time.perf_counter() - start

print(f"denominator        : {report.denominator}")
print(f"grid points        : {report.total_candidates:,}")
print(f"doubly stochastic  : {report.ds_count:,}")
print(f"saturating         : {len(report.saturating)} of the 49 orbit members")
print(f"elapsed            : {elapsed * 1e3:.1f} ms")

forms = Counter(c.form for _, c in report.saturating)
print("\nby canonical form  :", dict(sorted(forms.items())))

print("\nsample finds:")
for m, c in report.saturating[:3]:
    print(f"  {m.rows}  ->  {c.form}")
