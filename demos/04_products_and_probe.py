#!/usr/bin/env python3
"""Products of block-J forms and the hunt for irrational solutions.

Matrices of the form P (J_a ⊕ J_b ⊕ ...) Q always saturate, and products
of two of them always satisfy a trace identity, yet the products
themselves sometimes saturate and sometimes do not.  The probe half
samples floating-point near-solutions and tries to certify them as exact
rationals; every certified find so far has rational entries, consistent
with the open rationality question.
"""

from dstoch import (BlockSpec, Permutation, block_product_probe, classify3,
                    rationality_probe, search_products)

id_ = Permutation.identity

print("Three landmark products")
print("=" * 55)
cases = [
    ("S as a product", BlockSpec(id_(3), (1, 2), id_(3)),
     BlockSpec(Permutation([2, 0, 1]), (1, 2), id_(3))),
    ("the asymmetric 4x4 example", BlockSpec(id_(4), (1, 3), id_(4)),
     BlockSpec(id_(4), (2, 2), id_(4))),
    ("a 9x9 non-saturating product", BlockSpec(id_(9), (3, 3, 3), id_(9)),
     BlockSpec(id_(9), (2, 3, 4), id_(9))),
]
for name, left, right in cases:
    probe = block_product_probe(left, right)
    print(f"\n{name}: parts {left.parts} x {right.parts}")
    print(f"  frob^2 = {probe.frob_sq}, max_tr = {probe.max_trace}, "
          f"saturates = {probe.saturates}")
    print(f"  trace identity via P' = perm{list(probe.trace_perm.image)}: "
          f"{probe.identity_holds}")

print("\n\nSeeded product search (n = 6, 40 samples)")
probes = search_products(6, 3, samples=40, seed=555)
sat = [p for p in probes if p.saturates]
print(f"  saturating: {len(sat)}/40; trace identity held on all: "
      f"{all(p.identity_holds for p in probes)}")
for p in probes:
    if not p.saturates:
        print(f"  first non-saturating: parts {p.left.parts} x "
              f"{p.right.parts}, gap = {p.max_trace - p.frob_sq}")
        break

print("\nRationality probe (n = 3, 60 samples)")
report = rationality_probe(3, 60, seed=20260808)
print(f"  near-saturating candidates: {len(report.candidates)}")
for c in report.candidates[:6]:
    form = classify3(c.reconstructed).form if c.verified else "-"
    print(f"  sample {c.index:3d} [{c.kind:8}] float gap {c.gap_float:8.1e} "
          f"-> verified={c.verified} form={form}")
print("  every verified find is exactly rational and exactly saturating;")
print("  generic positive samples never get near saturation.")
