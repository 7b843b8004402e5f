"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every decision is
exact, irrational weak-form roots included (they live in Q(sqrt(disc))).
Floats appear only in criterion 6's Sinkhorn-rounded samples, which are
reconstructed as exact matrices before use, and in criterion 8's 1e-3
margin, checked on the matrix that `ds construct` prints.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction as F

from dstoch import (
    BlockSpec,
    NegativeDiscriminant,
    NotDoublyStochastic,
    Permutation,
    RatMatrix,
    SplitMix64,
    all_permutations,
    block_j_form,
    block_product_probe,
    canonical,
    check_asymmetry,
    classify3,
    direct_sum,
    enumerate_grid,
    frobenius_sq,
    in_u_minus,
    in_u_plus,
    make_jn,
    make_tn,
    marcus_ree_gap,
    max_diag_product,
    max_trace_assignment,
    max_trace_brute,
    params_to_matrix,
    perm_matrix,
    permanent,
    permutation_equivalent,
    random_ds,
    reconstruct_matrix,
    sinkhorn,
    solve_w,
    validate_ds,
)
from dstoch.cli import main
from test_diagsum import permanent_naive
from test_explore import _scan_census

GRID_40 = [F(k, 40) for k in range(-48, 49)]


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.time() - start:.1f}s]")


def _orbit_union():
    orbit = set()
    for tag in ("I3", "J3", "I1_J2", "S", "T", "R"):
        rep = canonical(tag)
        for p in all_permutations(3):
            for q in all_permutations(3):
                orbit.add(validate_ds(perm_matrix(p) @ rep @ perm_matrix(q)))
    return orbit


def _partitions(n, cap=None):
    if n == 0:
        yield ()
        return
    for k in range(min(n, cap or n), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def test_criterion_1_canonical_values():
    with criterion(1, "canonical values"):
        expected = {"I3": F(3), "J3": F(1), "I1_J2": F(2),
                    "S": F(5, 4), "T": F(3, 2), "R": F(7, 5)}
        for tag, value in expected.items():
            m = canonical(tag)
            assert frobenius_sq(m) == value
            assert max_trace_brute(m).max_value == value
            report = marcus_ree_gap(m)
            assert report.gap == 0 and report.saturated


def test_criterion_2_product_counterexamples():
    with criterion(2, "product counterexamples"):
        d_matrix = validate_ds(direct_sum(make_jn(1), make_jn(3))
                               @ direct_sum(make_jn(2), make_jn(2)))
        report = marcus_ree_gap(d_matrix)
        assert report.frob_sq == F(4, 3)
        assert report.max_trace == F(4, 3)
        assert check_asymmetry(d_matrix)
        nine = validate_ds(
            direct_sum(direct_sum(make_jn(3), make_jn(3)), make_jn(3))
            @ direct_sum(direct_sum(make_jn(2), make_jn(3)), make_jn(4)))
        report = marcus_ree_gap(nine)
        assert report.frob_sq == F(37, 18)
        assert report.max_trace == F(25, 12)
        assert not report.saturated


def test_criterion_3_grid_census_completeness():
    with criterion(3, "1/60 census equals the six orbits"):
        report = enumerate_grid(60)
        # the census is a lookup of the orbits; the exhaustive scan is the
        # independent evidence that the 1/60 grid holds nothing else
        assert report == _scan_census(60, None)
        assert report.total_candidates == 61 ** 4
        found = {m for m, _ in report.saturating}
        assert found == _orbit_union()
        for m, c in report.saturating:
            assert c.saturated and c.form is not None
            p, q = c.witness
            assert validate_ds(perm_matrix(p) @ m @ perm_matrix(q)) \
                == canonical(c.form)


def test_criterion_4_region_construction_equivalence():
    with criterion(4, "region predicates match constructions"):
        disagreements = 0
        for u in GRID_40:
            for v in GRID_40:
                for sign, pred in (("minus", in_u_minus), ("plus", in_u_plus)):
                    try:
                        params_to_matrix(solve_w(u, v, sign))
                        feasible = True
                    except (NegativeDiscriminant, NotDoublyStochastic):
                        feasible = False
                    disagreements += feasible != pred(u, v)
        assert disagreements == 0


def test_criterion_5_solution_points():
    with criterion(5, "exact-root solution points"):
        cases = [
            ((0, -1), "minus", "S"),
            ((0, F(-3, 5)), "minus", "R"),
            ((1, 0), "minus", "I1_J2"),
            ((-1, 0), "minus", "I1_J2"),
            ((0, 1), "plus", "I3"),
            ((0, -1), "plus", "T"),
            ((F(2, 5), -1), "plus", "R"),
            ((F(-2, 5), -1), "plus", "R"),
        ]
        for (u, v), sign, form in cases:
            params = solve_w(u, v, sign)
            assert params.exact
            m = params_to_matrix(params)
            assert permutation_equivalent(m, canonical(form)) is not None
            c = classify3(m)
            assert c.saturated and c.form == form


def _mixed_sample(index, rng):
    """Convex combinations, with every tenth draw Sinkhorn-rounded."""
    n = rng.randint(2, 5)
    if index % 10 == 9:
        raw = [[0.1 + 0.9 * rng.random() for _ in range(n)] for _ in range(n)]
        m = reconstruct_matrix(sinkhorn(raw), tol=1e-6)
        if m is not None:
            return m
    return random_ds(n, rng.randint(1, 2 * n), seed=rng.next64())


def test_criterion_6_property_suites():
    with criterion(6, "property suites"):
        rng = SplitMix64(0xD5)

        # Marcus-Ree and the trace lower bound, 10^4 mixed samples plus
        # every canonical construction
        samples = [_mixed_sample(i, rng) for i in range(10 ** 4)]
        samples += [canonical(tag) for tag in
                    ("I3", "J3", "I1_J2", "S", "T", "R")]
        samples += [make_tn(n) for n in range(2, 9)]
        samples += [make_jn(n) for n in range(1, 9)]
        for a in samples:
            report = marcus_ree_gap(a)
            assert report.gap >= 0
            assert report.max_trace >= 1

        # strictly positive and different from J_n: strict gap
        for _ in range(10 ** 4):
            n = rng.randint(2, 5)
            lam = F(rng.randint(1, 9), 10)
            b = random_ds(n, rng.randint(1, n), seed=rng.next64())
            jn = make_jn(n)
            blend = validate_ds(RatMatrix(
                [[lam * jn[i, j] + (1 - lam) * b[i, j] for j in range(n)]
                 for i in range(n)]))
            if blend == jn:
                continue
            assert all(x > 0 for x in blend.entries())
            assert marcus_ree_gap(blend).gap > 0

        # every block-J form saturates (all partitions of n <= 8)
        for n in range(1, 9):
            for parts in _partitions(n):
                for _ in range(3):
                    m = block_j_form(Permutation.random(n, rng), parts,
                                     Permutation.random(n, rng))
                    assert marcus_ree_gap(m).gap == 0

        # maximal diagonal product >= n^-n
        for _ in range(10 ** 4):
            n = rng.randint(2, 6)
            a = random_ds(n, rng.randint(1, n + 2), seed=rng.next64())
            value, _ = max_diag_product(a)
            assert value >= F(1, n ** n)

        # assignment solver == brute force, value and lex-min witness
        for _ in range(10 ** 3):
            n = rng.randint(2, 7)
            a = random_ds(n, rng.randint(1, 2 * n), seed=rng.next64())
            brute = max_trace_brute(a)
            assign = max_trace_assignment(a)
            assert assign.max_value == brute.max_value
            assert assign.argmax == brute.argmax

        # the product trace identity on seeded block-J pairs
        count = 0
        while count < 10 ** 3:
            n = rng.randint(3, 9)
            left = BlockSpec(Permutation.random(n, rng),
                             _random_parts(n, rng), Permutation.random(n, rng))
            right = BlockSpec(Permutation.random(n, rng),
                              _random_parts(n, rng), Permutation.random(n, rng))
            assert block_product_probe(left, right).identity_holds
            count += 1

        # T_n values
        for n in range(2, 33):
            report = marcus_ree_gap(make_tn(n))
            assert report.frob_sq == F(n, n - 1) == report.max_trace

        # permutation invariance of the gap and of the classification
        for _ in range(10 ** 4):
            n = rng.randint(2, 5)
            a = random_ds(n, rng.randint(1, 6), seed=rng.next64())
            p = perm_matrix(Permutation.random(n, rng))
            q = perm_matrix(Permutation.random(n, rng))
            b = validate_ds(p @ a @ q)
            ra, rb = marcus_ree_gap(a), marcus_ree_gap(b)
            assert ra.frob_sq == rb.frob_sq and ra.max_trace == rb.max_trace
            if n == 3:
                ca, cb = classify3(a), classify3(b)
                assert ca.saturated == cb.saturated and ca.form == cb.form


def _random_parts(n, rng):
    cuts = list(range(1, n))
    rng.shuffle(cuts)
    cuts = sorted(cuts[:rng.randint(0, min(3, n - 1))])
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


def test_criterion_7_permanent():
    with criterion(7, "permanent identities"):
        fact = 1
        for n in range(1, 11):
            fact *= n
            assert permanent(make_jn(n)) == F(fact, n ** n)
            assert permanent(perm_matrix(Permutation.identity(n))) == 1
        rng = SplitMix64(0x7E)
        for _ in range(100):
            n = rng.randint(2, 6)
            a = random_ds(n, rng.randint(1, 2 * n), seed=rng.next64())
            assert permanent(a) == permanent_naive(a)


def test_criterion_8_weak_form_witness():
    with criterion(8, "non-saturating weak-form witness"):
        # exact entries in Q(sqrt(77/200)): the root is irrational
        m = params_to_matrix(solve_w(0, F(-21, 20), "minus"))
        assert not isinstance(m, RatMatrix)
        frob = sum(x * x for row in m for x in row)
        tr = m[0][0] + m[1][1] + m[2][2]
        best = max(sum(m[i][p(i)] for i in range(3))
                   for p in all_permutations(3))
        assert frob == tr
        assert best > tr
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["construct", "--u", "0", "--v", "-21/20",
                         "--sign", "minus"]) == 0
        f = json.loads(out.getvalue())["matrix"]
        best = max(sum(f[i][p(i)] for i in range(3))
                   for p in all_permutations(3))
        assert best - (f[0][0] + f[1][1] + f[2][2]) > 1e-3
