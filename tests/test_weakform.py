"""Region predicates, boundary curves, the parametrized construction, and
the weak-form residual."""

import ast
import itertools
import math
import random
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dstoch import (
    NegativeDiscriminant,
    NotDoublyStochastic,
    Permutation,
    RatMatrix,
    ZeroCellMissing,
    boundary_csv,
    boundary_curves,
    canonical,
    classify3,
    diagonal_sum,
    frobenius_sq,
    in_disc_e0,
    in_ellipse,
    in_u_minus,
    in_u_plus,
    matrix_to_params,
    params_to_matrix,
    solve_w,
    trace_dominant,
    validate_ds,
    weak_residual,
    weak_saturation_check,
)
from dstoch.ratmat import DomainError, _integer
from dstoch.weakform import SIGN_MINUS, SIGN_PLUS, WeakFormParams, _q, _Surd

GRID_40 = [F(k, 40) for k in range(-48, 49)]  # [-6/5, 6/5] step 1/40


def rational_sqrt(x):
    """Exact square root of a nonnegative Fraction, or None if irrational."""
    if x >= 0 and all(math.isqrt(k) ** 2 == k for k in (x.numerator, x.denominator)):
        return F(math.isqrt(x.numerator), math.isqrt(x.denominator))
    return None


# ── exact predicates ──────────────────────────────────────────────────────

def test_disc_e0():
    assert in_disc_e0(0, 0)
    assert in_disc_e0(0, 1)          # 6 <= 7
    assert not in_disc_e0(1, 1)      # 12 > 7


def test_ellipse_boundaries():
    # the ellipses are closed: a boundary point is in, one just past it out
    assert in_ellipse(3, 0, 1) and not in_ellipse(3, 0, F(101, 100))
    assert in_ellipse(2, 1, 0) and not in_ellipse(2, F(101, 100), 0)
    assert in_ellipse(1, 0, 0)


def test_u_minus_membership():
    assert in_u_minus(0, -1)
    assert in_u_minus(0, F(-3, 5))      # on the boundary of E3
    assert not in_u_minus(F(3, 5), 0)   # strictly inside E3


def test_u_plus_membership():
    assert in_u_plus(0, 1)              # the isolated point
    assert in_u_plus(F(2, 5), -1)
    assert not in_u_plus(0, 0)          # interior of E1


def test_u_plus_subset_of_u_minus_except_isolated_point():
    for u in GRID_40:
        for v in GRID_40:
            if in_u_plus(u, v) and (u, v) != (0, 1):
                assert in_u_minus(u, v)
    assert in_u_plus(0, 1) and not in_u_minus(0, 1)


def test_sign_branches_give_distinct_matrices_at_common_points():
    # the parameter regions overlap (the plus region is a thin sliver, so
    # a 1/80 step is needed to collect 100 shared points), yet the two
    # constructed matrices never coincide: the w-roots differ wherever the
    # discriminant is positive
    grid = [F(k, 80) for k in range(-96, 97)]
    common = [(u, v) for u in grid for v in grid
              if in_u_minus(u, v) and in_u_plus(u, v)
              and solve_w(u, v, "minus").discriminant > 0]
    assert len(common) >= 100
    for u, v in common[:100]:
        minus = params_to_matrix(solve_w(u, v, "minus"))
        plus = params_to_matrix(solve_w(u, v, "plus"))
        assert minus != plus


# ── boundary curves ───────────────────────────────────────────────────────

def test_curve_values():
    rows = boundary_curves(-1.2, 1.2, 0.05)
    table = {round(u, 6): (f, g, h) for u, f, g, h in rows}
    assert table[0.0][1] == pytest.approx(-0.6)                   # g(0)
    assert table[0.4][0] == pytest.approx(-1.0)                   # f(2/5)
    assert table[0.0][2] == pytest.approx(-math.sqrt(7 / 6))      # h(0)
    assert table[1.2][0] is None                                  # f undefined
    us = [u for u, *_ in rows]
    assert us == sorted(us)


def test_curve_h_seam_continuity():
    # both branches agree at |u| = 1/2: -sqrt(11/12)
    rows = boundary_curves(0.5, 0.5, 1.0)
    (_, f, _, h), = rows
    assert h == pytest.approx(-math.sqrt(11 / 12))
    assert f == pytest.approx(h)


def test_boundary_csv_shape():
    text = boundary_csv(boundary_curves(-1.1, 1.1, 0.1))
    lines = text.strip().split("\n")
    assert lines[0] == "u,f,g,h"
    assert len(lines) == 24
    assert lines[1].startswith("-1.1,,")  # f undefined at -1.1


# ── construction ──────────────────────────────────────────────────────────

def test_construct_exact_solution_points():
    cases = [
        ((0, F(-3, 5)), "minus", "R", F(0)),
        ((0, 1), "plus", "I3", F(0)),
        ((0, -1), "plus", "T", F(1, 2)),
    ]
    for (u, v), sign, form, w in cases:
        params = solve_w(u, v, sign)
        assert params.exact and params.w == w
        m = params_to_matrix(params)
        assert classify3(m).form == form
    t_like = params_to_matrix(solve_w(0, -1, "plus"))
    assert t_like.rows == ((F(1, 2), F(1, 2), 0),
                           (0, F(1, 2), F(1, 2)),
                           (F(1, 2), 0, F(1, 2)))


def test_construct_errors():
    with pytest.raises(NegativeDiscriminant):
        solve_w(1, 1, "minus")
    with pytest.raises(NotDoublyStochastic) as exc:
        params_to_matrix(solve_w(0, F(-3, 5), "plus"))  # interior of E1; w too big
    assert exc.value.entry == "a13"


def test_matrix_to_params_examples():
    assert matrix_to_params(canonical("R")) == (0, F(-3, 5), 0)
    m = validate_ds(RatMatrix([[1, 0, 0],
                               [0, F(1, 2), F(1, 2)],
                               [0, F(1, 2), F(1, 2)]]))
    assert matrix_to_params(m) == (1, 0, 0)
    t_like = validate_ds(RatMatrix([[F(1, 2), F(1, 2), 0],
                                    [0, F(1, 2), F(1, 2)],
                                    [F(1, 2), 0, F(1, 2)]]))
    assert matrix_to_params(t_like) == (0, -1, F(1, 2))
    with pytest.raises(ZeroCellMissing):
        matrix_to_params(canonical("J3"))


def test_params_matrix_round_trip():
    for u, v, sign in [(0, F(-3, 5), "minus"), (0, -1, "plus"),
                       (F(2, 5), -1, "plus"), (1, 0, "minus")]:
        m = params_to_matrix(solve_w(u, v, sign))
        assert params_to_matrix(matrix_to_params(m)) == m


# ── the residual ──────────────────────────────────────────────────────────

def test_weak_residual_examples():
    assert weak_residual(0, F(-3, 5), 0) == 0
    assert weak_residual(0, 1, 0) == 0
    assert weak_residual(0, 0, 0) == F(-3, 8)


def test_irrational_roots_take_the_triple_route():
    # every irrational root on the 1/10 grid inside E0 zeroes the residual,
    # and a (u, v, w) triple builds the same rows as its WeakFormParams
    grid = [F(k, 10) for k in range(-11, 12)]
    roots = feasible = 0
    for u, v in itertools.product(grid, grid):
        if not in_disc_e0(u, v) or rational_sqrt(7 - 6 * u * u - 6 * v * v) is not None:
            continue
        for sign in ("minus", "plus"):
            params = solve_w(u, v, sign)
            assert not params.exact and weak_residual(u, v, params.w) == 0
            roots += 1
            try:
                rows = params_to_matrix(params)
            except NotDoublyStochastic:
                continue
            feasible += 1
            assert params_to_matrix((u, v, params.w)) == rows
    assert (roots, feasible) == (618, 67)
    params = solve_w(0, F(-21, 20), "minus")
    assert params_to_matrix((0, F(-21, 20), params.w)) == params_to_matrix(params)


def test_residual_equals_frobenius_minus_trace():
    # both sides are polynomials of degree <= 2 in each of u, v, w, so
    # agreement on a 4x4x4 grid forces the identity
    pts = [F(-1), F(-1, 3), F(1, 2), F(1)]
    for u in pts:
        for v in pts:
            for w in pts:
                m = params_to_matrix((u, v, w)) if _nonneg(u, v, w) else None
                rows = _format(u, v, w)
                frob = sum(x * x for row in rows for x in row)
                tr = rows[0][0] + rows[1][1] + rows[2][2]
                assert weak_residual(u, v, w) == frob - tr
                if m is not None:
                    assert frobenius_sq(m) - diagonal_sum(m, (0, 1, 2)) == frob - tr


def _format(u, v, w):
    return [[(v + u + 3) / 4, w, (1 - v - u) / 4 - w],
            [F(0), (v - u + 3) / 4, (1 - v + u) / 4],
            [(1 - v - u) / 4, (1 - v + u) / 4 - w, (v + 1) / 2 + w]]


def _nonneg(u, v, w):
    return all(x >= 0 for row in _format(u, v, w) for x in row)


def test_residual_route_matches_direct_route_on_the_60_grid():
    # the full a21 = 0 slice of the 1/60 census, in scaled integers: the
    # residual computed through the (u, v, w) reparametrization must flag
    # exactly the matrices with frob^2 == tr
    d = 60
    r = np.arange(d + 1, dtype=np.int64)
    x11, x12, x22 = np.meshgrid(r, r, r, indexing="ij")
    x13 = d - x11 - x12
    x23 = d - x22          # row 1 is (0, x22, x23)
    x31 = d - x11
    x32 = d - x12 - x22
    x33 = x11 + x12 + x22 - d
    ok = (x13 >= 0) & (x32 >= 0) & (x33 >= 0)
    frob = (x11**2 + x12**2 + x13**2 + x22**2 + x23**2
            + x31**2 + x32**2 + x33**2)
    direct = frob == d * (x11 + x22 + x33)
    u = 2 * (x11 - x22)
    v = 2 * (x11 + x22) - 3 * d
    w = x12
    resid8 = (32 * w**2 + 8 * w * (2 * v - d)
              + 3 * u**2 + 5 * v**2 - 2 * v * d - 3 * d * d)
    assert int(ok.sum()) == 39711  # the whole a21 = 0 slice
    assert np.array_equal(direct[ok], (resid8 == 0)[ok])


def test_residual_zero_iff_frobenius_equals_trace_on_grid():
    # every DS matrix with the zero cell, entries in (1/20)Z, through the
    # exact library routes
    d = 20
    seen = 0
    for a11 in range(d + 1):
        for a12 in range(d + 1 - a11):
            for a22 in range(d + 1):
                a23 = d - a22
                a31 = d - a11
                a32 = d - a12 - a22
                a33 = a11 + a12 + a22 - d
                if min(a23, a31, a32, a33) < 0:
                    continue
                m = validate_ds(RatMatrix([
                    [F(a11, d), F(a12, d), F(d - a11 - a12, d)],
                    [0, F(a22, d), F(a23, d)],
                    [F(a31, d), F(a32, d), F(a33, d)]]))
                seen += 1
                resid = weak_residual(*matrix_to_params(m))
                assert (resid == 0) == (frobenius_sq(m) == diagonal_sum(m, (0, 1, 2)))
    assert seen > 500


# ── saturation helpers ────────────────────────────────────────────────────

def test_weak_saturation_check_exact():
    assert weak_saturation_check(canonical("I3")) == Permutation.identity(3)
    assert weak_saturation_check(canonical("J3")) == Permutation.identity(3)
    # a matrix with frob != every diagonal sum
    m = validate_ds(RatMatrix([[F(1, 2), F(1, 4), F(1, 4)],
                               [F(1, 4), F(1, 2), F(1, 4)],
                               [F(1, 4), F(1, 4), F(1, 2)]]))
    assert weak_saturation_check(m) is None


def test_an_all_positive_weak_solution_besides_j3():
    # J_3 is the only all-positive saturator, not the only all-positive
    # solution of the weak form: ||A||^2 = 5/4 is the sum on the diagonal
    # (0, 2, 1), but the maximal trace is 3/2
    m = validate_ds(RatMatrix([[F(x, 12) for x in row]
                               for row in [[4, 7, 1], [4, 1, 7], [4, 4, 4]]]))
    assert frobenius_sq(m) == F(5, 4)
    assert weak_saturation_check(m) == Permutation([0, 2, 1])
    assert not classify3(m).saturated


def test_exact_witness_at_the_counterexample_point():
    # (u, v) = (0, -21/20), minus root: the weak form holds (identity
    # permutation) but the trace is not maximal, both decided exactly in
    # Q(sqrt(77/200)) with w = 31/80 - sqrt(77/200)/8
    params = solve_w(0, F(-21, 20), "minus")
    assert not params.exact and params.discriminant == F(77, 200)
    m = params_to_matrix(params)
    assert not isinstance(m, RatMatrix)
    assert m[1] == [0, F(39, 80), F(41, 80)]
    assert weak_saturation_check(m) == Permutation.identity(3)
    assert not trace_dominant(m)


def test_trace_dominant_exact():
    assert trace_dominant(canonical("R"))
    t_like = validate_ds(RatMatrix([[F(1, 2), F(1, 2), 0],
                                    [0, F(1, 2), F(1, 2)],
                                    [F(1, 2), 0, F(1, 2)]]))
    assert trace_dominant(t_like)
    assert not trace_dominant(canonical("S"))  # tr(S) = 1/2 < 5/4


def test_region_predicates_match_construction_on_grid():
    for u in GRID_40:
        for v in GRID_40:
            for sign, pred in (("minus", in_u_minus), ("plus", in_u_plus)):
                try:
                    params_to_matrix(solve_w(u, v, sign))
                    feasible = True
                except (NegativeDiscriminant, NotDoublyStochastic):
                    feasible = False
                assert feasible == pred(u, v), (u, v, sign)


def test_exact_grid_saturation_points_are_the_known_eight():
    # grid points with a rational root whose construction is saturated
    found = {"minus": set(), "plus": set()}
    for u in GRID_40:
        for v in GRID_40:
            if rational_sqrt(7 - 6 * u * u - 6 * v * v) is None:
                continue
            for sign in ("minus", "plus"):
                try:
                    m = params_to_matrix(solve_w(u, v, sign))
                except NotDoublyStochastic:
                    continue
                if trace_dominant(m):
                    assert classify3(m).saturated
                    found[sign].add((u, v))
    assert found["minus"] == {(0, -1), (0, F(-3, 5)), (1, 0), (-1, 0)}
    assert found["plus"] == {(0, 1), (0, -1), (F(2, 5), -1), (F(-2, 5), -1)}


# ── the irrational root, exactly ──────────────────────────────────────────

def _surd_nonneg(p, q, disc):
    """p + q sqrt(disc) >= 0, with sqrt(disc) isolated and both sides squared."""
    if q >= 0:
        return p >= 0 or q * q * disc >= p * p
    return p >= 0 and p * p >= q * q * disc


def _reference_decisions(u, v, sign):
    """(feasible, weak permutation, trace dominant) at an irrational root,
    every entry a pair (p, q) standing for p + q sqrt(disc)."""
    disc = 7 - 6 * u * u - 6 * v * v
    w, r = (1 - 2 * v) / 8, F(-1 if sign == "minus" else 1, 8)
    q1, q2 = (1 - v - u) / 4, (1 - v + u) / 4
    rows = [[((v + u + 3) / 4, 0), (w, r), (q1 - w, -r)],
            [(0, 0), ((v - u + 3) / 4, 0), (q2, 0)],
            [(q1, 0), (q2 - w, -r), ((v + 1) / 2 + w, r)]]
    if not all(_surd_nonneg(p, q, disc) for row in rows for p, q in row):
        return False, None, None
    frob = (sum(p * p + q * q * disc for row in rows for p, q in row),
            sum(2 * p * q for row in rows for p, q in row))
    diag = {perm: tuple(sum(rows[i][perm[i]][t] for i in range(3)) for t in (0, 1))
            for perm in itertools.permutations(range(3))}
    weak = next((perm for perm, d in diag.items() if d == frob), None)
    tr = diag[(0, 1, 2)]
    dominant = all(_surd_nonneg(tr[0] - d[0], tr[1] - d[1], disc) for d in diag.values())
    return True, weak, dominant


def test_exact_root_matches_squaring_oracle_on_the_40_grid():
    checked = 0
    for u in GRID_40:
        for v in GRID_40:
            disc = 7 - 6 * u * u - 6 * v * v
            if disc < 0 or rational_sqrt(disc) is not None:
                continue
            for sign in ("minus", "plus"):
                feasible, weak, dominant = _reference_decisions(u, v, sign)
                try:
                    m = params_to_matrix(solve_w(u, v, sign))
                except NotDoublyStochastic:
                    assert not feasible, (u, v, sign)
                    continue
                assert feasible, (u, v, sign)
                got = weak_saturation_check(m)
                assert (None if got is None else got.image) == weak, (u, v, sign)
                assert trace_dominant(m) == dominant, (u, v, sign)
                checked += 1
    assert checked > 1000


def test_surd_order_matches_squaring_oracle():
    # a = 0, both signs of b, same and mixed signs, and equal b parts, on
    # seeded Fractions; the reference squares every case
    rng = random.Random(909)
    small = [F(k, m) for k in range(-6, 7) for m in (1, 2, 3, 7)]
    ds = sorted({F(p, q) for p in range(1, 40) for q in range(1, 6)
                 if rational_sqrt(F(p, q)) is None})
    cases = set()
    for _ in range(4000):
        d = rng.choice(ds)
        x = _Surd(rng.choice(small), rng.choice([b for b in small if b]), d)
        ya = rng.choice(small)
        yb = rng.choice([0, x.b] + small)
        y = ya if yb == 0 else _Surd(ya, yb, d)
        a, b = x.a - ya, x.b - yb
        expected = a < 0 if b == 0 else not _surd_nonneg(a, b, d)
        assert (x < y) == expected, (x, y)
        assert (x > y) == (not expected and (a, b) != (0, 0)), (x, y)
        if b == 0:
            cases.add("b=0")
        else:
            kind = "a=0" if a == 0 else "same" if (a < 0) == (b < 0) else "mixed"
            cases.add((kind, b > 0))
    assert cases == {"b=0"} | {(kind, pos) for kind in ("a=0", "same", "mixed")
                               for pos in (False, True)}
    assert _Surd(F(0), F(1), F(2)) > 0 > _Surd(F(0), F(-1), F(2))
    assert _Surd(F(-3, 2), F(1), F(2)) < 0 < _Surd(F(-1), F(1), F(2))


# rational points on the region boundaries, and the double nearest the
# irrational bottom (0, -sqrt(7/6)) of the disc E0
_BOUNDARY_ANCHORS = [(0, F(-3, 5)), (1, 0), (-1, 0), (0, -1), (F(2, 5), -1),
                     (F(-2, 5), -1), (0, 1), (0, -F(math.sqrt(7 / 6)))]


@pytest.mark.parametrize("eps", [F(1, 10 ** 9), F(1, 10 ** 11)])
def test_construction_matches_regions_next_to_the_boundaries(eps):
    seen, irrational = set(), 0
    for u0, v0 in _BOUNDARY_ANCHORS:
        for du, dv in itertools.product((-eps, 0, eps), repeat=2):
            u, v = u0 + du, v0 + dv
            for sign, pred in (("minus", in_u_minus), ("plus", in_u_plus)):
                try:
                    m = params_to_matrix(solve_w(u, v, sign))
                except (NegativeDiscriminant, NotDoublyStochastic):
                    m = None
                assert (m is not None) == pred(u, v), (u, v, sign)
                if m is not None:
                    # frob^2 - tr is the residual, which w zeroes exactly
                    assert weak_saturation_check(m) == Permutation.identity(3)
                seen.add((sign, m is not None))
                irrational += m is not None and not isinstance(m, RatMatrix)
    assert seen == {(s, ok) for s in ("minus", "plus") for ok in (True, False)}
    assert irrational > 0


def test_weakform_imports_no_numpy():
    import dstoch.weakform
    tree = ast.parse(Path(dstoch.weakform.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        assert not any(name.split(".")[0] == "numpy" for name in names)


# ── the Fraction bodies, as the oracle of the integer grid ────────────────
#
# The region predicates and solve_w as dstoch.weakform decided them in
# Fraction arithmetic before the integer grid replaced them, moved here
# unchanged but for their names.

_F = F
_HALF = _F(1, 2)
_FIFTH = _F(1, 5)


def _oracle_solve_w(u, v, sign):
    if sign not in (SIGN_MINUS, SIGN_PLUS):
        raise DomainError(f"sign must be {SIGN_MINUS!r} or {SIGN_PLUS!r}")
    u, v = _q(u), _q(v)
    disc = 7 - 6 * u * u - 6 * v * v
    if disc < 0:
        raise NegativeDiscriminant(u, v, disc)
    s = -1 if sign == SIGN_MINUS else 1
    root = rational_sqrt(disc)
    w = (_Surd((1 - 2 * v) / 8, _F(s, 8), disc) if root is None
         else (1 - 2 * v + s * root) / 8)
    return WeakFormParams(u, v, w, sign, root is not None, disc)


def _oracle_in_disc_e0(u, v):
    u, v = _q(u), _q(v)
    return 6 * (u * u + v * v) <= 7


def _oracle_in_ellipse(k, u, v, strict_interior=False):
    k, u, v = _integer(k, "the ellipse index"), _q(u), _q(v)
    if k == 1:
        lhs = 25 * (u + _FIFTH) ** 2 + 15 * v * v
    elif k == 2:
        lhs = 25 * (u - _FIFTH) ** 2 + 15 * v * v
    elif k == 3:
        lhs = 15 * u * u + 25 * (v - _FIFTH) ** 2
    else:
        raise DomainError(f"ellipse index must be 1, 2, or 3, got {k!r}")
    return lhs < 16 if strict_interior else lhs <= 16


def _oracle_in_u_minus(u, v):
    return (_oracle_in_disc_e0(u, v)
            and not _oracle_in_ellipse(3, u, v, strict_interior=True)
            and v <= _HALF
            and (u < _HALF or _oracle_in_ellipse(2, u, v))
            and (u > -_HALF or _oracle_in_ellipse(1, u, v)))


def _oracle_in_u_plus(u, v):
    return (_oracle_in_disc_e0(u, v)
            and -_HALF <= u <= _HALF
            and not _oracle_in_ellipse(1, u, v, strict_interior=True)
            and not _oracle_in_ellipse(2, u, v, strict_interior=True)
            and (v < _HALF or _oracle_in_ellipse(3, u, v)))


def _outcome(f, *args):
    """f's result (a WeakFormParams by its repr), or the type and message
    of what it raises."""
    try:
        r = f(*args)
    except Exception as e:  # the exception is the outcome
        return type(e), str(e)
    return repr(r) if isinstance(r, WeakFormParams) else r


_PAIRS = [((in_disc_e0, _oracle_in_disc_e0), ()),
          ((in_u_minus, _oracle_in_u_minus), ()),
          ((in_u_plus, _oracle_in_u_plus), ())]
_PAIRS += [((solve_w, _oracle_solve_w), (sign,)) for sign in ("minus", "plus")]


def _assert_matches_oracle(u, v, ellipses=True):
    for (new, old), extra in _PAIRS:
        assert _outcome(new, u, v, *extra) == _outcome(old, u, v, *extra), (new, u, v, extra)
    for k in (1, 2, 3) if ellipses else ():
        assert _outcome(in_ellipse, k, u, v) == _outcome(_oracle_in_ellipse, k, u, v), (k, u, v)


GRID_60 = [F(k, 60) for k in range(-72, 73)]  # [-6/5, 6/5] step 1/60


@pytest.mark.parametrize("grid", [GRID_40, GRID_60], ids=["40", "60"])
def test_integer_grid_matches_the_fraction_oracle_on_the_grid(grid):
    for u in grid:
        for v in grid:
            _assert_matches_oracle(u, v, ellipses=False)


def _boundary_points(d):
    """{boundary: points of the 1/d grid on it}, for E0-E3, u = +-1/2 and
    v = 1/2, each region's equation multiplied through by d^2."""
    seen = {}
    for a, b in itertools.product(range(-6 * d // 5, 6 * d // 5 + 1), repeat=2):
        on = {"E0": 6 * (a * a + b * b) == 7 * d * d,
              "E1": (5 * a + d) ** 2 + 15 * b * b == 16 * d * d,
              "E2": (5 * a - d) ** 2 + 15 * b * b == 16 * d * d,
              "E3": 15 * a * a + (5 * b - d) ** 2 == 16 * d * d,
              "u=1/2": 2 * a == d, "u=-1/2": 2 * a == -d, "v=1/2": 2 * b == d}
        for kind in (k for k, hit in on.items() if hit):
            seen.setdefault(kind, set()).add((F(a, d), F(b, d)))
    return seen


@pytest.mark.parametrize("d", [40, 60])
def test_integer_grid_matches_the_fraction_oracle_on_every_boundary_point(d):
    seen = _boundary_points(d)
    # E0 has no rational point: 7/6 is not a sum of two rational squares
    assert set(seen) == {"E1", "E2", "E3", "u=1/2", "u=-1/2", "v=1/2"}
    assert {(0, F(-3, 5)), (0, 1), (1, 0), (-1, 0)} <= seen["E3"]
    for u, v in set().union(*seen.values()) | {(F(0), F(1))}:
        _assert_matches_oracle(u, v)


def test_region_seams_cross_the_disc_only_at_irrational_points():
    # On u = 1/2, u = -1/2 and v = 1/2 the excess of E2, E1 and E3 over its
    # bound is 5/2 times E0's, so each seam meets the boundary of E0 where
    # that boundary has no rational point, and whether a region test at a
    # seam is strict changes no answer at a rational point.
    def e0(u, v):
        return 6 * (u * u + v * v) - 7
    for t in GRID_40 + GRID_60:
        assert 25 * (_HALF - _FIFTH) ** 2 + 15 * t * t - 16 == F(5, 2) * e0(_HALF, t)
        assert 25 * (-_HALF + _FIFTH) ** 2 + 15 * t * t - 16 == F(5, 2) * e0(-_HALF, t)
        assert 15 * t * t + 25 * (_HALF - _FIFTH) ** 2 - 16 == F(5, 2) * e0(t, _HALF)


_UNEQUAL = [(F(1, 3), F(-2, 7)), (F(-2, 7), F(1, 3)), (F(5, 12), F(-7, 18)),
            (F(1, 3), 0), (0, F(-2, 7)), (F(3, 5), F(-1, 1000003)),
            (F(-499999, 10 ** 6), F(1, 2)), (F(2, 5), F(-999999, 10 ** 6))]


def test_integer_grid_matches_the_fraction_oracle_on_unequal_denominators():
    for u, v in _UNEQUAL:
        _assert_matches_oracle(u, v)


_INTEGERS = [-2, -1, 0, 1, 2, np.int64(0), np.int64(1), np.int32(-1), np.uint8(1),
             np.int64(-2)]
_REFUSED = [0.5, np.float64(0.0), True, np.bool_(False), "1/2", None, 1 + 0j]


def test_integer_grid_matches_the_fraction_oracle_on_integers_and_refusals():
    for u, v in itertools.product(_INTEGERS, repeat=2):
        _assert_matches_oracle(u, v)
        assert {type(f(u, v)) for f in (in_disc_e0, in_u_minus, in_u_plus)} == {bool}
    for x in _REFUSED:
        for u, v in ((x, 0), (0, x), (F(1, 2), x)):
            _assert_matches_oracle(u, v)
    for k in (0, 4, -1, True, 1.0, np.int64(2), "1"):
        assert (_outcome(in_ellipse, k, F(1, 3), F(1, 7))
                == _outcome(_oracle_in_ellipse, k, F(1, 3), F(1, 7))), k
    for sign in ("MINUS", None, 1):
        assert _outcome(solve_w, 0, 0, sign) == _outcome(_oracle_solve_w, 0, 0, sign)


_RATIONALS = st.one_of(st.fractions(min_value=-2, max_value=2, max_denominator=10 ** 6),
                       st.integers(-2, 2))


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(_RATIONALS, _RATIONALS)
def test_integer_grid_matches_the_fraction_oracle_on_large_denominators(u, v):
    _assert_matches_oracle(u, v)
