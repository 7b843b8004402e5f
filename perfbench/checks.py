"""Output checkers owned by the benchmark.

None of this imports dstoch.  Each checker takes the benchmark's own input
and the program's plain JSON output and raises CheckFailed on any
disagreement.  Exact claims are re-derived with the benchmark's own
Fraction code; large-n claims are checked against independent float
solvers (scipy's linear_sum_assignment, a numpy Ryser permanent).
"""

import json
import math
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations

import gen


class CheckFailed(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise CheckFailed(what)


# ── exact helpers ─────────────────────────────────────────────────────────

def frob(a):
    return sum(x * x for row in a for x in row)


def diag(a, p):
    return sum(a[i][p[i]] for i in range(len(a)))


def brute_max(a):
    """Maximal diagonal sum and its lexicographically smallest argmax, on
    integers over the common denominator."""
    grid, den = scaled(a)
    best, arg = None, None
    for p in permutations(range(len(a))):
        s = sum(row[j] for row, j in zip(grid, p))
        if best is None or s > best:
            best, arg = s, list(p)
    return F(best, den), arg


def is_ds(a):
    n = len(a)
    return (n >= 1 and all(len(row) == n for row in a)
            and all(x >= 0 for row in a for x in row)
            and all(sum(row) == 1 for row in a)
            and all(sum(a[i][j] for i in range(n)) == 1 for j in range(n)))


def is_perm(p, n):
    return isinstance(p, list) and sorted(p) == list(range(n))


def rows_of(payload):
    """Fraction rows from a {"n", "rows"} payload or a bare rows list."""
    rows = payload["rows"] if isinstance(payload, dict) else payload
    if isinstance(payload, dict):
        expect(payload["n"] == len(rows), "matrix n disagrees with its rows")
    return [[F(x) for x in row] for row in rows]


def scaled(a):
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[int(x * den) for x in row] for row in a], den


def permanent_naive(a):
    """The defining n!-term sum, on integers over the common denominator."""
    grid, den = scaled(a)
    n = len(a)
    total = 0
    for p in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= grid[i][p[i]]
            if not prod:
                break
        total += prod
    return F(total, den ** n)


def max_product(a):
    grid, den = scaled(a)
    best, arg = None, None
    for p in permutations(range(len(a))):
        prod = 1
        for row, j in zip(grid, p):
            prod *= row[j]
        if best is None or prod > best:
            best, arg = prod, list(p)
    return F(best, den ** len(a)), arg


def in_ellipse(k, u, v):
    """The paper's solid ellipses E1..E3."""
    if k == 1:
        return 25 * (u + F(1, 5)) ** 2 + 15 * v * v <= 16
    if k == 2:
        return 25 * (u - F(1, 5)) ** 2 + 15 * v * v <= 16
    return 15 * u * u + 25 * (v - F(1, 5)) ** 2 <= 16


def feasible(u, v, r, sign):
    """U_minus / U_plus by definition: the weak form at that root is >= 0."""
    return all(x >= 0 for row in gen.weak_rows(u, v, gen.weak_w(u, v, r, sign)) for x in row)


@lru_cache(maxsize=None)
def orbit_union():
    """Every P C Q for the six forms C: the 49 saturating 3x3 matrices."""
    out = {}
    for tag, c in gen.FORMS.items():
        for p in gen.PERMS3:
            for q in gen.PERMS3:
                out[tuple(map(tuple, gen.permute(c, p, q)))] = tag
    return out


CENSUS_DS_COUNT = 1_788_886


@lru_cache(maxsize=None)
def grid_ds_count(d, zero_first=False):
    """Number of 3x3 doubly stochastic matrices in (1/d)Z, in closed form
    per (x11, x12, x21): x22 ranges over an interval.  With zero_first, only
    those with x11 = 0; every other cell gives the same count, since row and
    column permutations act transitively on cells."""
    total = 0
    for x11 in ([0] if zero_first else range(d + 1)):
        for x12 in range(d - x11 + 1):
            for x21 in range(d - x11 + 1):
                lo = max(0, d - x11 - x12 - x21)
                hi = min(d - x21, d - x12)
                total += max(0, hi - lo + 1)
    return total


# ── checkers on plain outputs ─────────────────────────────────────────────

def check_gap(a, out):
    f, claimed = frob(a), F(out["max_trace"])
    expect(F(out["frob_sq"]) == f, "frob_sq differs from the exact sum of squares")
    if len(a) <= 8:
        m, _ = brute_max(a)
    else:
        opt, m = assignment_max(a)
        expect(abs(opt - float(claimed)) <= 1e-9,
               "max_trace disagrees with scipy's assignment beyond 1e-9")
    expect(claimed == m, "max_trace differs from the maximal diagonal sum")
    expect(F(out["gap"]) == m - f, "gap is not max_trace - frob_sq")
    expect(out["saturated"] is (m == f), "saturated flag contradicts the gap")


def assignment_max(a):
    """scipy's float optimum and the exact diagonal sum at its argmax.  The
    exact sum is the maximal trace: distinct diagonal sums of these inputs
    differ by at least 1/den, far above float error."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment
    x = np.array([[float(v) for v in row] for row in a])
    rows, cols = linear_sum_assignment(x, maximize=True)
    return float(x[rows, cols].sum()), diag(a, list(cols))


def check_classify3(a, out):
    f = frob(a)
    m, _ = brute_max(a)
    expect(out["saturated"] is (m == f), "saturation decision contradicts the gap")
    if out["saturated"]:
        expect(out["form"] in gen.FORMS, "unknown form tag")
        expect(is_perm(out["P"], 3) and is_perm(out["Q"], 3), "witness is not two permutations")
        expect(gen.permute(a, out["P"], out["Q"]) == gen.FORMS[out["form"]],
               "P A Q is not the named canonical form")
    else:
        expect(is_perm(out["separator"], 3), "separator is not a permutation")
        expect(diag(a, out["separator"]) > f, "separator's diagonal sum does not exceed frob_sq")


def check_classify2(a, out):
    m, _ = brute_max(a)
    expect(out == {"saturated": m == frob(a)}, "order-2 decision contradicts the gap")


def check_maxtrace(a, out, method):
    m, arg = brute_max(a)
    expect(out["method"] == method, "wrong method reported")
    expect(F(out["max_trace"]) == m, "max_trace is not the maximal diagonal sum")
    expect(out["argmax"] == arg, "argmax is not the lex-smallest maximiser")


def check_maxprod(a, out):
    m, arg = max_product(a)
    expect(F(out["max_product"]) == m and out["argmax"] == arg,
           "max_product or its lex-smallest argmax is wrong")


def check_permanent(a, out):
    if len(a) <= 8:
        expect(F(out["permanent"]) == permanent_naive(a), "permanent differs from the n!-term sum")
        return
    ref = permanent_float(a)
    expect(abs(float(F(out["permanent"])) - ref) <= 1e-9 * abs(ref),
           "permanent differs from a float Ryser beyond 1e-9 relative")


def permanent_float(a):
    """Float Ryser over all column subsets, with an exactly rounded sum."""
    import numpy as np
    n = len(a)
    x = np.array([[float(v) for v in row] for row in a])
    subsets = (np.arange(1, 1 << n)[:, None] >> np.arange(n)) & 1
    prods = (subsets.astype(float) @ x.T).prod(axis=1)
    signs = np.where((n - subsets.sum(axis=1)) % 2 == 0, 1.0, -1.0)
    return math.fsum((signs * prods).tolist())


def check_params(a, out):
    expect(a[1][0] == 0, "params needs a zero at (2,1)")
    u, v, w = (F(out[k]) for k in ("u", "v", "w"))
    expect(gen.weak_rows(u, v, w) == a, "(u, v, w) does not rebuild the matrix")


def check_region(u, v, r, out):
    expected = {"E0": 6 * (u * u + v * v) <= 7,
                "E1": in_ellipse(1, u, v), "E2": in_ellipse(2, u, v), "E3": in_ellipse(3, u, v),
                "U_minus": feasible(u, v, r, "minus"), "U_plus": feasible(u, v, r, "plus")}
    expect(out == expected, f"region flags differ: {out} vs {expected}")


def canonical_rows(name):
    if name[:3] in ("Tn:", "Jn:"):
        n = int(name[3:])
        if name.startswith("Jn:"):
            return [[F(1, n)] * n for _ in range(n)]
        return [[F(0) if i == j else F(1, n - 1) for j in range(n)] for i in range(n)]
    return gen.FORMS[{"I1J2": "I1_J2"}.get(name, name)]


def check_canonical(name, out):
    expect(rows_of(out) == canonical_rows(name), "canonical matrix differs")


def check_construct(u, v, r, sign, out):
    w = gen.weak_w(u, v, r, sign)
    expect(out["exact"] is True and F(out["w"]) == w, "w is not the exact rational root")
    a = rows_of(out["matrix"])
    expect(a == gen.weak_rows(u, v, w) and is_ds(a), "matrix is not the DS weak form")
    expect(frob(a) == sum(a[i][i] for i in range(3)), "weak form has frob_sq != trace")


def check_construct_irr(u, v, sign, out):
    disc = float(7 - 6 * u * u - 6 * v * v)
    w = (1 - 2 * float(v) + (-1 if sign == "minus" else 1) * math.sqrt(disc)) / 8
    expect(out["exact"] is False and abs(out["w"] - w) <= 1e-12, "float root w is wrong")
    a = out["matrix"]
    ref = gen.weak_rows(float(u), float(v), w)
    expect(all(abs(a[i][j] - ref[i][j]) <= 1e-12 for i in range(3) for j in range(3)),
           "float matrix differs from the weak form")
    expect(min(min(row) for row in a) >= -1e-9, "float matrix has a negative entry")
    expect(all(abs(sum(row) - 1) <= 1e-9 for row in a)
           and all(abs(sum(a[i][j] for i in range(3)) - 1) <= 1e-9 for j in range(3)),
           "float matrix is not doubly stochastic to 1e-9")
    expect(abs(sum(x * x for row in a for x in row) - (a[0][0] + a[1][1] + a[2][2])) <= 1e-9,
           "float weak form has frob_sq != trace")


def check_probe(n, samples, seed, out):
    expect((out["n"], out["samples"], out["seed"]) == (n, samples, seed), "probe echo differs")
    for c in out["candidates"]:
        expect(0 <= c["index"] < samples and c["kind"] in ("sinkhorn", "mixture", "jitter"),
               "bad candidate index or kind")
        expect(c["gap_float"] < out["tol"], "candidate above the float tolerance")
        exact_ok = False
        if c["matrix"] is not None:
            a = rows_of(c["matrix"])
            exact_ok = is_ds(a) and brute_max(a)[0] == frob(a)
        expect(c["verified"] is exact_ok, "verified flag fails exact re-verification")


def block_j(spec):
    """P (J_{parts[0]} ⊕ ...) Q, entry (i, j) = M[p(i), q^-1(j)]."""
    owner = [b for b, k in enumerate(spec["parts"]) for _ in range(k)]
    size = {b: k for b, k in enumerate(spec["parts"])}
    qi = gen.inverse(spec["q"])
    n = len(owner)
    return [[F(1, size[owner[spec["p"][i]]]) if owner[spec["p"][i]] == owner[qi[j]] else F(0)
             for j in range(n)] for i in range(n)]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def check_products(n, samples, out):
    expect(len(out["probes"]) == samples, "wrong number of product probes")
    for pr in out["probes"]:
        left, right = pr["left"], pr["right"]
        for spec in (left, right):
            expect(is_perm(spec["p"], n) and is_perm(spec["q"], n) and sum(spec["parts"]) == n,
                   "bad block-J spec")
        prod = matmul(block_j(left), block_j(right))
        expect(rows_of(pr["product"]) == prod and is_ds(prod), "product differs")
        f, (m, _) = frob(prod), brute_max(prod)
        expect(F(pr["frob_sq"]) == f and F(pr["max_trace"]) == m, "product frob or trace wrong")
        # P' = (P1 Q1 P2 Q2)^T; tr(M P') is the diagonal sum at the chain.
        chain = list(range(n))
        for p in (left["p"], left["q"], right["p"], right["q"]):
            chain = [p[c] for c in chain]
        expect(pr["trace_perm"] == gen.inverse(chain), "trace_perm is not (P1 Q1 P2 Q2)^T")
        expect(pr["identity_holds"] is (diag(prod, chain) == f), "identity flag is wrong")
        expect(pr["identity_holds"], "the product trace identity failed")
        expect(pr["saturates"] is (m == f), "saturates flag contradicts the gap")


def check_asymmetry(a, out):
    expect(out == {"asymmetric": not gen.symmetric_test(a)},
           "asymmetry decision differs from the single-permutation test")


def check_census(inp, out):
    d, zero = inp["d"], inp["zero_cell"]
    expect(out["denominator"] == d and out["total_candidates"] == (d + 1) ** 4,
           "census size is wrong")
    want = CENSUS_DS_COUNT if zero is None else grid_ds_count(d, True)
    expect(out["ds_count"] == want, f"ds_count {out['ds_count']} != {want}")
    orbit = orbit_union()
    expected = {m for m in orbit if zero is None or m[zero[0]][zero[1]] == 0}
    found = set()
    for s in out["saturating"]:
        a = rows_of(s["matrix"])
        key = tuple(map(tuple, a))
        expect(key in orbit, "a saturating matrix outside the six orbits")
        expect(s["form"] == orbit[key], "wrong canonical form")
        expect(gen.permute(a, s["P"], s["Q"]) == gen.FORMS[s["form"]], "bad census witness")
        found.add(key)
    expect(found == expected and len(found) == len(out["saturating"]),
           "saturating set is not the orbit union")


def check_order3(inp, out):
    if inp["kind"] == "point":
        u, v, r = inp["u"], inp["v"], inp["r"]
        fm, fp = feasible(u, v, r, "minus"), feasible(u, v, r, "plus")
        expect(out["U_minus"] is fm and out["U_plus"] is fp, "region flags differ")
        for sign in ("minus", "plus"):
            expect(out["roots"][sign] == [str(gen.weak_w(u, v, r, sign)), True],
                   "solve_w root is wrong")
        if not (fm or fp):
            expect("matrix" not in out, "matrix built outside both regions")
            return
        sign = "minus" if fm else "plus"
        a = rows_of(out["matrix"])
        expect(a == gen.weak_rows(u, v, gen.weak_w(u, v, r, sign)) and is_ds(a),
               "params_to_matrix differs from the weak form")
    else:
        a = inp["rows"]
    check_classify3(a, out["classify"])
    check_gap(a, out["gap"])
    if a[1][0] == 0:
        check_params(a, dict(zip("uvw", out["params"])))
        f = frob(a)
        weak = next((list(p) for p in permutations(range(3)) if diag(a, p) == f), None)
        expect(out["weak"] == weak, "weak_saturation_check differs")
        tr = diag(a, [0, 1, 2])
        expect(out["trace_dominant"] is all(diag(a, p) <= tr for p in permutations(range(3))),
               "trace_dominant differs")
    else:
        expect("params" not in out, "zero-cell extras ran without a zero cell")


def check_large_n(inp, out):
    kind = inp["kind"]
    if kind == "gap":
        check_gap(inp["rows"], out)
    elif kind == "permanent":
        check_permanent(inp["rows"], out)
    elif kind == "products":
        check_products(inp["n"], inp["samples"], out)
    elif kind == "probe":
        check_probe(inp["n"], inp["samples"], inp["seed"], out)
    else:
        check_asymmetry(inp["rows"], out)


def check_cli(inp, out):
    """A CLI op: exit 0 and one JSON line on stdout, checked by verb."""
    expect(out["code"] == 0, f"exit code {out['code']}")
    lines = out["stdout"].splitlines()
    expect(len(lines) == 1, "expected one line of output")
    res = json.loads(lines[0])
    kind, a = inp["kind"], inp["rows"]
    if kind == "check":
        expect(is_ds(a) and res == {"n": len(a), "doubly_stochastic": True}, "check output")
    elif kind == "gap":
        check_gap(a, res)
    elif kind == "classify2":
        check_classify2(a, res)
    elif kind == "classify3":
        check_classify3(a, res)
    elif kind.startswith("maxtrace_"):
        check_maxtrace(a, res, kind.split("_", 1)[1])
    elif kind == "maxprod":
        check_maxprod(a, res)
    elif kind == "permanent":
        check_permanent(a, res)
    elif kind == "params":
        check_params(a, res)
    elif kind == "region":
        check_region(inp["u"], inp["v"], inp["r"], res)
    elif kind == "canonical":
        check_canonical(inp["name"], res)
    elif kind == "construct":
        expect(res["u"] == str(inp["u"]) and res["v"] == str(inp["v"]), "construct echo")
        check_construct(inp["u"], inp["v"], inp["r"], inp["sign"], res)
    elif kind == "construct_irr":
        check_construct_irr(inp["u"], inp["v"], inp["sign"], res)
    else:
        check_probe(3, inp["samples"], inp["seed"], res)


CHECKERS = {"order3": check_order3, "large_n": check_large_n, "census": check_census,
            "cli": check_cli}
