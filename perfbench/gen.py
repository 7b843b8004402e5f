"""Seeded workload inputs, made with the benchmark's own RNG and Fractions.

Nothing here imports dstoch: the program under test only ever receives
the rows, text and arguments built here, so a change to the library's
own generators (`random_ds`, SplitMix64) cannot change a workload.

Every input is a pure function of (seed, workload, op index), so the
checking process rebuilds exactly what the measuring process ran.
"""

import json
import math
import os
import random
from fractions import Fraction as F
from itertools import permutations

H = F(1, 2)
Q4 = F(1, 4)

# The paper's six order-3 saturating representatives, copied here so the
# checkers never consult the library's own table.
FORMS = {
    "I3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "J3": [[F(1, 3)] * 3 for _ in range(3)],
    "I1_J2": [[1, 0, 0], [0, H, H], [0, H, H]],
    "S": [[0, H, H], [H, Q4, Q4], [H, Q4, Q4]],
    "T": [[0, H, H], [H, 0, H], [H, H, 0]],
    "R": [[F(3, 5), 0, F(2, 5)], [0, F(3, 5), F(2, 5)],
          [F(2, 5), F(2, 5), F(1, 5)]],
}
FORMS = {tag: [[F(x) for x in row] for row in rows] for tag, rows in FORMS.items()}

PERMS3 = [list(p) for p in permutations(range(3))]


def rng_for(seed, tag, index):
    """Independent stream per op, so op i can be rebuilt on its own."""
    return random.Random(f"{tag}:{seed}:{index}")


def shuffled(n, rng):
    p = list(range(n))
    rng.shuffle(p)
    return p


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return inv


def permute(a, p, q):
    """perm_matrix(p) @ a @ perm_matrix(q) in the library's witness
    convention, where perm_matrix(p) has its ones at (i, p(i))."""
    qi = inverse(q)
    n = len(a)
    return [[a[p[i]][qi[j]] for j in range(n)] for i in range(n)]


def mixture(n, k, rng):
    """Convex combination of k random permutation matrices with integer
    weights in [1, 1000], normalised by their sum."""
    counts = [[0] * n for _ in range(n)]
    total = 0
    for _ in range(k):
        p = shuffled(n, rng)
        c = rng.randint(1, 1000)
        total += c
        for i in range(n):
            counts[i][p[i]] += c
    return [[F(c, total) for c in row] for row in counts]


def grid_point(d, rng):
    """Uniform 3x3 doubly stochastic matrix with entries in (1/d)Z."""
    while True:
        x11, x12, x21, x22 = (rng.randint(0, d) for _ in range(4))
        cells = [[x11, x12, d - x11 - x12], [x21, x22, d - x21 - x22],
                 [d - x11 - x21, d - x12 - x22, x11 + x12 + x21 + x22 - d]]
        if min(min(row) for row in cells) >= 0:
            return [[F(x, d) for x in row] for row in cells]


def orbit_member(rng):
    tag = rng.choice(sorted(FORMS))
    return permute(FORMS[tag], shuffled(3, rng), shuffled(3, rng))


def zero_to_21(a, rng):
    """Move a zero entry of a 3x3 matrix to 1-based position (2,1), the
    weak-form normal position, by permuting rows and columns."""
    zeros = [(i, j) for i in range(3) for j in range(3) if a[i][j] == 0]
    if not zeros:
        return a
    i, j = rng.choice(zeros)
    rest = [k for k in range(3) if k != i]
    rows = [rest[0], i, rest[1]]
    cols = [j] + [k for k in range(3) if k != j]
    return [[a[r][c] for c in cols] for r in rows]


def weak_point(rng):
    """Rational (u, v, r) with r^2 = 7 - 6u^2 - 6v^2, so the weak-form root
    w is rational: second meet of a rational line through (0, 1, 1) with
    the quadric 6u^2 + 6v^2 + r^2 = 7."""
    while True:
        a, b, c = (rng.randint(-6, 6) for _ in range(3))
        den = 6 * a * a + 6 * b * b + c * c
        if den == 0 or 12 * b + 2 * c == 0:
            continue
        t = F(-(12 * b + 2 * c), den)
        return t * a, 1 + t * b, abs(1 + t * c)


def weak_rows(u, v, w):
    """The paper's parametrized 3x3 weak form at (u, v, w)."""
    return [[(v + u + 3) / 4, w, (1 - v - u) / 4 - w],
            [0 * w, (v - u + 3) / 4, (1 - v + u) / 4],
            [(1 - v - u) / 4, (1 - v + u) / 4 - w, (v + 1) / 2 + w]]


def weak_w(u, v, r, sign):
    return (1 - 2 * v + (-r if sign == "minus" else r)) / 8


def feasible_sign(u, v, r):
    """First root sign whose weak-form matrix is entrywise >= 0, or None."""
    for sign in ("minus", "plus"):
        if all(x >= 0 for row in weak_rows(u, v, weak_w(u, v, r, sign)) for x in row):
            return sign
    return None


def feasible_point(rng):
    """A rational weak point (u, v, r) with a feasible root sign."""
    while True:
        u, v, r = weak_point(rng)
        sign = feasible_sign(u, v, r)
        if sign:
            return u, v, r, sign


def matrix_text(rows):
    return json.dumps({"n": len(rows), "rows": [[str(x) for x in row] for row in rows]},
                      separators=(",", ":"))


# ── order3 ────────────────────────────────────────────────────────────────
#
# Shares: orbit members exercise the witness search, grid points and
# mixtures the non-saturating separator, (u, v) points the weak-form path.

ORDER3_KINDS = (("orbit", 25), ("grid", 35), ("mixture", 25), ("point", 15))


def order3_input(seed, i):
    rng = rng_for(seed, "order3", i)
    kind = rng.choices([k for k, _ in ORDER3_KINDS], [w for _, w in ORDER3_KINDS])[0]
    if kind == "point":
        u, v, r = weak_point(rng)
        return {"kind": kind, "u": u, "v": v, "r": r}
    if kind == "orbit":
        a = orbit_member(rng)
    elif kind == "grid":
        a = grid_point(rng.randint(2, 60), rng)
    else:
        a = mixture(3, rng.randint(1, 4), rng)
    if rng.random() < 0.5:
        a = zero_to_21(a, rng)
    return {"kind": kind, "rows": a, "text": matrix_text(a)}


# ── large_n ───────────────────────────────────────────────────────────────
#
# A fixed rotation: each kernel that only matters at large order gets a
# slot, sized so that check_asymmetry, the heaviest, holds under half the
# time.  Five cheap slots and the (mostly cheap) probe sit below the four
# permanent(14) slots, and five heavy ones above, so the median op is a
# permanent(14) call and the p90 op falls in the permanent(16) and gap(64)
# block, never at the check_asymmetry outliers.

LARGE_N_ROTATION = (
    ("gap", 16), ("permanent", 12), ("gap", 32), ("permanent", 14),
    ("products", 6), ("gap", 64), ("permanent", 14), ("permanent", 16),
    ("probe", 3), ("asymmetry", 6), ("symmetric", 6), ("permanent", 14),
    ("permanent", 16), ("permanent", 14), ("permanent", 16),
)
# gap(16), permanent(12), products, probe, and the cheap symmetric
# check_asymmetry input: one warm-up op of each kind.
LARGE_N_WARMUP = (0, 1, 4, 8, 10)
PRODUCT_SAMPLES = 16
PROBE_SAMPLES = 2


def symmetric_test(a):
    """The single-permutation test: some P a Q is symmetric iff a R is
    symmetric for one permutation R (take R = Q P)."""
    n = len(a)
    for r in permutations(range(n)):
        if all(a[i][r[j]] == a[j][r[i]] for i in range(n) for j in range(i + 1, n)):
            return True
    return False


def large_n_input(seed, i):
    kind, n = LARGE_N_ROTATION[i % len(LARGE_N_ROTATION)]
    rng = rng_for(seed, "large_n", i)
    if kind in ("gap", "permanent"):
        return {"kind": kind, "n": n, "rows": mixture(n, n, rng)}
    if kind == "products":
        return {"kind": kind, "n": n, "max_parts": 4, "samples": PRODUCT_SAMPLES,
                "seed": rng.getrandbits(63)}
    if kind == "probe":
        return {"kind": kind, "n": n, "samples": PROBE_SAMPLES, "seed": rng.getrandbits(63)}
    if kind == "asymmetry":
        while True:
            a = mixture(n, n, rng)
            if not symmetric_test(a):
                return {"kind": kind, "n": n, "rows": a}
    m = mixture(n, 3, rng)
    s = [[(m[i][j] + m[j][i]) / 2 for j in range(n)] for i in range(n)]
    return {"kind": kind, "n": n, "rows": permute(s, shuffled(n, rng), shuffled(n, rng))}


# ── census ────────────────────────────────────────────────────────────────
#
# Three 1-thread censuses (one with a zero cell) and one at nproc threads:
# the median op is a 1-thread census, because on a shared machine the
# threaded census varies by 25% between runs while the 1-thread one stays
# within 5%.  The threaded op still counts in ops_per_s.

CENSUS_D = 60
CENSUS_ROTATION = ("t1", "tn", "t1_zero", "t1")


def census_input(seed, i, nproc):
    kind = CENSUS_ROTATION[i % len(CENSUS_ROTATION)]
    zero = None
    if kind == "t1_zero":
        rng = rng_for(seed, "census", i)
        zero = rng.choice([(i, j) for i in range(3) for j in range(3) if (i, j) != (0, 0)])
    return {"kind": kind, "d": CENSUS_D, "threads": nproc if kind == "tn" else 1,
            "zero_cell": zero}


# ── cli ───────────────────────────────────────────────────────────────────
#
# Twelve exact verbs and four ops that need numpy (irrational construct,
# probe), so the median op is an exact verb and the numpy quarter holds the
# tail.

CLI_ROTATION = ("check", "gap", "construct_irr", "classify2", "classify3", "maxtrace_brute",
                "probe", "maxtrace_assignment", "maxprod", "permanent", "construct_irr",
                "params", "region", "canonical", "probe", "construct")
CLI_NUMPY_OPS = ("construct_irr", "probe")
# Fixed orders (n <= 8, so every checker can brute-force), so a seed
# changes the entries but not the amount of work.
CLI_ORDERS = {"check": 8, "gap": 6, "maxtrace_brute": 7, "maxtrace_assignment": 8,
              "permanent": 8, "maxprod": 6}


def irrational_point(rng):
    """(u, v) on the 1/40 grid whose discriminant is not a rational square
    and whose weak form is comfortably feasible for some sign in floats."""
    while True:
        u, v = F(rng.randint(-40, 40), 40), F(rng.randint(-44, 20), 40)
        disc = 7 - 6 * u * u - 6 * v * v
        if disc <= 0:
            continue
        if (math.isqrt(disc.numerator) ** 2 == disc.numerator
                and math.isqrt(disc.denominator) ** 2 == disc.denominator):
            continue
        root = math.sqrt(float(disc))
        for sign in ("minus", "plus"):
            w = (1 - 2 * float(v) + (-root if sign == "minus" else root)) / 8
            rows = weak_rows(float(u), float(v), w)
            if min(x for i, row in enumerate(rows) for j, x in enumerate(row) if (i, j) != (1, 0)) > 1e-6:
                return u, v, sign


def cli_input(seed, i):
    """One CLI op: the verb, its arguments, and the matrix to write (if any)."""
    kind = CLI_ROTATION[i % len(CLI_ROTATION)]
    rng = rng_for(seed, "cli", i)
    out = {"kind": kind, "rows": None, "args": []}
    if kind in CLI_ORDERS:
        out["rows"] = mixture(CLI_ORDERS[kind], 4, rng)
    elif kind == "classify2":
        x = F(rng.choice([0, 1, 2, rng.randint(0, 12)]), 2 if rng.random() < 0.5 else 12)
        x = min(x, F(1))
        out["rows"] = [[x, 1 - x], [1 - x, x]]
    elif kind == "classify3":
        out["rows"] = orbit_member(rng) if rng.random() < 0.5 else grid_point(rng.randint(2, 60), rng)
    elif kind == "params":
        u, v, r, sign = feasible_point(rng)
        out["rows"] = weak_rows(u, v, weak_w(u, v, r, sign))
    elif kind == "region":
        u, v, r = weak_point(rng)
        out.update(u=u, v=v, r=r, args=["--u", str(u), "--v", str(v)])
    elif kind == "canonical":
        name = rng.choice(["I3", "J3", "I1J2", "S", "T", "R",
                           f"Tn:{rng.randint(2, 8)}", f"Jn:{rng.randint(1, 8)}"])
        out.update(name=name, args=["--name", name])
    elif kind == "construct":
        u, v, r, sign = feasible_point(rng)
        out.update(u=u, v=v, r=r, sign=sign,
                   args=["--u", str(u), "--v", str(v), "--sign", sign])
    elif kind == "construct_irr":
        u, v, sign = irrational_point(rng)
        out.update(u=u, v=v, sign=sign, args=["--u", str(u), "--v", str(v), "--sign", sign])
    else:
        s = rng.getrandbits(31)
        out.update(samples=3, seed=s, args=["--n", "3", "--samples", "3", "--seed", str(s)])
    return out


def write_matrix_file(op, tmp):
    """Write the op's matrix (if any) into `tmp`; returns its path."""
    path = os.path.join(tmp, "matrix.json")
    if op["rows"] is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(matrix_text(op["rows"]))
    return path


def cli_argv(op, path):
    """Verb and arguments for an op whose matrix (if any) is at `path`."""
    verb = {"classify2": "classify", "classify3": "classify",
            "maxtrace_brute": "maxtrace", "maxtrace_assignment": "maxtrace",
            "construct_irr": "construct"}.get(op["kind"], op["kind"])
    argv = [verb] + ([path] if op["rows"] is not None else []) + op["args"]
    if op["kind"].startswith("maxtrace_"):
        argv += ["--method", op["kind"].split("_", 1)[1]]
    return argv


ROTATION = {"cli": len(CLI_ROTATION), "order3": 1, "large_n": len(LARGE_N_ROTATION),
            "census": len(CENSUS_ROTATION)}


def make_input(workload, seed, i, nproc):
    if workload == "order3":
        return order3_input(seed, i)
    if workload == "large_n":
        return large_n_input(seed, i)
    if workload == "census":
        return census_input(seed, i, nproc)
    return cli_input(seed, i)
