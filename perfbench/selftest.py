"""Checker self-test: every checker must accept a correct output, built by
the benchmark itself, and reject one corrupted copy of it.  A checker that
accepts everything fails here.  run.py runs this before every workload.

    python3 perfbench/selftest.py
"""

import copy
import math
import random
import sys
from fractions import Fraction as F

import checks
import gen
from checks import CheckFailed


def _rejects(check, *args):
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def _gap_out(a, m):
    f = checks.frob(a)
    return {"frob_sq": str(f), "max_trace": str(m), "gap": str(m - f), "saturated": m == f}


def cases():
    """(name, checker, good args, bad args) for every checker."""
    rng = random.Random("selftest")
    out = []

    a = gen.mixture(5, 4, rng)
    m, arg = checks.brute_max(a)
    good = _gap_out(a, m)
    bad = dict(good, gap=str(F(good["gap"]) + F(1, checks.scaled(a)[1])))
    out.append(("gap", checks.check_gap, (a, good), (a, bad)))

    big = gen.mixture(16, 16, rng)
    good = _gap_out(big, checks.assignment_max(big)[1])
    bad = dict(good, max_trace=str(F(good["max_trace"]) + F(1, checks.scaled(big)[1])))
    out.append(("gap_large_n", checks.check_gap, (big, good), (big, bad)))

    p, q = [1, 2, 0], [0, 2, 1]
    orb = gen.permute(gen.FORMS["R"], p, q)
    good = {"saturated": True, "form": "R", "P": gen.inverse(p), "Q": gen.inverse(q)}
    bad = dict(good, P=good["Q"], Q=good["P"])
    out.append(("classify3_witness", checks.check_classify3, (orb, good), (orb, bad)))

    g = gen.grid_point(60, rng)
    m, arg = checks.brute_max(g)
    worst = min(([list(s) for s in gen.PERMS3]), key=lambda s: checks.diag(g, s))
    out.append(("classify3_separator", checks.check_classify3,
                (g, {"saturated": False, "separator": arg}),
                (g, {"saturated": False, "separator": worst})))

    two = [[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]]
    out.append(("classify2", checks.check_classify2, (two, {"saturated": False}),
                (two, {"saturated": True})))

    m, arg = checks.brute_max(a)
    good = {"max_trace": str(m), "argmax": arg, "method": "brute"}
    out.append(("maxtrace", checks.check_maxtrace, (a, good, "brute"),
                (a, dict(good, argmax=arg[::-1]), "brute")))

    mp, parg = checks.max_product(a)
    out.append(("maxprod", checks.check_maxprod, (a, {"max_product": str(mp), "argmax": parg}),
                (a, {"max_product": str(mp * 2), "argmax": parg})))

    perm = checks.permanent_naive(a)
    out.append(("permanent", checks.check_permanent, (a, {"permanent": str(perm)}),
                (a, {"permanent": str(perm + F(1, checks.scaled(a)[1] ** 5))})))

    p12 = gen.mixture(12, 12, rng)
    val = F(checks.permanent_float(p12)).limit_denominator(10 ** 30)
    out.append(("permanent_float", checks.check_permanent, (p12, {"permanent": str(val)}),
                (p12, {"permanent": str(val * (1 + F(1, 10 ** 6)))})))

    u, v, r, sign = gen.feasible_point(rng)
    w = gen.weak_w(u, v, r, sign)
    wm = gen.weak_rows(u, v, w)
    out.append(("params", checks.check_params, (wm, {"u": str(u), "v": str(v), "w": str(w)}),
                (wm, {"u": str(u), "v": str(v), "w": str(w + F(1, 64))})))

    region = {"E0": True, "E1": checks.in_ellipse(1, u, v), "E2": checks.in_ellipse(2, u, v),
              "E3": checks.in_ellipse(3, u, v), "U_minus": checks.feasible(u, v, r, "minus"),
              "U_plus": checks.feasible(u, v, r, "plus")}
    out.append(("region", checks.check_region, (u, v, r, region),
                (u, v, r, dict(region, U_minus=not region["U_minus"]))))

    payload = {"n": 3, "rows": [[str(x) for x in row] for row in gen.FORMS["S"]]}
    out.append(("canonical", checks.check_canonical, ("S", payload), ("T", payload)))

    good = {"u": str(u), "v": str(v), "sign": sign, "exact": True, "w": str(w),
            "matrix": {"n": 3, "rows": [[str(x) for x in row] for row in wm]}}
    out.append(("construct", checks.check_construct, (u, v, r, sign, good),
                (u, v, r, sign, dict(good, w=str(w + F(1, 64))))))

    ui, vi, si = gen.irrational_point(rng)
    disc = float(7 - 6 * ui * ui - 6 * vi * vi)
    wi = (1 - 2 * float(vi) + (-1 if si == "minus" else 1) * math.sqrt(disc)) / 8
    good = {"exact": False, "w": wi, "matrix": gen.weak_rows(float(ui), float(vi), wi)}
    out.append(("construct_irr", checks.check_construct_irr, (ui, vi, si, good),
                (ui, vi, si, dict(good, w=wi + 1e-9))))

    cand = {"index": 0, "kind": "jitter", "gap_float": 0.0, "verified": True,
            "matrix": {"n": 3, "rows": [[str(x) for x in row] for row in orb]}}
    probe = {"n": 3, "samples": 4, "seed": 7, "tol": 1e-9, "candidates": [cand]}
    notsat = copy.deepcopy(probe)
    notsat["candidates"][0]["matrix"]["rows"] = [[str(x) for x in row] for row in g]
    out.append(("probe", checks.check_probe, (3, 4, 7, probe), (3, 4, 7, notsat)))

    left = {"p": [1, 0, 2, 3], "parts": [2, 2], "q": [0, 1, 3, 2]}
    right = {"p": [2, 3, 0, 1], "parts": [1, 3], "q": [3, 2, 1, 0]}
    prod = checks.matmul(checks.block_j(left), checks.block_j(right))
    chain = list(range(4))
    for perm_ in (left["p"], left["q"], right["p"], right["q"]):
        chain = [perm_[c] for c in chain]
    f, (m, _) = checks.frob(prod), checks.brute_max(prod)
    pr = {"left": left, "right": right,
          "product": {"n": 4, "rows": [[str(x) for x in row] for row in prod]},
          "frob_sq": str(f), "max_trace": str(m), "trace_perm": gen.inverse(chain),
          "identity_holds": True, "saturates": m == f}
    out.append(("products", checks.check_products, (4, 1, {"probes": [pr]}),
                (4, 1, {"probes": [dict(pr, trace_perm=chain[::-1])]})))

    sym = [[F(0), F(1, 2), F(1, 2)], [F(1, 2), F(1, 2), F(0)], [F(1, 2), F(0), F(1, 2)]]
    out.append(("asymmetry", checks.check_asymmetry, (sym, {"asymmetric": False}),
                (sym, {"asymmetric": True})))

    census = {"d": 60, "zero_cell": None}
    sat = []
    for key, tag in checks.orbit_union().items():
        rows = [list(r) for r in key]
        for P in gen.PERMS3:
            for Q in gen.PERMS3:
                if gen.permute(rows, P, Q) == gen.FORMS[tag]:
                    break
            else:
                continue
            break
        sat.append({"matrix": {"n": 3, "rows": [[str(x) for x in r] for r in rows]},
                    "form": tag, "P": P, "Q": Q})
    good = {"denominator": 60, "total_candidates": 61 ** 4, "ds_count": checks.CENSUS_DS_COUNT,
            "saturating": sat}
    out.append(("census", checks.check_census, (census, good),
                (census, dict(good, ds_count=good["ds_count"] + 1))))

    inp = {"kind": "gap", "rows": a, "args": []}
    line = '{"frob_sq":"%s","max_trace":"%s","gap":"%s","saturated":%s}\n' % tuple(
        _gap_out(a, checks.brute_max(a)[0])[k] if k != "saturated" else "false"
        for k in ("frob_sq", "max_trace", "gap", "saturated"))
    out.append(("cli_exit", checks.check_cli, (inp, {"code": 0, "stdout": line}),
                (inp, {"code": 1, "stdout": line})))
    return out


def run():
    """Names of checkers that rejected a correct output or accepted a
    corrupted one; empty when every checker works."""
    broken = []
    for name, check, good, bad in cases():
        if _rejects(check, *good) or not _rejects(check, *bad):
            broken.append(name)
    if checks.grid_ds_count(60) != checks.CENSUS_DS_COUNT or len(checks.orbit_union()) != 49:
        broken.append("census_constants")
    return broken


if __name__ == "__main__":
    failed = run()
    print("checker self-test:", "ok" if not failed else "FAILED " + ", ".join(failed))
    sys.exit(1 if failed else 0)
