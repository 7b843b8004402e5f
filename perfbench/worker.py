"""Runs one workload's ops in a fresh interpreter and streams the outputs.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --tmp DIR
    python3 perfbench/worker.py --workload W --probe      (set-up probe)

run.py spawns this; stdout carries one JSON object per line.  The set-up
probe imports dstoch, runs one warm-up op of each kind, prints
`ready <input generation seconds>` and exits.  The measuring run does the
same warm-up, then runs whole rotations of ops until `--seconds` have
passed, printing `{"i", "s", "out"}` (or `"error"`) per op and a final
`{"end": ...}` line with peak RSS and, when traced, the layer metrics.
Only the calls into dstoch are inside an op's timer; input generation and
output serialisation are not.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import calib  # noqa: E402
from calib import Calibrator  # noqa: E402

NPROC = os.cpu_count() or 1
perf = time.perf_counter


def _rows(m):
    return [[str(x) for x in row] for row in m.rows]


def _mat(m):
    return {"n": m.n, "rows": _rows(m)}


def _perm(p):
    return list(p.image)


def _classification(c):
    if c.saturated:
        return {"saturated": True, "form": c.form, "P": _perm(c.witness[0]),
                "Q": _perm(c.witness[1])}
    return {"saturated": False, "separator": _perm(c.separator)}


def _gap(g):
    return {"frob_sq": str(g.frob_sq), "max_trace": str(g.max_trace), "gap": str(g.gap),
            "saturated": g.saturated}


class Ops:
    """The calls each op makes, always through the dstoch modules so that
    installed trace wrappers see them."""

    def __init__(self, tmp=None):
        import dstoch.cli
        from dstoch import diagsum, explore, ratmat, saturation, weakform
        self.cli, self.rm, self.ds = dstoch.cli, ratmat, diagsum
        self.sat, self.wf, self.ex = saturation, weakform, explore
        self.tmp = tmp

    def order3(self, inp):
        rm, ds, sat, wf = self.rm, self.ds, self.sat, self.wf
        zero = inp["kind"] == "point" or inp["rows"][1][0] == 0
        out = {}
        t0 = perf()
        if inp["kind"] == "point":
            u, v = inp["u"], inp["v"]
            um, up = wf.in_u_minus(u, v), wf.in_u_plus(u, v)
            roots = {s: wf.solve_w(u, v, s) for s in ("minus", "plus")}
            sign = "minus" if um else "plus" if up else None
            a = wf.params_to_matrix(roots[sign]) if sign else None
        else:
            a = rm.parse_matrix(inp["text"])
        if a is not None:
            a = rm.validate_ds(a)
            c = sat.classify3(a)
            g = ds.marcus_ree_gap(a)
            if zero:
                params = wf.matrix_to_params(a)
                wsc = wf.weak_saturation_check(a)
                td = wf.trace_dominant(a)
        elapsed = perf() - t0
        if inp["kind"] == "point":
            out.update(U_minus=um, U_plus=up, sign=sign,
                       roots={s: [str(r.w), r.exact] for s, r in roots.items()})
            if a is not None:
                out["matrix"] = _rows(a)
        if a is not None:
            out.update(classify=_classification(c), gap=_gap(g))
            if zero:
                out.update(params=[str(x) for x in params], trace_dominant=td,
                           weak=None if wsc is None else _perm(wsc))
        return elapsed, out

    def large_n(self, inp):
        rm, ds, ex = self.rm, self.ds, self.ex
        kind = inp["kind"]
        t0 = perf()
        if kind == "gap":
            result = ds.marcus_ree_gap(rm.validate_ds(rm.RatMatrix(inp["rows"])))
        elif kind == "permanent":
            result = ds.permanent(rm.RatMatrix(inp["rows"]))
        elif kind == "products":
            result = ex.search_products(inp["n"], inp["max_parts"], inp["samples"], inp["seed"])
        elif kind == "probe":
            result = ex.rationality_probe(inp["n"], inp["samples"], inp["seed"])
        else:
            result = ex.check_asymmetry(rm.RatMatrix(inp["rows"]))
        elapsed = perf() - t0
        if kind == "gap":
            out = _gap(result)
        elif kind == "permanent":
            out = {"permanent": str(result)}
        elif kind == "products":
            out = {"probes": [{
                "left": {"p": _perm(p.left.p), "parts": list(p.left.parts), "q": _perm(p.left.q)},
                "right": {"p": _perm(p.right.p), "parts": list(p.right.parts),
                          "q": _perm(p.right.q)},
                "product": _mat(p.product), "frob_sq": str(p.frob_sq),
                "max_trace": str(p.max_trace), "trace_perm": _perm(p.trace_perm),
                "identity_holds": p.identity_holds, "saturates": p.saturates,
            } for p in result]}
        elif kind == "probe":
            out = {"n": result.n, "samples": result.samples, "seed": result.seed,
                   "tol": result.tol, "candidates": [{
                       "index": c.index, "kind": c.kind, "gap_float": c.gap_float,
                       "verified": c.verified,
                       "matrix": None if c.reconstructed is None else _mat(c.reconstructed),
                   } for c in result.candidates]}
        else:
            out = {"asymmetric": result}
        return elapsed, out

    def census(self, inp):
        t0 = perf()
        report = self.ex.enumerate_grid(inp["d"], zero_cell=inp["zero_cell"],
                                        threads=inp["threads"])
        elapsed = perf() - t0
        return elapsed, {
            "denominator": report.denominator, "total_candidates": report.total_candidates,
            "ds_count": report.ds_count,
            "saturating": [{"matrix": _mat(m), "form": c.form, "P": _perm(c.witness[0]),
                            "Q": _perm(c.witness[1])} for m, c in report.saturating]}

    def cli_inprocess(self, inp):
        """The traced CLI op: dstoch.cli.main(argv) in this process."""
        path = gen.write_matrix_file(inp, self.tmp)
        buf = io.StringIO()
        t0 = perf()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(gen.cli_argv(inp, path))
        elapsed = perf() - t0
        return elapsed, {"code": code, "stdout": buf.getvalue()}


def warmup_inputs(workload):
    """One warm-up op of each kind, at the kind's cheapest input."""
    if workload == "census":
        return [{"kind": "warmup", "d": gen.CENSUS_D, "threads": t, "zero_cell": (0, 0)}
                for t in (1, NPROC)]
    if workload == "large_n":
        return [gen.large_n_input("warmup", i) for i in gen.LARGE_N_WARMUP]
    if workload == "order3":
        seen, out, i = set(), [], 0
        while len(seen) < len(gen.ORDER3_KINDS):
            inp = gen.order3_input("warmup", i)
            if inp["kind"] not in seen:
                seen.add(inp["kind"])
                out.append(inp)
            i += 1
        return out
    return [gen.cli_input("warmup", i) for i in range(len(gen.CLI_ROTATION))]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(gen.ROTATION))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tmp", default=None)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    w = args.workload

    t0 = perf()
    warm = warmup_inputs(w)
    gen_s = perf() - t0
    ops = Ops(args.tmp)
    run = {"order3": ops.order3, "large_n": ops.large_n, "census": ops.census,
           "cli": ops.cli_inprocess}[w]
    for inp in warm:
        run(inp)
    if args.probe:
        print(f"ready {gen_s!r}", flush=True)
        return

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    out = sys.stdout
    census = w == "census"
    if census:
        # Census ops are numpy code: calibrate with a numpy kernel, timed
        # right before and after each op, on the one CPU a 1-thread census
        # is pinned to (threaded censuses get every CPU).
        cal = Calibrator(calib.numpy_kernel, calib.NUMPY_REFERENCE_S)
        cpus = os.sched_getaffinity(0)
    else:
        cal = Calibrator()
    start = perf()
    i = 0
    while True:
        for _ in range(gen.ROTATION[w]):
            inp = gen.make_input(w, args.seed, i, NPROC)
            if census:
                os.sched_setaffinity(0, cpus if inp["threads"] > 1 else {min(cpus)})
            cal.sample(force=census)
            try:
                t0 = perf()
                elapsed, result = run(inp)
                line = {"i": i, "t0": t0, "s": elapsed, "out": result}
            except Exception as exc:  # an op that raises is a failed op, not a crash
                line = {"i": i, "t0": t0, "s": 0.0, "error": f"{type(exc).__name__}: {exc}"}
            if census:
                cal.sample(force=True)
            out.write(json.dumps(line, separators=(",", ":")) + "\n")
            i += 1
        if perf() - start >= args.seconds:
            break
    cal.sample(force=True)
    end = {"end": True, "calibration": cal.samples,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        end["layers"] = tracer.layers()
    out.write(json.dumps(end) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
