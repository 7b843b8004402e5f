"""Spans around the public functions of each dstoch module, installed from
outside the package.

A wrapper replaces every module attribute that holds a traced function,
because the library binds names with `from .x import y`: a patch on the
defining module alone would miss calls made inside the library (explore
calls its own bindings of classify3, marcus_ree_gap, validate_ds, ...).
Spans nest per thread; a layer's self time is its span time minus the
time covered by its child spans.
"""

import importlib
import sys
import threading
from collections import defaultdict
from statistics import median
from time import perf_counter

MODULES = ("ratmat", "diagsum", "saturation", "weakform", "explore", "cli")

# layer name -> (module, attribute); "Class.method" patches the class.
TRACED = {
    "ratmat.parse_matrix": ("ratmat", "parse_matrix"),
    "ratmat.validate_ds": ("ratmat", "validate_ds"),
    "ratmat.matmul": ("ratmat", "RatMatrix.__matmul__"),
    "ratmat.block_j_form": ("ratmat", "block_j_form"),
    "diagsum.frobenius_sq": ("diagsum", "frobenius_sq"),
    "diagsum.max_trace_brute": ("diagsum", "max_trace_brute"),
    "diagsum.marcus_ree_gap": ("diagsum", "marcus_ree_gap"),
    "diagsum.max_trace_assignment": ("diagsum", "max_trace_assignment"),
    "diagsum.permanent": ("diagsum", "permanent"),
    "diagsum.max_trace_value": ("diagsum", "max_trace_value"),
    "saturation.classify3": ("saturation", "classify3"),
    "saturation.permutation_equivalent": ("saturation", "permutation_equivalent"),
    "weakform.matrix_to_params": ("weakform", "matrix_to_params"),
    "weakform.weak_saturation_check": ("weakform", "weak_saturation_check"),
    "weakform.trace_dominant": ("weakform", "trace_dominant"),
    "weakform.in_u_minus": ("weakform", "in_u_minus"),
    "weakform.in_u_plus": ("weakform", "in_u_plus"),
    "weakform.solve_w": ("weakform", "solve_w"),
    "weakform.params_to_matrix": ("weakform", "params_to_matrix"),
    "explore.enumerate_grid": ("explore", "enumerate_grid"),
    "explore.sinkhorn": ("explore", "sinkhorn"),
    "explore.reconstruct_matrix": ("explore", "reconstruct_matrix"),
    "explore.rationality_probe": ("explore", "rationality_probe"),
    "explore.check_asymmetry": ("explore", "check_asymmetry"),
    "explore.block_product_probe": ("explore", "block_product_probe"),
}

# Layers reported as calls, self_ms and ms_per_call.
TIMED = (
    "ratmat.parse_matrix", "ratmat.validate_ds", "ratmat.matmul", "ratmat.block_j_form",
    "diagsum.frobenius_sq", "diagsum.max_trace_brute", "diagsum.marcus_ree_gap",
    "diagsum.max_trace_assignment", "diagsum.permanent", "diagsum.max_trace_value",
    "saturation.classify3",
    "weakform.matrix_to_params", "weakform.weak_saturation_check",
    "weakform.trace_dominant", "weakform.in_u_minus", "weakform.in_u_plus",
    "weakform.solve_w", "weakform.params_to_matrix",
    "explore.sinkhorn", "explore.check_asymmetry", "explore.block_product_probe",
)
PER_N = {"diagsum.max_trace_assignment": (16, 32, 64), "diagsum.permanent": (12, 14, 16)}


class _Frame:
    __slots__ = ("name", "child", "census_c3_calls", "census_c3_s")

    def __init__(self, name):
        self.name, self.child = name, 0.0
        self.census_c3_calls, self.census_c3_s = 0, 0.0


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)     # outcome counters, see _observe
        self.by_n = defaultdict(list)     # (layer, n) -> span seconds
        self.census = {"t1": [], "tn": []}
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self):
        mods = {m: importlib.import_module(f"dstoch.{m}") for m in MODULES}
        swap = {}
        for name, (mod, attr) in TRACED.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
            else:
                fn = getattr(mods[mod], attr)
                swap[id(fn)] = (fn, self._wrap(name, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "dstoch" and not modname.startswith("dstoch."):
                continue
            for key, value in list(vars(module).items()):
                hit = swap.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def _wrap(self, name, fn):
        local, lock, observe = self._local, self._lock, self._observe

        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = _Frame(name)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child += elapsed
                with lock:
                    self.calls[name] += 1
                    self.total[name] += elapsed
                    self.self_s[name] += elapsed - frame.child
            observe(name, frame, stack, args, kwargs, result, elapsed)
            return result

        span.__wrapped__ = fn
        return span

    def _observe(self, name, frame, stack, args, kwargs, result, elapsed):
        """Outcome counters, read from arguments and results only."""
        count = self.count
        if name in PER_N:
            self.by_n[name, args[0].n].append(elapsed)
        elif name == "saturation.classify3":
            count["classify3_saturated"] += result.saturated
            for outer in stack:
                if outer.name == "explore.enumerate_grid":
                    outer.census_c3_calls += 1
                    outer.census_c3_s += elapsed
        elif name == "explore.enumerate_grid":
            if kwargs.get("zero_cell") is None:
                self.census["t1" if kwargs.get("threads") == 1 else "tn"].append(elapsed)
                count["census_full_ops"] += 1
                count["census_c3_calls"] += frame.census_c3_calls
                count["census_ds"] += result.ds_count
                count["census_total"] += result.total_candidates
                self.total["census_c3_s"] += frame.census_c3_s
        elif name == "weakform.solve_w":
            count["solve_w_exact"] += result.exact
        elif name == "explore.sinkhorn":
            tol = kwargs.get("tol", args[1] if len(args) > 1 else 1e-12)
            resid = max(abs(result.sum(axis=1) - 1.0).max(), abs(result.sum(axis=0) - 1.0).max())
            count["sinkhorn_unconverged"] += bool(resid >= tol)
        elif name == "explore.reconstruct_matrix":
            count["reconstruct_ok"] += result is not None
        elif name == "explore.rationality_probe":
            count["probe_candidates"] += len(result.candidates)
            count["probe_verified"] += sum(c.verified for c in result.candidates)
        elif name == "explore.check_asymmetry":
            count["asymmetric"] += bool(result)

    def layers(self):
        """Per-layer metrics as {name: value}; absent layers read 0."""
        out = {}
        for name in TIMED:
            calls = self.calls[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3
            out[f"{name}.ms_per_call"] = self.total[name] * 1e3 / calls if calls else 0.0
        for name, sizes in PER_N.items():
            for n in sizes:
                spans = self.by_n[name, n]
                out[f"{name}.ms_n{n}"] = sum(spans) * 1e3 / len(spans) if spans else 0.0

        def frac(num, den):
            return num / den if den else 0.0

        c, calls = self.count, self.calls
        out["saturation.permutation_equivalent.calls"] = calls["saturation.permutation_equivalent"]
        out["saturation.pe_per_classify3"] = frac(calls["saturation.permutation_equivalent"],
                                                  calls["saturation.classify3"])
        out["saturation.saturated_frac"] = frac(c["classify3_saturated"], calls["saturation.classify3"])
        out["weakform.exact_frac"] = frac(c["solve_w_exact"], calls["weakform.solve_w"])
        for kind in ("t1", "tn"):
            spans = self.census[kind]
            out[f"explore.enumerate_grid.ms_{kind}"] = median(spans) * 1e3 if spans else 0.0
        full = c["census_full_ops"]
        out["explore.census.classify3_ms"] = frac(self.total["census_c3_s"] * 1e3, full)
        out["explore.census.classify3_per_op"] = frac(c["census_c3_calls"], full)
        out["explore.census.ds_frac"] = frac(c["census_ds"], c["census_total"])
        out["explore.sinkhorn.unconverged"] = c["sinkhorn_unconverged"]
        out["explore.reconstruct_matrix.success_frac"] = frac(c["reconstruct_ok"],
                                                              calls["explore.reconstruct_matrix"])
        out["explore.probe.verified_frac"] = frac(c["probe_verified"], c["probe_candidates"])
        out["explore.check_asymmetry.asymmetric_frac"] = frac(c["asymmetric"],
                                                              calls["explore.check_asymmetry"])
        return out
