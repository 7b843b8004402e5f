"""dstoch benchmark: end-to-end metrics per workload, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload cli --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                  # every workload, untraced and traced

Workloads (see BENCHMARK.json for the reason each exists):
  cli      one `python -m dstoch.cli <verb>` process per op
  order3   one in-process 3x3 decision per op
  large_n  one large-order kernel call per op, from a fixed rotation
  census   one enumerate_grid(60) per op, at 1 and at nproc threads

All ops are closed loop with one client; only census runs more threads.
The program runs in a fresh child interpreter and receives only inputs
made by gen.py from --seed; this process never imports dstoch and checks
every output with checks.py.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.
"""

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import selftest  # noqa: E402

PY = sys.executable
NPROC = os.cpu_count() or 1
WORKLOADS = ("cli", "order3", "large_n", "census")
# Workloads whose ops are single-threaded interpreter work run pinned to
# one CPU, so the calibration kernel and the ops share it and op times can
# be normalised by it.  The census worker pins its 1-thread ops itself.
PINNED = ("cli", "order3", "large_n")
SETUP_REPEATS = 5
CLI_TIMEOUT_S = 60
# The process calibration, a bare interpreter start, tracks process creation
# and imports far better than the in-process kernel does; it normalises
# set-up times and CLI op times.  Median on the reference machine, pinned.
FLOOR_REFERENCE_S = 0.080
perf = time.perf_counter

# One op: index, start (perf_counter), raw seconds, plain output or error.
Record = namedtuple("Record", "i t0 s out error")


def floor_kernel():
    t0 = perf()
    subprocess.run([PY, "-c", "pass"], check=True)
    return perf() - t0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(q * len(sorted_values) - 1e-9)
    return sorted_values[min(max(k, 1), len(sorted_values)) - 1]


def tail(sorted_values):
    """The highest percentile with at least ten samples beyond it, capped at
    p90 and never below the median: (value, percentile).  Above p90 the
    per-op speed normalisation, not the program, sets the value."""
    n = len(sorted_values)
    q = min(0.9, (n - 10) / n)
    if q <= 0.5:
        return statistics.median(sorted_values), 0.5
    return percentile(sorted_values, q), q


# ── set-up ────────────────────────────────────────────────────────────────

def setup_once(workload, env):
    """Seconds from spawning a fresh interpreter to its first timed op."""
    if workload == "cli":
        t0 = perf()
        subprocess.run([PY, "-c", "import dstoch"], env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        return perf() - t0
    t0 = perf()
    with subprocess.Popen([PY, os.path.join(HERE, "worker.py"), "--workload", workload,
                           "--probe"], env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = perf()
        proc.stdout.read()
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe for {workload} failed")
    return ready - t0 - float(line.split()[1])


# ── measuring ─────────────────────────────────────────────────────────────

def run_cli_subprocess(seed, seconds, env, tmp, cal, start_index=0, rotations=None):
    """CLI ops as real processes, whole rotations until `seconds` pass (or a
    fixed number of rotations).  Returns [Record]."""
    records = []
    i = start_index
    start = perf()
    done = 0
    while True:
        for _ in range(gen.ROTATION["cli"]):
            cal.sample()
            inp = gen.cli_input(seed, i)
            path = gen.write_matrix_file(inp, tmp)
            argv = [PY, "-m", "dstoch.cli"] + gen.cli_argv(inp, path)
            t0 = perf()
            proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            elapsed = perf() - t0
            records.append(Record(i, t0, elapsed,
                                  {"code": proc.returncode, "stdout": proc.stdout}, None))
            i += 1
        done += 1
        if (rotations is not None and done >= rotations) or (
                rotations is None and perf() - start >= seconds):
            return records


def run_worker(workload, seed, seconds, trace, env, tmp):
    """The in-process ops in a fresh worker.  Lines are kept raw while it
    runs and parsed afterwards, so this process stays idle."""
    argv = [PY, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--tmp", tmp]
    with subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        lines = proc.stdout.readlines()
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    end = json.loads(lines[-1])
    if not end.get("end"):
        raise RuntimeError("worker output ended early")
    records = []
    for line in lines[:-1]:
        rec = json.loads(line)
        records.append(Record(rec["i"], rec["t0"], rec["s"], rec.get("out"), rec.get("error")))
    return records, end


def check_all(workload, seed, records):
    """Rebuild each op's input from the seed and check its output.
    Returns the number of failed ops and the first few failure messages."""
    failed, notes = 0, []
    for i, _, _, out, error in records:
        inp = gen.make_input(workload, seed, i, NPROC)
        try:
            if error is not None:
                raise checks.CheckFailed(error)
            checks.CHECKERS[workload](inp, out)
        except (checks.CheckFailed, KeyError, TypeError, ValueError, IndexError) as exc:
            failed += 1
            if len(notes) < 5:
                notes.append(f"op {i} ({inp['kind']}): {type(exc).__name__}: {exc}")
    return failed, notes


# ── cli layer probes (traced run only) ────────────────────────────────────

def _importtime(argv, env):
    proc = subprocess.run([PY, "-X", "importtime"] + argv, env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1))
    return proc, cumulative


def cli_layers(seed, env, tmp, cal):
    """Interpreter floor, import costs, numpy use and per-verb latency,
    all measured on real processes; only the per-verb latency is
    normalised, like op_p50_ms.  Returns (metrics, checked records)."""
    out = {"cli.python_floor_ms":
           statistics.median(floor_kernel() for _ in range(SETUP_REPEATS)) * 1e3}
    numpy_ms, dstoch_ms = [], []
    for _ in range(3):
        _, cum = _importtime(["-c", "import dstoch"], env)
        numpy_ms.append(cum.get("numpy", 0) / 1e3)
        dstoch_ms.append(cum.get("dstoch", 0) / 1e3)
    out["cli.import.numpy_ms"] = statistics.median(numpy_ms)
    out["cli.import.dstoch_ms"] = statistics.median(dstoch_ms)

    loaded = set()
    for i in range(len(gen.CLI_ROTATION)):
        inp = gen.cli_input("importtime", i)
        if inp["kind"] in gen.CLI_NUMPY_OPS:
            continue
        argv = gen.cli_argv(inp, gen.write_matrix_file(inp, tmp))
        _, cum = _importtime(["-m", "dstoch.cli"] + argv, env)
        if "numpy" in cum:
            loaded.add(argv[0])
    out["cli.numpy_loaded_verbs"] = len(loaded)

    records = run_cli_subprocess(seed, 0, env, tmp, cal, start_index=10 ** 6, rotations=2)
    per_verb = {}
    for rec in records:
        verb = gen.cli_argv(gen.cli_input(seed, rec.i), "")[0]
        per_verb.setdefault(verb, []).append(rec.s * cal.factor(rec.t0, rec.t0 + rec.s))
    for verb in CLI_VERBS:
        out[f"cli.verb.{verb}.p50_ms"] = statistics.median(per_verb[verb]) * 1e3
    return out, records


CLI_VERBS = ("check", "gap", "classify", "maxtrace", "maxprod", "permanent", "params",
             "region", "canonical", "construct", "probe")


# ── one workload ──────────────────────────────────────────────────────────

def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(args):
    e2e_units, layer_units = load_spec()
    env = child_env()
    print("env " + json.dumps(environment()), flush=True)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}", flush=True)
    broken = selftest.run()
    if broken:
        print("checker self-test FAILED: " + ", ".join(broken), flush=True)

    floor = calib.Calibrator(floor_kernel, FLOOR_REFERENCE_S)
    if args.workload == "cli":
        cal = floor
    elif args.workload == "census":      # samples come from the worker
        cal = calib.Calibrator(calib.numpy_kernel, calib.NUMPY_REFERENCE_S)
    else:
        cal = calib.Calibrator()
    tmp = os.path.join(ROOT, ".bench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    try:
        if args.trace:
            metrics, raw, records = traced(args, env, tmp, cal, layer_units)
        else:
            metrics, raw, records = untraced(args, env, tmp, cal, floor)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    failed, notes = check_all(args.workload, args.seed, records)
    attempted = len(records)
    for note in notes:
        print("FAILED " + note, flush=True)
    print(f"failed_frac = {failed / attempted!r} ratio ({failed}/{attempted} ops)")
    units = layer_units if args.trace else e2e_units
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    if cal.samples:
        print(f"op speed factor over the run = {cal.factor()!r} "
              f"({cal.reference} s reference / median of {len(cal.samples)} samples)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit} [raw {raw.get(name, metrics[name])!r}]")
    result = {"correct": failed == 0 and not broken, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    print(json.dumps(result), flush=True)


def op_metrics(records, cal, rotation):
    """(normalised, raw) dicts of ops_per_s, op_p50_ms and op_tail_ms.
    Normalised op times are scaled by the calibration's local speed around
    each op.  With a fixed rotation, ops_per_s is the rotation length over
    the sum of each slot's median time, so one slow probe or one slow
    second does not move it; otherwise it is ops over busy time."""
    ok = [r for r in records if r.error is None]
    out = []
    for scaled in (bool(cal.samples), False):
        times = [(r.i, r.s * cal.factor(r.t0, r.t0 + r.s) if scaled else r.s) for r in ok]
        if rotation > 1:
            slots = {}
            for i, s in times:
                slots.setdefault(i % rotation, []).append(s)
            ops_per_s = len(slots) / sum(statistics.median(v) for v in slots.values())
        else:
            ops_per_s = len(times) / sum(s for _, s in times)
        ordered = sorted(s for _, s in times)
        tail_value, q = tail(ordered)
        out.append({"ops_per_s": ops_per_s, "op_p50_ms": statistics.median(ordered) * 1e3,
                    "op_tail_ms": tail_value * 1e3})
    print(f"op_tail_ms is p{q * 100:.1f} of {len(ok)} samples")
    return out


def untraced(args, env, tmp, cal, floor):
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        floor.sample(force=True)
        t0 = perf()
        raw_setups.append(setup_once(args.workload, env))
        floor.sample(force=True)
        setups.append(raw_setups[-1] * floor.factor(t0, perf()))
    if args.workload == "cli":
        records = run_cli_subprocess(args.seed, args.seconds, env, tmp, cal)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        records, end = run_worker(args.workload, args.seed, args.seconds, 0, env, tmp)
        cal.samples += [tuple(s) for s in end["calibration"]]
        rss_kb = end["rss_kb"]
    norm, raw = op_metrics(records, cal, gen.ROTATION[args.workload])
    norm.update(setup_s=statistics.median(setups), peak_rss_mb=rss_kb / 1024)
    raw.update(setup_s=statistics.median(raw_setups))
    if args.workload == "census":
        by_kind = {"t1": [], "tn": []}
        for r in records:
            kind = gen.census_input(args.seed, r.i, NPROC)["kind"]
            if r.error is None and kind in by_kind:
                by_kind[kind].append(r.s)
        for kind, label in (("t1", "census_1t_s"), ("tn", "census_nt_s")):
            print(f"{label} = {statistics.median(by_kind[kind])!r} s "
                  f"(median of {len(by_kind[kind])} full censuses, threads="
                  f"{1 if kind == 't1' else NPROC})")
    return norm, raw, records


def traced(args, env, tmp, cal, units):
    """Per-layer metrics; the traced in-process ms figures are scaled by
    the run's interpreter speed factor."""
    raw = {name: 0.0 for name in ("cli.python_floor_ms", "cli.import.numpy_ms",
                                  "cli.import.dstoch_ms", "cli.numpy_loaded_verbs")}
    raw.update({f"cli.verb.{verb}.p50_ms": 0.0 for verb in CLI_VERBS})
    extra = []
    if args.workload == "cli":
        cli_metrics, extra = cli_layers(args.seed, env, tmp, cal)
        raw.update(cli_metrics)
        cal = calib.Calibrator()     # the in-process ops follow the interpreter kernel
    records, end = run_worker(args.workload, args.seed, args.seconds, 1, env, tmp)
    cal.samples += [tuple(s) for s in end["calibration"]]
    raw.update(end["layers"])
    norm_ops, raw_ops = op_metrics(records, cal, gen.ROTATION[args.workload])
    raw["trace.ops_per_s"] = raw_ops["ops_per_s"]
    factor = cal.factor() if cal.samples else 1.0
    metrics = {name: value * factor if units.get(name) == "ms" and not name.startswith("cli.")
               else value for name, value in raw.items()}
    metrics["trace.ops_per_s"] = norm_ops["ops_per_s"]
    return metrics, raw, records + extra


# ── every workload ────────────────────────────────────────────────────────

def run_all(args):
    """Each workload in its own fresh process, untraced then traced."""
    summary, ok = {}, True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [PY, os.path.abspath(__file__), "--workload", workload, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stdout.write(proc.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            summary[workload, trace] = result["metrics"]
    print("\ntrace overhead (traced ops_per_s / untraced ops_per_s):")
    for workload in WORKLOADS:
        if (workload, 0) in summary and (workload, 1) in summary:
            plain = summary[workload, 0]["ops_per_s"]["value"]
            traced_ = summary[workload, 1]["trace.ops_per_s"]["value"]
            print(f"  {workload}: {traced_:.4g} / {plain:.4g} = {traced_ / plain:.3f}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "dstoch", "__init__.py")):
        print("run.py: no dstoch sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload in PINNED:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
