"""The benchmark's contract with the library: its trace hooks name
functions that still exist, its worker's calls fit their signatures, its
set-up probe runs, one traced rotation of each workload passes the
benchmark's own checkers, and every `ds` command line it builds parses.

`perfbench/spans.py` wraps the dstoch functions listed in its TRACED table;
a rename or removal there would make `perfbench/run.py --trace 1` fail.
`perfbench/worker.py` calls the library directly, and `perfbench/gen.py`
builds the argv of the cli workload.  Both Python files are read with
`ast`, and `gen.py` (which imports no dstoch) is loaded by its path, so the
benchmark directory is never put on this process's import path.  The
worker and the checkers run in interpreters of their own.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dstoch import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced():
    for node in ast.parse((PERFBENCH / "spans.py").read_text()).body:
        target = node.targets[0] if isinstance(node, ast.Assign) else None
        if getattr(target, "id", None) == "TRACED":
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in perfbench/spans.py")


def test_every_traced_hook_resolves():
    traced = _traced()
    assert traced
    for module, attr in traced.values():
        target = importlib.import_module(f"dstoch.{module}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module, attr)


def _names(node):
    """The dotted names of a Name, an Attribute or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return [n for elt in node.elts for n in _names(elt)]
    return [ast.unparse(node)]


def _worker_calls():
    """(dstoch module, function, call node) of every call the worker makes
    into dstoch: `self.rm = ratmat` and `rm = self.rm` are followed to the
    module, `self.cli = dstoch.cli` included."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    home = {}  # a name the worker binds -> the dstoch module it holds
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            for target, value in zip(_names(node.targets[0]), _names(node.value)):
                value = value.removeprefix("dstoch.")
                if value in ("cli", "ratmat", "diagsum", "saturation", "weakform", "explore"):
                    home[target] = value
                elif value in home:
                    home[target] = home[value]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = ast.unparse(node.func.value)
            if owner in home:
                yield home[owner], node.func.attr, node


def test_every_worker_call_fits_its_signature():
    calls = list(_worker_calls())
    names = {f"{module}.{name}" for module, name, _ in calls}
    assert {"cli.main", "explore.rationality_probe", "explore.enumerate_grid",
            "explore.search_products", "ratmat.parse_matrix"} <= names, names
    assert len(calls) >= 20
    for module, name, node in calls:
        assert not any(isinstance(a, ast.Starred) for a in node.args), ast.unparse(node)
        target = getattr(importlib.import_module(f"dstoch.{module}"), name)
        # binding checks the count of positional arguments and each keyword
        inspect.signature(target).bind(*node.args, **{k.arg: k.value for k in node.keywords})


def _gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_every_cli_workload_argv_parses():
    gen, parser = _gen(), cli._build_parser()
    seen = set()
    for seed in (0, 1, 2):
        for i in range(len(gen.CLI_ROTATION)):
            op = gen.cli_input(seed, i)
            argv = gen.cli_argv(op, "matrix.json")
            args = parser.parse_args(cli._glue_rational_flags(argv))
            assert callable(args.handler), argv
            seen.add(op["kind"])
    assert seen == set(gen.CLI_ROTATION)


@pytest.mark.parametrize("workload", ["order3", "large_n", "census"])
def test_worker_probe_runs_each_op_kind(workload, tmp_path):
    # the probe runs one op of each kind and serialises its output, so a
    # renamed record field fails here rather than in a benchmark run
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
                           "--probe", "--tmp", str(tmp_path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ready "), proc.stdout


# Checks one traced rotation's op lines, read from stdin, with the
# benchmark's own checkers; prints the list of failures as JSON.
CHECK_SCRIPT = """
import json, os, sys
import checks, gen
workload, failed = sys.argv[1], []
for line in sys.stdin:
    rec = json.loads(line)
    if "end" not in rec:
        try:
            inp = gen.make_input(workload, 0, rec["i"], os.cpu_count() or 1)
            checks.CHECKERS[workload](inp, rec["out"])
        except Exception as exc:
            failed.append(f"op {rec['i']}: {type(exc).__name__}: {exc}")
print(json.dumps(failed))
"""


@pytest.mark.parametrize("workload", ["order3", "large_n", "census", "cli"])
def test_worker_traced_rotation_passes_the_checks(workload, tmp_path):
    # one rotation with the trace hooks installed, as the benchmark's traced
    # run makes it, so a broken hook or observer fails here; then the
    # benchmark's checkers read each op's output
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py"), "--workload", workload,
                           "--seconds", "0", "--trace", "1", "--tmp", str(tmp_path)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *ops, end = proc.stdout.splitlines()
    assert ops and not [line for line in ops if '"error"' in line]
    assert "layers" in json.loads(end)
    check = subprocess.run([sys.executable, "-c", CHECK_SCRIPT, workload], input=proc.stdout,
                           cwd=PERFBENCH, env=dict(env, PYTHONPATH=str(PERFBENCH)),
                           capture_output=True, text=True, timeout=300)
    assert check.returncode == 0, check.stderr
    assert json.loads(check.stdout) == []
