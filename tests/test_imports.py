"""Start-up cost: the exact verbs run without numpy, no verb loads a thread
pool, and each verb loads only the dstoch modules it calls.

The load checks run in a fresh interpreter, so the modules that the test
session has already imported do not count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import dstoch.diagsum
from dstoch import canonical, random_ds
from test_ratmat import write_matrix

ROOT = Path(__file__).resolve().parents[1]

# Runs every argv in ARGVS through dstoch.cli.main and prints one JSON
# line: each run's stdout and exit code, and which of numpy and
# concurrent.futures ended up loaded.  With BLOCK set, numpy is poisoned
# first, so any attempt to import it raises.
SCRIPT = """
import contextlib, io, json, sys
if BLOCK:
    sys.modules["numpy"] = None
import dstoch.cli
runs = []
for argv in ARGVS:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dstoch.cli.main(argv)
    runs.append([out.getvalue(), code])
loaded = {name: sys.modules.get(name) is not None
          for name in ("numpy", "concurrent.futures")}
print(json.dumps({"runs": runs, "loaded": loaded}))
"""


def _fresh(code):
    """Run code in a fresh interpreter and parse the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _run(argvs, block):
    return _fresh(f"BLOCK = {block!r}\nARGVS = {argvs!r}\n" + SCRIPT)


def _exact_argvs(tmp_path):
    files = {"R": canonical("R"), "T": canonical("T"),
             "mix": random_ds(4, 3, seed=17), "zero21": canonical("I1_J2"),
             "mix11": random_ds(11, 5, seed=18)}
    paths = {}
    for name, m in files.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(write_matrix(m))
    half = str(tmp_path / "half.json")
    Path(half).write_text('{"n":2,"rows":[["1/2","1/2"],["1/2","1/3"]]}')
    return [
        ["check", paths["mix"]],
        ["check", half],
        ["gap", paths["R"]],
        ["gap", paths["mix"]],
        ["classify", paths["T"]],
        ["classify", paths["mix"]],
        ["maxtrace", paths["mix"], "--method", "brute"],
        ["maxtrace", paths["mix"], "--method", "assignment"],
        ["maxprod", paths["mix"]],
        ["permanent", paths["mix"]],
        ["permanent", paths["mix11"]],  # the largest order the loop keeps
        # below order 5 the float tier runs on Python floats
        ["probe", "--n", "3", "--samples", "6", "--seed", "24"],
        ["probe", "--n", "4", "--samples", "6", "--seed", "25"],
        ["params", paths["zero21"]],
        ["region", "--u", "0", "--v", "-3/5"],
        ["boundary", "--min", "-1", "--max", "1", "--step", "0.5"],
        ["canonical", "--name", "S"],
        ["canonical", "--name", "Tn:5"],
        ["enumerate", "--denominator", "240", "--zero-cell", "1,2"],
        ["construct", "--u", "0", "--v", "-3/5", "--sign", "minus"],
        ["construct", "--u", "0", "--v", "-21/20", "--sign", "minus"],
        ["products", "--n", "5", "--samples", "3", "--seed", "4"],
    ]


def test_exact_verbs_run_without_numpy_or_thread_pool(tmp_path):
    argvs = _exact_argvs(tmp_path)
    blocked, free = _run(argvs, True), _run(argvs, False)
    assert blocked["runs"] == free["runs"]
    assert {code for _, code in free["runs"]} == {0, 1}
    # the irrational root is decided exactly and printed as doubles
    assert json.loads(free["runs"][-2][0])["exact"] is False
    assert blocked["loaded"] == {"numpy": False, "concurrent.futures": False}
    assert free["loaded"] == {"numpy": False, "concurrent.futures": False}


def test_probe_and_enumerate_load_numpy_on_demand(tmp_path):
    probe = _run([["probe", "--n", "5", "--samples", "4", "--seed", "1"]], False)
    assert probe["loaded"]["numpy"] and [code for _, code in probe["runs"]] == [0]
    # from order 12 on, the permanent's Glynn sum runs in int64 numpy
    path = tmp_path / "mix12.json"
    path.write_text(write_matrix(random_ds(12, 5, seed=19)))
    perm = _run([["permanent", str(path)]], False)
    assert perm["loaded"]["numpy"] and [code for _, code in perm["runs"]] == [0]
    # the census is a lookup of the orbit members: no numpy at any d
    for d in ("60", "122", "240"):
        census = _run([["enumerate", "--denominator", d]], False)
        assert census["loaded"] == {"numpy": False, "concurrent.futures": False}, d
        assert [code for _, code in census["runs"]] == [0], d


# Sums the squares of a PROBE_CAP x PROBE_CAP matrix with numpy poisoned.
FROB_SCRIPT = """
import json, sys
sys.modules["numpy"] = None
from dstoch.explore import PROBE_CAP, _frob_sq
rows = [[(i * PROBE_CAP + j) / 7 for j in range(PROBE_CAP)]
        for i in range(PROBE_CAP)]
print(json.dumps([PROBE_CAP, _frob_sq(rows)]))
"""


def test_probe_frobenius_sum_runs_without_numpy():
    import numpy as np
    n, frob_sq = _fresh(FROB_SCRIPT)
    x = np.arange(n * n, dtype=float).reshape(n, n) / 7
    assert frob_sq == float((x * x).sum())


# An argv (MATRIX stands for a file holding T, MATRIX2 for a 2 x 2 one) and
# the modules it loads besides dstoch, dstoch.cli and dstoch.ratmat; "--help"
# stops in argparse before any handler runs.
VERB_MODULES = [
    (["check", "MATRIX"], set()),
    (["gap", "MATRIX"], {"diagsum"}),
    (["classify", "MATRIX"], {"saturation", "diagsum"}),
    (["classify", "MATRIX2"], {"diagsum"}),
    (["region", "--u", "0", "--v", "-3/5"], {"weakform"}),
    (["construct", "--u", "0", "--v", "-3/5", "--sign", "minus"], {"weakform"}),
    (["products", "--n", "3", "--samples", "2", "--seed", "4"],
     {"explore", "saturation", "diagsum"}),
    (["probe", "--n", "3", "--samples", "6", "--seed", "24"],
     {"explore", "saturation", "diagsum"}),
    (["canonical", "--name", "S"], {"saturation", "diagsum"}),
    (["canonical", "--name", "Tn:5"], set()),
    (["--help"], set()),
]

# Standard-library modules that cost milliseconds to import and that no
# verb needs: the value records are namedtuples, not dataclasses.
HEAVY = ("dataclasses", "inspect")

# Runs ARGV through dstoch.cli.main and prints the exit code, the dstoch
# modules loaded at the end and which of HEAVY are loaded.
VERB_SCRIPT = """
import contextlib, io, json, sys
import dstoch.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = dstoch.cli.main(ARGV)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.partition(".")[0] == "dstoch"),
                  sorted(m for m in HEAVY if m in sys.modules)]))
"""

# Imports dstoch alone, then resolves every public name, then an unknown
# one; prints what each step found.
NAMES_SCRIPT = """
import importlib, json, sys
import dstoch
bare = sorted(m for m in sys.modules if m.startswith("dstoch."))
wrong, cached = [], []
for name, module in dstoch._HOME.items():
    home = importlib.import_module("dstoch." + module)
    if getattr(dstoch, name) is not (home if name == module else getattr(home, name)):
        wrong.append(name)
    if name != module and name in vars(dstoch):
        cached.append(name)
star = {}
exec("from dstoch import *", star)
star.pop("__builtins__")
try:
    dstoch.no_such_name
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({"bare": bare, "wrong": wrong, "cached": cached,
                  "star": sorted(star), "all": list(dstoch.__all__),
                  "dir": dir(dstoch), "error": error}))
"""


def test_each_verb_loads_only_its_modules(tmp_path):
    files = {"MATRIX": tmp_path / "T.json", "MATRIX2": tmp_path / "quarter.json"}
    files["MATRIX"].write_text(write_matrix(canonical("T")))
    files["MATRIX2"].write_text('{"n":2,"rows":[["1/4","3/4"],["3/4","1/4"]]}')
    # what a bare interpreter in this environment already holds
    bare = _fresh(f"import json, sys\nHEAVY = {HEAVY!r}\n"
                  "print(json.dumps(sorted(m for m in HEAVY if m in sys.modules)))")
    for argv, extra in VERB_MODULES:
        argv = [str(files.get(a, a)) for a in argv]
        code, loaded, heavy = _fresh(f"ARGV = {argv!r}\nHEAVY = {HEAVY!r}\n"
                                     + VERB_SCRIPT)
        assert code == 0, argv
        assert loaded == sorted({"dstoch", "dstoch.cli", "dstoch.ratmat"}
                                | {f"dstoch.{m}" for m in extra}), argv
        assert heavy == bare, argv


def test_package_names_resolve_lazily_to_their_home_module():
    out = _fresh(NAMES_SCRIPT)
    assert out["bare"] == []
    assert out["wrong"] == [] and out["cached"] == []
    # the 73 names a star import bound when the package imported eagerly,
    # less write_matrix, rational_sqrt, classify2 and snap_rational
    assert len(out["all"]) == len(set(out["all"])) == 69
    assert out["star"] == sorted(out["all"])
    assert {"ratmat", "diagsum", "saturation", "weakform", "explore",
            "marcus_ree_gap", "classify3"} <= set(out["all"])
    assert set(out["all"]) <= set(out["dir"])
    assert "no_such_name" in out["error"]


def test_package_names_follow_patches_of_their_home_module(monkeypatch):
    def patched(a):
        return "patched"

    monkeypatch.setattr(dstoch.diagsum, "permanent", patched)
    assert dstoch.permanent is patched
    monkeypatch.undo()
    assert dstoch.permanent is dstoch.diagsum.permanent is not patched
