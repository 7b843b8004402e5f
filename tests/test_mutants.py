"""The mutation gate: small deliberate bugs that the suite must catch.

Each row of MUTANTS names a module of `src/dstoch`, a snippet that occurs
exactly once in it (so a refactor that moves the snippet fails here
loudly instead of passing silently), its replacement, and test node ids of
which at least one must fail once the replacement is made.

All rows run in one fresh interpreter over a copy of `src/dstoch`: it runs
every named test on the unpatched copy (all must pass), then patches one
row at a time, runs that row's tests with `pytest.main` and restores the
file.  Between runs it forgets the dstoch and test modules it imported, so
each run reads the copy as it is then; bytecode is not written, so no
stale `.pyc` stands in for a patched file.  A pytest subprocess costs
about a second and an in-process run about 0.1 s, so one interpreter for
every row keeps the file cheap.

Not rows: ten strict/non-strict flips in the weak form change no answer
on the rationals, so no test can catch them.  They are `d < 0` in
`solve_w` and the E0 test in `in_disc_e0`, `in_u_minus` and `in_u_plus`
(the circle u^2 + v^2 = 7/6 has no rational point, since 7/6 is not a sum
of two rational squares), and the six half-plane tests at u = -1/2, u = 1/2
and v = 1/2 in `in_u_minus` and `in_u_plus` (along each seam the excess of
E2, E1 or E3 is 5/2 times that of E0, so a seam meets the regions'
boundaries only at irrational points;
`test_region_seams_cross_the_disc_only_at_irrational_points`).
"""

import collections
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dstoch"

Mutant = collections.namedtuple("Mutant", "id module snippet replacement tests")

MUTANTS = (
    # the Ehrhart count with C(d+3,4) in place of MacMahon's C(d+2,4)
    Mutant("census-binomial", "explore", "math.comb(d + 2, 4)", "math.comb(d + 3, 4)",
           ("tests/test_explore.py::test_enumerate_d1_is_the_permutation_matrices",)),
    # the census and classify3 without the last orbit member, an R-orbit one
    Mutant("orbit-member-dropped", "saturation", "_ORBITS = _orbit_table()\n",
           "_ORBITS = _orbit_table()\n_ORBITS.popitem()\n",
           ("tests/test_saturation.py::test_classify3_decides_without_searching",)),
    Mutant("discriminant-doubled", "weakform",
           "d = 7 * q * q - 6 * big_u * big_u - 6 * big_v * big_v",
           "d = 2 * (7 * q * q - 6 * big_u * big_u - 6 * big_v * big_v)",
           ("tests/test_weakform.py::test_construct_exact_solution_points",)),
    # E3 read as open: drops its boundary, (-1, 0) and (0, -3/5) among it
    Mutant("u-minus-e3-open", "weakform", "_EXCESS[0](*p) <= 0 <= _EXCESS[3](*p)",
           "_EXCESS[0](*p) <= 0 < _EXCESS[3](*p)",
           ("tests/test_weakform.py::test_u_minus_membership",)),
    # E3 read as open: drops the isolated point (0, 1)
    Mutant("u-plus-e3-open", "weakform", "_EXCESS[3](*p) <= 0))", "_EXCESS[3](*p) < 0))",
           ("tests/test_weakform.py::test_u_plus_membership",)),
    Mutant("ellipse-open", "weakform", "    return _EXCESS[k](*p) <= 0",
           "    return _EXCESS[k](*p) < 0",
           ("tests/test_weakform.py::test_ellipse_boundaries",)),
    # the real-number rule taking a bool as 0.0 or 1.0
    Mutant("real-takes-bool", "ratmat",
           "isinstance(x, numbers.Real) and not isinstance(x, bool)",
           "isinstance(x, numbers.Real)",
           ("tests/test_refusals.py::test_every_real_argument_is_refused_by_one_rule"
            "[reconstruct-bool]",
            "tests/test_refusals.py::test_every_real_argument_is_refused_by_one_rule"
            "[reconstruct-tol-bool]")),
    # list rows read as they come, strings and floats included
    Mutant("order3-rows-unchecked", "weakform", "[[_q(x) for x in row] for row in a]",
           "[list(row) for row in a]",
           ("tests/test_refusals.py::test_refusal_branches[trace_dominant-str]",
            "tests/test_refusals.py::test_refusal_branches[weak_saturation-float]")),
    # an empty --zero-cell read as no zero cell
    Mutant("zero-cell-truthiness", "cli", "None if args.zero_cell is None else",
           "None if not args.zero_cell else",
           ("tests/test_cli.py::test_enumerate_empty_zero_cell_exits_2",)),
    # the number grammar taking any Unicode digit that int() reads
    Mutant("grammar-non-ascii", "ratmat", "text.isascii() and (num.isdigit()",
           "(num.isdigit()",
           ("tests/test_refusals.py::test_ds_refuses_every_number_off_the_grammar[tn-arabic]",
            "tests/test_refusals.py::test_ds_refuses_every_number_off_the_grammar[u-arabic]")),
    # parsed text kept over the lcm of its unreduced denominators: no gcd
    Mutant("parse-unreduced", "ratmat",
           "return cls._reduced([[p * scale[q] for p, q in row] for row in ratios], den)",
           "return _wrap(cls, [[p * scale[q] for p, q in row] for row in ratios], den)",
           ("tests/test_ratmat.py::test_every_constructor_stores_one_canonical_grid",)),
    # U+ with the E1 or the E2 boundary left out, U- with E2 or E1 open
    Mutant("u-plus-e1-open", "weakform", "_EXCESS[1](*p) >= 0 and", "_EXCESS[1](*p) > 0 and",
           ("tests/test_weakform.py::test_u_plus_membership",)),
    Mutant("u-plus-e2-open", "weakform", "_EXCESS[2](*p) >= 0", "_EXCESS[2](*p) > 0",
           ("tests/test_weakform.py::test_u_plus_membership",)),
    Mutant("u-minus-e2-open", "weakform", "_EXCESS[2](*p) <= 0)", "_EXCESS[2](*p) < 0)",
           ("tests/test_weakform.py::test_construction_matches_regions_next_to_the_boundaries"
            "[eps0]",)),
    Mutant("u-minus-e1-open", "weakform", "_EXCESS[1](*p) <= 0))", "_EXCESS[1](*p) < 0))",
           ("tests/test_weakform.py::test_construction_matches_regions_next_to_the_boundaries"
            "[eps0]",)),
    # reconstruct_matrix snapping to denominators up to 10^5, not 10^6
    Mutant("snap-denominator-bound", "explore", "_SNAP_MAX_DEN = 10 ** 6",
           "_SNAP_MAX_DEN = 10 ** 5",
           ("tests/test_explore.py::test_reconstruct_matrix_forces_the_sums",)),
    # the gap's trace taken as the sum of the row maxima: 8/5 for R, not 7/5
    Mutant("gap-row-maxima", "diagsum", "trace = Fraction(max_trace_value(a.grid), a.den)",
           "trace = Fraction(sum(map(max, a.grid)), a.den)",
           ("tests/test_cli.py::test_gap_golden",)),
    # the trace sum with no start value: the empty matrix raises TypeError
    Mutant("trace-value-no-start", "diagsum", "for i in range(len(rows))), 0)",
           "for i in range(len(rows))))",
           ("tests/test_diagsum.py::test_gap_of_the_empty_matrix",)),
    # the census records in the orbit table's insertion order, unsorted
    Mutant("census-unsorted", "explore",
           "_CENSUS = sorted(_ORBITS.values(), key=lambda hit: hit[0].rows)",
           "_CENSUS = list(_ORBITS.values())",
           ("tests/test_cli.py::test_enumerate_d60_bytes_golden[None-1]",)),
)

# Runs in a fresh interpreter: argv holds the copy's directory, the path to
# write the outcomes to and the rows as JSON.  Each outcome is pytest's exit
# code (0 all passed, 1 some test failed) and the file dstoch came from.
SCRIPT = """
import json, sys
from pathlib import Path
import pytest

copy, result, rows = Path(sys.argv[1]), Path(sys.argv[2]), json.loads(sys.argv[3])
# each of these plugins costs a run more than its test: the last two call
# gc.collect five times per session
OPTIONS = ["-p", "no:cacheprovider", "-p", "no:unraisableexception",
           "-p", "no:threadexception"]


def run(ids):
    for name in [m for m in sys.modules
                 if m.partition(".")[0] == "dstoch" or m.startswith("test_")]:
        del sys.modules[name]
    code = int(pytest.main(["-q", "-x", "--assert=plain", *OPTIONS, *ids]))
    return code, getattr(sys.modules.get("dstoch"), "__file__", None)


outcomes = {"": run(sorted({test for *_, tests in rows for test in tests}))}
for key, module, snippet, replacement, tests in rows:
    path = copy / "dstoch" / f"{module}.py"
    text = path.read_text()
    path.write_text(text.replace(snippet, replacement))
    try:
        outcomes[key] = run(tests)
    finally:
        path.write_text(text)
result.write_text(json.dumps(outcomes))
"""


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """(copy, {row id: (exit code, dstoch's file)}), "" the unpatched run."""
    copy = tmp_path_factory.mktemp("mutants")
    shutil.copytree(SRC, copy / "dstoch", ignore=shutil.ignore_patterns("__pycache__"))
    result = copy / "outcomes.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(copy), str(result),
                           json.dumps([list(m) for m in MUTANTS])],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return copy, json.loads(result.read_text())


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_snippet_occurs_once(mutant):
    assert (SRC / f"{mutant.module}.py").read_text().count(mutant.snippet) == 1


def test_unpatched_copy_passes_every_named_test(outcomes):
    copy, runs = outcomes
    code, home = runs[""]
    assert code == 0
    assert Path(home).parent == copy / "dstoch"


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_mutant_is_caught(outcomes, mutant):
    copy, runs = outcomes
    code, home = runs[mutant.id]
    assert code == 1, f"{mutant.id}: pytest exit code {code}, expected 1 (a test failed)"
    assert Path(home).parent == copy / "dstoch"
