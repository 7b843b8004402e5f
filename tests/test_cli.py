"""CLI surface: golden outputs, exit codes, file and stdin handling."""

import builtins
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dstoch import ParseError, RatMatrix, canonical, parse_matrix, random_ds
from dstoch.cli import main
from test_ratmat import write_matrix


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def r_file(tmp_path):
    path = tmp_path / "R.json"
    path.write_text(write_matrix(canonical("R")))
    return str(path)


@pytest.fixture
def s_file(tmp_path):
    path = tmp_path / "S.json"
    path.write_text(write_matrix(canonical("S")))
    return str(path)


def test_gap_golden(capsys, r_file):
    code, out, _ = run(capsys, "gap", r_file)
    assert code == 0
    assert out == '{"frob_sq":"7/5","max_trace":"7/5","gap":"0","saturated":true}\n'


def test_classify_golden(capsys, s_file):
    code, out, _ = run(capsys, "classify", s_file)
    assert code == 0
    assert out == '{"saturated":true,"form":"S","P":[0,1,2],"Q":[0,1,2]}\n'


def test_classify_non_saturated(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"n":3,"rows":[["1/2","1/4","1/4"],'
                    '["1/4","1/2","1/4"],["1/4","1/4","1/2"]]}')
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["saturated"] is False
    assert "separator" in payload


def test_region_isolated_point(capsys):
    code, out, _ = run(capsys, "region", "--u", "0", "--v", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["E0"] is True
    assert payload["U_minus"] is False
    assert payload["U_plus"] is True


def test_check_and_exit_codes(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(write_matrix(canonical("T")))
    code, out, _ = run(capsys, "check", str(good))
    assert code == 0 and json.loads(out)["doubly_stochastic"] is True

    bad = tmp_path / "bad.json"
    bad.write_text('{"n":2,"rows":[["1/2","1/4"],["1/2","3/4"]]}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == 1 and err

    ugly = tmp_path / "ugly.json"
    ugly.write_text('{"n":2,"rows":[["0.5","0.5"],["0.5","0.5"]]}')
    code, _, err = run(capsys, "check", str(ugly))
    assert code == 2 and err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_maxtrace_methods_agree(capsys, s_file):
    _, brute, _ = run(capsys, "maxtrace", s_file, "--method", "brute")
    _, assign, _ = run(capsys, "maxtrace", s_file, "--method", "assignment")
    b, a = json.loads(brute), json.loads(assign)
    assert b["max_trace"] == a["max_trace"] == "5/4"
    assert b["argmax"] == a["argmax"]


def test_permanent_and_maxprod(capsys, tmp_path):
    path = tmp_path / "J3.json"
    path.write_text(write_matrix(canonical("J3")))
    _, out, _ = run(capsys, "permanent", str(path))
    assert json.loads(out)["permanent"] == "2/9"
    _, out, _ = run(capsys, "maxprod", str(path))
    assert json.loads(out)["max_product"] == "1/27"


def test_canonical_pipes_into_gap(capsys, tmp_path):
    code, out, _ = run(capsys, "canonical", "--name", "Tn:4")
    assert code == 0
    path = tmp_path / "t4.json"
    path.write_text(out)
    code, out, _ = run(capsys, "gap", str(path))
    assert json.loads(out)["gap"] == "0"


def test_canonical_names(capsys):
    code, out, _ = run(capsys, "canonical", "--name", "I1J2")
    assert code == 0
    assert json.loads(out)["rows"][0] == ["1", "0", "0"]
    code, out, _ = run(capsys, "canonical", "--name", "Jn:5")
    assert json.loads(out)["rows"][2][2] == "1/5"


def test_params_and_construct_round_trip(capsys, r_file):
    _, out, _ = run(capsys, "params", r_file)
    payload = json.loads(out)
    assert payload == {"u": "0", "v": "-3/5", "w": "0"}
    code, out, _ = run(capsys, "construct", "--u", "0", "--v", "-3/5",
                       "--sign", "minus")
    assert code == 0
    built = json.loads(out)
    assert built["exact"] is True and built["w"] == "0"
    assert built["matrix"]["rows"][0] == ["3/5", "0", "2/5"]


def test_construct_infeasible_is_domain_error(capsys):
    code, _, err = run(capsys, "construct", "--u", "0", "--v", "-3/5",
                       "--sign", "plus")
    assert code == 1 and "a13" in err


def test_construct_float_branch(capsys):
    code, out, _ = run(capsys, "construct", "--u", "0", "--v", "-21/20",
                       "--sign", "minus")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False
    assert isinstance(payload["w"], float)


def test_construct_just_outside_the_region_is_domain_error(capsys):
    # 2e-10 above the E3 boundary point (0, -3/5): U_minus does not hold
    # and the irrational w = a12 is about -9.09e-11, so the exact sign test
    # refuses what a -1e-9 float floor would have printed
    v = "-2999999999/5000000000"
    _, out, _ = run(capsys, "region", "--u", "0", "--v", v)
    assert json.loads(out)["U_minus"] is False
    code, out, err = run(capsys, "construct", "--u", "0", "--v", v,
                         "--sign", "minus")
    assert code == 1 and out == ""
    assert err.startswith("ds: constraint a12 >= 0 violated: a12 = -9.09")
    # here a13 = (sqrt(disc) - 1)/8 < 0 rounds to a double >= 0, so the
    # message prints it exactly
    code, out, err = run(capsys, "construct", "--u", "1", "--v",
                         "-1/1000000000", "--sign", "minus")
    assert code == 1 and out == ""
    assert err.startswith("ds: constraint a13 >= 0 violated: a13 = -1/8 + 1/8*sqrt(")


def test_boundary_csv(capsys):
    code, out, _ = run(capsys, "boundary", "--min", "-0.5", "--max", "0.5",
                       "--step", "0.25", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u,f,g,h"
    assert len(lines) == 6


def test_boundary_json_stable(capsys):
    _, first, _ = run(capsys, "boundary", "--min", "0", "--max", "1",
                      "--step", "0.5")
    _, second, _ = run(capsys, "boundary", "--min", "0", "--max", "1",
                       "--step", "0.5")
    assert first == second
    assert json.loads(first)["rows"][0][2] == pytest.approx(-0.6)


def test_enumerate_small(capsys):
    code, out, _ = run(capsys, "enumerate", "--denominator", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["ds_count"] == 21
    assert len(payload["saturating"]) == 21


def test_threads_flag_is_gone_and_ds_threads_is_ignored(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "enumerate", "--denominator", "2"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "thread" not in capsys.readouterr().out.lower()
    _, plain, _ = run(capsys, "enumerate", "--denominator", "5")
    monkeypatch.setenv("DS_THREADS", "abc")
    code, out, _ = run(capsys, "enumerate", "--denominator", "5")
    assert code == 0 and out == plain


# sha256 of the stdout of `ds enumerate --denominator 60`, with
# no zero cell and with --zero-cell 2,1, as the full-grid sweep printed it
CENSUS_60_SHA256 = {
    None: "17cf44aab143eea3ba9cb895bf279122e77f255242246176705d232e2f1a4844",
    "2,1": "ab746b78d049c415850593755e0924f83e276975aa6009b47b663b2fed6cb99d",
}


# runs=2 runs the census twice in one process: whatever the first run
# leaves cached must not change the bytes of the second
@pytest.mark.parametrize("runs", [1, 2])
@pytest.mark.parametrize("zero_cell", [None, "2,1"])
def test_enumerate_d60_bytes_golden(capsys, zero_cell, runs):
    argv = ["enumerate", "--denominator", "60"]
    if zero_cell:
        argv += ["--zero-cell", zero_cell]
    for _ in range(runs):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_60_SHA256[zero_cell]


# sha256 of the stdout of `ds enumerate --denominator 60 --zero-cell I,J`
# for the other eight cells, as the slice-by-slice census
# with a per-cell mask printed it
ZERO_CELL_60_SHA256 = {
    "0,0": "8f5def1f04cc602750c106c5fa46dcb9a1359d27e67ec202822639c1be68c4e1",
    "0,1": "a5909677c8f0ddd36677c02569941e3630ba9084bdc75ff3aaf401ca0d4ef25f",
    "0,2": "3ddf9f178ac665a06b683b0deda0e700b78adf16d2db676fe6a98760e2bc6f57",
    "1,0": "92e8c9f043f83cb746ad7ed428453606bdd112789928a03d173f73443a003fff",
    "1,1": "494e23fdbefa879ae7eb7adbee0e8c9a509eb7a16dc3f8464f78088f29ee4050",
    "1,2": "712700649e760f81bfd36fc750ba7ef40560e3abfd157997a03f2517194d5d78",
    "2,0": "b4d8ec5b56af9204db95c8b7152ede7cc058526825d61d1eb0b84e8bf3136317",
    "2,2": "1a27ed8eaa74f2df32b06f4e2dcb6038bfdc473d93b53e93fe89d50521e5fbfd",
}


@pytest.mark.parametrize("zero_cell", sorted(ZERO_CELL_60_SHA256))
def test_enumerate_d60_zero_cell_bytes_golden(capsys, zero_cell):
    code, out, _ = run(capsys, "enumerate", "--denominator", "60",
                       "--zero-cell", zero_cell)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ZERO_CELL_60_SHA256[zero_cell]


@pytest.mark.parametrize("zero_cell", ["5", "a,b", "1,0,5"])
def test_enumerate_bad_zero_cell_exits_2(capsys, zero_cell):
    code, out, err = run(capsys, "enumerate", "--denominator", "2",
                         "--zero-cell", zero_cell)
    assert code == 2 and out == ""
    assert err.startswith("ds: ") and err.count("\n") == 1


def test_enumerate_empty_zero_cell_exits_2(capsys):
    # an empty value is a malformed cell, not a census without one
    assert run(capsys, "enumerate", "--denominator", "6", "--zero-cell", "") == (
        2, "", "ds: parse error: --zero-cell expects two integers I,J, got ''\n")


def test_option_values_may_start_with_a_minus(capsys, r_file):
    # argparse reads -1 and -.5 as numbers but -1,0 and -1e-3 as option names
    assert run(capsys, "enumerate", "--denominator", "6", "--zero-cell", "-1,0") == (
        1, "", "ds: zero_cell out of range: (-1, 0)\n")
    code, out, err = run(capsys, "boundary", "--min", "-1e-3", "--max", "0")
    assert (code, err) == (0, "") and json.loads(out)["rows"][0][0] == -0.001
    for flag in ("--csv", "--cs"):
        assert run(capsys, "boundary", flag, "--min", "-1e-3", "--max", "0")[1].startswith(
            "u,f,g,h\n-0.001,")
    # "--" still ends the options
    assert run(capsys, "gap", "--", r_file) == run(capsys, "gap", r_file)


def test_products_deterministic(capsys):
    _, first, _ = run(capsys, "products", "--n", "4", "--samples", "5",
                      "--seed", "9")
    _, second, _ = run(capsys, "products", "--n", "4", "--samples", "5",
                       "--seed", "9")
    assert first == second
    assert all(p["identity_holds"] for p in json.loads(first)["probes"])


def test_probe_runs(capsys):
    code, out, _ = run(capsys, "probe", "--n", "3", "--samples", "10",
                       "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["samples"] == 10


# sha256 of the stdout of `ds probe --n N --samples 6 --seed SEED`;
# each run has verified mixture or jitter candidates, so the bytes pin
# Sinkhorn, the float assignment solver and the exact reconstruction
PROBE_SHA256 = {
    ("3", "24"): "a5311f21abfa6ff97e75e681bd3397112bf3df1d97b8646bc65fd78f6b8e98dd",
    ("3", "14"): "ffebe7eba4e2a43adc5221f5c1cbccc149ccae614fbf342821b5834835f15430",
    ("4", "25"): "70b17e245bc899547321a8c4125a4534a6fd2330d695eaf97fbc7792728f3351",
    ("5", "12"): "0f9cae72e27461ca3916e8c42cc097833ef8ee5e4229c7be764b80b16f6db6e1",
}


_BUILTIN_SUM = sum


def _compensated_sum(items, start=0):
    """The builtin sum of Python 3.12 on, which adds floats with Neumaier
    compensation; other items go to the interpreter's own sum."""
    items = list(items)
    if not all(type(x) is float for x in items) or start != 0:
        return _BUILTIN_SUM(items, start)
    total = comp = 0.0
    for x in items:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


# None runs the interpreter's sum; "compensated" swaps in the one Python 3.12
# ships, and the bytes must not move: the probe adds its floats left to right
@pytest.mark.parametrize("n, seed, summing", [
    (n, seed, summing) for n, seed in PROBE_SHA256 for summing in (None, "compensated")])
def test_probe_bytes_golden(capsys, monkeypatch, n, seed, summing):
    if summing:
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
    code, out, _ = run(capsys, "probe", "--n", n, "--samples", "6", "--seed", seed)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PROBE_SHA256[n, seed]


def test_stdin_matrix(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(write_matrix(canonical("S"))))
    code, out, _ = run(capsys, "gap", "-")
    assert code == 0
    assert json.loads(out)["saturated"] is True


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "gap", "/no/such/file.json")
    assert code == 2 and err


_LONG = "1" + "0" * 4999
_DIRECTORY = object()  # the matrix argument names a directory


@pytest.mark.parametrize("argv, text, where", [
    (["check"], '{"rows": 5}', ""),
    (["gap"], '{"n":0,"rows":[]}', ""),
    (["canonical", "--name", "Tn:abc"], None, ""),
    (["check"], f"{_LONG},0\n0,1\n", "line 1, column 1"),
    (["check"], f'{{"rows":[[{_LONG}]]}}', ""),
    (["check"], "1,0\n\n\n0,x\n", "line 4, column 2"),
    (["check"], b"\xff\xfe1,0\n0,1\n", "not UTF-8"),
    (["gap"], _DIRECTORY, "is a directory"),
    (["check"], '{"rows":' * 100_000, "nests too deeply"),
    (["check"], '{"n":true,"rows":[["1"]]}', '"n" must be an integer'),
    (["check"], '{"n":2.0,"rows":[["1","0"],["0","1"]]}', '"n" must be an integer'),
    (["check"], '{"n":"2","rows":[["1","0"],["0","1"]]}', '"n" must be an integer'),
    (["check"], '{"n":null,"rows":[["1"]]}', '"n" must be an integer'),
    (["check"], '{"n":[1],"rows":[["1"]]}', '"n" must be an integer'),
], ids=["rows-not-list", "empty", "tn-not-int", "csv-long-entry",
        "json-long-number", "csv-blank-lines", "not-utf8", "directory",
        "deep-json", "n-bool", "n-float", "n-string", "n-null", "n-list"])
def test_bad_input_is_one_parse_error_line(capsys, tmp_path, argv, text, where):
    if text is _DIRECTORY:
        argv = argv + [str(tmp_path)]
    elif text is not None:
        path = tmp_path / "m.txt"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        argv = argv + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("ds: parse error: ") and err.count("\n") == 1
    assert where in err


@pytest.mark.parametrize("argv", [
    ["canonical", "--name", "Tn:100000"],
    ["canonical", "--name", "Jn:20000"],
    ["boundary", "--step", "nan"],
    ["boundary", "--max", "inf"],
    ["boundary", "--step", "1e-9"],
    ["boundary", "--min", "nan"],
    ["probe", "--n", "3", "--samples", "-1", "--seed", "0"],
    ["probe", "--n", "-1", "--samples", "3", "--seed", "0"],
    ["probe", "--n", "100000", "--samples", "3", "--seed", "0"],
    ["products", "--n", "0", "--samples", "3", "--seed", "0"],
    ["products", "--n", "3", "--samples", "3", "--seed", "0", "--max-parts", "0"],
    ["products", "--n", "3", "--samples", "-1", "--seed", "0"],
    # a trailing RatMatrix stands for a file holding it
    ["classify", random_ds(1, 1, seed=0)],
    ["classify", random_ds(4, 3, seed=1)],
], ids=["tn-order", "jn-order", "step-nan", "max-inf", "step-tiny", "min-nan",
        "samples-negative", "n-negative", "probe-order",
        "products-n-zero", "products-parts-zero", "products-samples-negative",
        "classify-order-1", "classify-order-4"])
def test_unbounded_request_is_one_domain_error_line(capsys, tmp_path, argv):
    if isinstance(argv[-1], RatMatrix):
        path = tmp_path / "m.json"
        path.write_text(write_matrix(argv[-1]))
        order, argv = argv[-1].n, argv[:-1] + [str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("ds: ") and err.count("\n") == 1
    assert not err.startswith("ds: parse error")
    if argv[0] == "classify":
        assert err == f"ds: classify supports orders 2 and 3, got {order}\n"


_FRACTIONS = st.fractions(min_value=-1, max_value=2, max_denominator=6).map(str)
_CELLS = st.one_of(_FRACTIONS, st.text(max_size=4))
_GRIDS = st.lists(st.lists(_CELLS, min_size=1, max_size=3), min_size=1, max_size=3)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _CELLS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)
_MATRIX_TEXTS = st.one_of(
    st.text(),
    st.builds(lambda *args: write_matrix(random_ds(*args)), st.integers(1, 4),
              st.integers(1, 6), st.integers(0, 2 ** 64 - 1)),
    _GRIDS.map(lambda rows: "\n".join(",".join(row) for row in rows)),
    _GRIDS.map(lambda rows: json.dumps({"rows": rows})),
    st.fixed_dictionaries({"rows": _JSON_VALUES},
                          optional={"n": _JSON_VALUES}).map(json.dumps),
)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(_MATRIX_TEXTS)
def test_any_text_parses_or_exits_with_one_line(text):
    try:
        parsed = parse_matrix(text)
    except ParseError:
        parsed = None
    else:
        assert isinstance(parsed, RatMatrix)
    for verb in ("check", "classify", "gap", "maxtrace", "permanent", "maxprod",
                 "params"):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), \
                redirect_stdout(out), redirect_stderr(err):
            code = main([verb, "-"])
        err = err.getvalue()
        assert code in ((2,) if parsed is None else (0, 1))
        assert (code == 0) == (err == "")
        assert err == "" or (err.startswith("ds: ") and err.count("\n") == 1)
