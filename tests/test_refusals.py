"""Refusals: one integer rule for every public argument, one real-number
rule for every float argument, one grammar for every exact number `ds` reads, and the error branches of each module with
the exception type and message they carry."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dstoch.cli
from dstoch.ratmat import parse_integer
from dstoch import (
    BlockSpec,
    DomainError,
    OrderTooLarge,
    ParseError,
    Permutation,
    RatMatrix,
    SplitMix64,
    all_permutations,
    block_j_form,
    block_product_probe,
    boundary_curves,
    diagonal_sum,
    enumerate_grid,
    in_disc_e0,
    in_ellipse,
    in_u_minus,
    in_u_plus,
    make_jn,
    make_tn,
    max_diag_product,
    params_to_matrix,
    parse_matrix,
    parse_rational,
    perm_matrix,
    permanent,
    permutation_equivalent,
    random_ds,
    rationality_probe,
    read_matrix,
    reconstruct_matrix,
    search_products,
    sinkhorn,
    solve_w,
    trace_dominant,
    weak_residual,
    weak_saturation_check,
)

I3 = Permutation.identity(3)
HALF = F(1, 2)


# ── the integer rule ──────────────────────────────────────────────────────

@pytest.mark.parametrize("call, word", [
    pytest.param(lambda: Permutation([1.0, 0]), "permutation entry", id="permutation"),
    pytest.param(lambda: Permutation.identity(True), "order", id="identity-bool"),
    pytest.param(lambda: Permutation.identity(-1), "order", id="identity-negative"),
    pytest.param(lambda: Permutation.random(-2, SplitMix64(0)), "order", id="random-negative"),
    pytest.param(lambda: Permutation.random(2.0, SplitMix64(0)), "order", id="random-float"),
    pytest.param(lambda: all_permutations(True), "order", id="all_permutations-bool"),
    pytest.param(lambda: all_permutations(-1), "order", id="all_permutations-negative"),
    pytest.param(lambda: RatMatrix([[True, 0], [0, 1]]), "matrix entry", id="entry"),
    pytest.param(lambda: RatMatrix.of_grid([[1]], True), "denominator", id="of_grid-den-bool"),
    pytest.param(lambda: RatMatrix.of_grid([[1]], 1.0), "denominator", id="of_grid-den-float"),
    pytest.param(lambda: RatMatrix.of_grid([[1]], "1"), "denominator", id="of_grid-den-str"),
    pytest.param(lambda: make_jn(True), "J_n", id="make_jn-bool"),
    pytest.param(lambda: make_jn(0), "J_n", id="make_jn-zero"),
    pytest.param(lambda: make_tn(3.0), "T_n", id="make_tn-float"),
    pytest.param(lambda: make_tn(1), "T_n", id="make_tn-one"),
    pytest.param(lambda: block_j_form(I3, [2.7, 1], I3), "block size", id="parts-float"),
    pytest.param(lambda: block_j_form(I3, ["2", "1"], I3), "block size", id="parts-str"),
    pytest.param(lambda: block_j_form(I3, [True, 2], I3), "block size", id="parts-bool"),
    pytest.param(lambda: block_j_form(I3, [0, 3], I3), "block size", id="parts-zero"),
    pytest.param(lambda: random_ds(3.0, 2, 1), "order n", id="random_ds-n"),
    pytest.param(lambda: random_ds(3, 0, 1), "count k", id="random_ds-k"),
    pytest.param(lambda: random_ds(3, 2, 1.5), "seed", id="random_ds-seed"),
    pytest.param(lambda: SplitMix64(1.5), "seed", id="splitmix-seed"),
    pytest.param(lambda: enumerate_grid(True), "denominator", id="census-bool"),
    pytest.param(lambda: enumerate_grid(0), "denominator", id="census-zero"),
    pytest.param(lambda: enumerate_grid(4, zero_cell=(True, 0)), "zero_cell",
                 id="census-cell-bool"),
    pytest.param(lambda: enumerate_grid(4, threads=True), "threads", id="census-threads"),
    pytest.param(lambda: search_products(0, 2, 1, 0), "n", id="products-n"),
    pytest.param(lambda: search_products(3, 2.0, 1, 0), "max_parts", id="products-parts"),
    pytest.param(lambda: search_products(3, 2, -1, 0), "samples", id="products-samples"),
    pytest.param(lambda: search_products(3, 2, 1, 0.5), "seed", id="products-seed"),
    pytest.param(lambda: rationality_probe(True, 1, 0), "n", id="probe-n"),
    pytest.param(lambda: rationality_probe(3, -1, 0), "samples", id="probe-samples"),
    pytest.param(lambda: rationality_probe(3, 1, "7"), "seed", id="probe-seed"),
    pytest.param(lambda: in_ellipse(1.0, 0, 0), "ellipse index", id="ellipse-index"),
])
def test_every_integer_argument_is_refused_by_one_rule(call, word):
    with pytest.raises(DomainError, match="must be one of the integers") as exc:
        call()
    assert word in str(exc.value)


# ── the real-number rule ──────────────────────────────────────────────────

J2_FLOATS = [[0.5, 0.5], [0.5, 0.5]]
PI_TENTHS = [[math.pi / 10, 1 - math.pi / 10], [1 - math.pi / 10, math.pi / 10]]


@pytest.mark.parametrize("call, word", [
    pytest.param(lambda: sinkhorn([["0.5"]]), "Sinkhorn entry", id="sinkhorn-str"),
    pytest.param(lambda: sinkhorn([[True, 1.0], [1.0, True]]), "Sinkhorn entry",
                 id="sinkhorn-bool"),
    pytest.param(lambda: sinkhorn([[None]]), "Sinkhorn entry", id="sinkhorn-none"),
    pytest.param(lambda: sinkhorn([[1j]]), "Sinkhorn entry", id="sinkhorn-complex"),
    pytest.param(lambda: sinkhorn([[np.bool_(True)]]), "Sinkhorn entry",
                 id="sinkhorn-numpy-bool"),
    pytest.param(lambda: reconstruct_matrix([["0.5", "0.5"], ["0.5", "0.5"]]), "matrix entry",
                 id="reconstruct-str"),
    pytest.param(lambda: reconstruct_matrix([[True, False], [False, True]]), "matrix entry",
                 id="reconstruct-bool"),
    pytest.param(lambda: reconstruct_matrix(J2_FLOATS, tol=True), "tol",
                 id="reconstruct-tol-bool"),
    pytest.param(lambda: reconstruct_matrix(J2_FLOATS, tol=None), "tol",
                 id="reconstruct-tol-none"),
    pytest.param(lambda: boundary_curves(True, 1.0, 0.5), "bound", id="boundary-bool"),
    pytest.param(lambda: boundary_curves(None, 1.0, 0.5), "bound", id="boundary-none"),
    pytest.param(lambda: boundary_curves(0.0, "1", 0.5), "bound", id="boundary-str"),
    pytest.param(lambda: boundary_curves(0.0, 1.0, 10 ** 400), "bound",
                 id="boundary-past-float"),
])
def test_every_real_argument_is_refused_by_one_rule(call, word):
    with pytest.raises(DomainError, match="must be a real number") as exc:
        call()
    assert word in str(exc.value)


WEAK_FORM_CALLS = {
    "solve_w": lambda x: solve_w(x, 0, "minus"),
    "in_disc_e0": lambda x: in_disc_e0(0, x),
    "in_ellipse": lambda x: in_ellipse(3, x, 0),
    "in_u_minus": lambda x: in_u_minus(x, 0),
    "in_u_plus": lambda x: in_u_plus(0, x),
    "weak_residual": lambda x: weak_residual(0, 0, x),
    "params_to_matrix": lambda x: params_to_matrix((0, x, 0)),
}


@pytest.mark.parametrize("name", WEAK_FORM_CALLS)
@pytest.mark.parametrize("bad", [0.1, "1/2", True, math.nan],
                         ids=["float", "str", "bool", "nan"])
def test_weak_form_takes_only_exact_numbers(name, bad):
    with pytest.raises(DomainError, match="weak-form parameter"):
        WEAK_FORM_CALLS[name](bad)


def test_numpy_integers_and_fractions_are_still_accepted():
    i64 = np.int64
    assert make_jn(i64(3)) == make_jn(3) and make_tn(np.int8(4)) == make_tn(4)
    assert (block_j_form(I3, [i64(2), np.int32(1)], I3)
            == block_j_form(I3, (2, 1), I3))
    assert random_ds(i64(4), np.int16(3), np.uint64(9)) == random_ds(4, 3, 9)
    assert SplitMix64(i64(-1)).next64() == SplitMix64(2 ** 64 - 1).next64()
    assert Permutation([i64(1), 0]) == (1, 0)
    assert RatMatrix([[HALF, i64(0)], [0, HALF]]).grid == [[1, 0], [0, 1]]
    assert (search_products(i64(3), i64(2), i64(2), i64(5))
            == search_products(3, 2, 2, 5))
    for name, call in WEAK_FORM_CALLS.items():
        assert call(i64(0)) == call(0) == call(F(0)), name
    assert solve_w(HALF, i64(0), "plus") == solve_w(HALF, F(0), "plus")
    assert in_ellipse(i64(2), HALF, 0) == in_ellipse(2, HALF, 0)
    # and by the real-number rule, numpy's floats too
    x = [[1.0, 2.0], [3.0, 1.0]]
    assert sinkhorn(np.array(x, dtype=np.float32)) == sinkhorn(x)
    assert sinkhorn([[F(1), 2], [i64(3), 1]]) == sinkhorn(x)
    assert reconstruct_matrix(J2_FLOATS, tol=np.float64(1e-7)) == make_jn(2)
    assert reconstruct_matrix([[HALF, HALF], [HALF, HALF]], tol=F(0)) == make_jn(2)
    assert boundary_curves(np.float64(-1), F(1), 1) == boundary_curves(-1.0, 1.0, 1.0)


# ── branches the other tests do not reach ─────────────────────────────────

def _spec(parts):
    n = sum(parts)
    return BlockSpec(Permutation.identity(n), parts, Permutation.identity(n))


@pytest.mark.parametrize("call, error, word", [
    # diagsum
    pytest.param(lambda: diagonal_sum(make_jn(3), (0, 1)), DomainError, "order",
                 id="diagonal_sum-order"),
    pytest.param(lambda: diagonal_sum(make_jn(3), (0, 0, 1)), DomainError, "permutation",
                 id="diagonal_sum-not-a-permutation"),
    pytest.param(lambda: diagonal_sum(make_jn(2), (0, 1.0)), DomainError, "integers",
                 id="diagonal_sum-float"),
    pytest.param(lambda: max_diag_product(make_jn(11)), OrderTooLarge, "product",
                 id="max_diag_product-cap"),
    pytest.param(lambda: permanent(make_jn(21)), OrderTooLarge, "permanent",
                 id="permanent-cap"),
    # explore
    pytest.param(lambda: block_product_probe(_spec((1, 1)), _spec((3,))), DomainError,
                 "mismatch", id="block_product_probe-order"),
    pytest.param(lambda: search_products(13, 2, 1, 0), OrderTooLarge, "product",
                 id="search_products-cap"),
    pytest.param(lambda: sinkhorn([[1.0, 2.0]]), DomainError, "square",
                 id="sinkhorn-not-square"),
    pytest.param(lambda: reconstruct_matrix([[0.5, 0.5], [0.5, 0.5]], tol="0"), DomainError,
                 "tol", id="reconstruct-tol-str"),
    pytest.param(lambda: reconstruct_matrix([[0.5, 0.5], [0.5, 0.5]], tol=-1), DomainError,
                 "tol", id="reconstruct-tol-negative"),
    pytest.param(lambda: reconstruct_matrix([[0.5, 0.5], [0.5, 0.5]], tol=math.nan),
                 DomainError, "tol", id="reconstruct-tol-nan"),
    # the snap itself never refuses: a bad tol only makes it return None, so
    # these rows hold that the tol check comes first, on cells that would not snap
    pytest.param(lambda: reconstruct_matrix(PI_TENTHS, tol=-1), DomainError, "tol",
                 id="snap-tol-negative"),
    pytest.param(lambda: reconstruct_matrix(PI_TENTHS, tol=math.nan), DomainError, "tol",
                 id="snap-tol-nan"),
    pytest.param(lambda: reconstruct_matrix([]), DomainError, "square", id="reconstruct-empty"),
    pytest.param(lambda: reconstruct_matrix([[0.5, 0.5], [1.0]]), DomainError, "square",
                 id="reconstruct-ragged"),
    pytest.param(lambda: reconstruct_matrix([[0.5, 0.5]]), DomainError, "square",
                 id="reconstruct-wide"),
    # ratmat
    pytest.param(lambda: parse_rational("1/0"), ParseError, "zero", id="parse-zero-den"),
    # the grammar reads text only: anything else is off it, not a crash
    pytest.param(lambda: parse_rational(None), ParseError, "not an exact rational: None",
                 id="parse-none"),
    pytest.param(lambda: parse_rational(5), ParseError, "not an exact rational: 5",
                 id="parse-int"),
    pytest.param(lambda: parse_integer(b"5"), ParseError, "not an exact integer: b'5'",
                 id="parse_integer-bytes"),
    pytest.param(lambda: Permutation([1, 0]).compose(I3), DomainError, "size",
                 id="compose-size"),
    pytest.param(lambda: Permutation([0, 1]).compose([5, 5]), DomainError, "permutation",
                 id="compose-not-a-permutation"),
    pytest.param(lambda: perm_matrix((0, 0)), DomainError, "permutation",
                 id="perm_matrix-not-a-permutation"),
    pytest.param(lambda: block_j_form((0, 0), (2,), (0, 1)), DomainError, "permutation",
                 id="block_j_form-not-a-permutation"),
    pytest.param(lambda: make_jn(2) @ 3, TypeError, "unsupported", id="matmul-int"),
    pytest.param(lambda: parse_matrix('{"n": 2}'), ParseError, "rows", id="json-no-rows"),
    pytest.param(lambda: parse_matrix('{"n": 2, "rows": [["1"]]}'), ParseError, "hold",
                 id="json-row-count"),
    pytest.param(lambda: read_matrix(io.StringIO("1,x\n0,1\n")), ParseError, "rational",
                 id="read-stream"),
    # saturation
    pytest.param(lambda: permutation_equivalent(make_jn(2), make_jn(3)), DomainError,
                 "mismatch", id="equivalent-order"),
    pytest.param(lambda: permutation_equivalent(make_jn(9), make_jn(9)), OrderTooLarge,
                 "equivalence", id="equivalent-cap"),
    # weakform
    pytest.param(lambda: solve_w(0, 0, "+"), DomainError, "sign", id="solve_w-sign"),
    pytest.param(lambda: params_to_matrix((0, 0)), DomainError, "triple",
                 id="params_to_matrix-pair"),
    pytest.param(lambda: params_to_matrix((0, 0, 0, 0)), DomainError, "triple",
                 id="params_to_matrix-quadruple"),
    pytest.param(lambda: in_ellipse(4, 0, 0), DomainError, "1, 2, or 3", id="ellipse-index-4"),
    pytest.param(lambda: boundary_curves(0.0, 1.0, 0.0), DomainError, "positive",
                 id="boundary-step-zero"),
    pytest.param(lambda: boundary_curves(0.0, 1.0, -0.1), DomainError, "positive",
                 id="boundary-step-negative"),
    pytest.param(lambda: weak_saturation_check([[F(1)]]), DomainError, "order",
                 id="weak_saturation-order"),
    pytest.param(lambda: weak_saturation_check([[1], [2], [3]]), DomainError, "order",
                 id="weak_saturation-column"),
    pytest.param(lambda: weak_saturation_check([[1, 0, 0], [0, 1], [0, 0, 1]]), DomainError,
                 "order", id="weak_saturation-ragged"),
    pytest.param(lambda: trace_dominant([[1], [2], [3]]), DomainError, "order",
                 id="trace_dominant-column"),
    pytest.param(lambda: trace_dominant([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
                 DomainError, "weak-form parameter", id="trace_dominant-str"),
    pytest.param(lambda: weak_saturation_check([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                                                [0.5, 0.0, 0.5]]),
                 DomainError, "weak-form parameter", id="weak_saturation-float"),
    pytest.param(lambda: trace_dominant([[1, 0, 0], [0, 1, 0, 0], [0, 0, 1]]), DomainError,
                 "order", id="trace_dominant-ragged"),
])
def test_refusal_branches(call, error, word):
    with pytest.raises(error, match=word):
        call()


def test_reconstruct_matrix_returns_none_on_a_non_finite_or_unsnappable_entry():
    assert reconstruct_matrix([[0.5, 0.5], [0.5, 0.5]]) == make_jn(2)
    for bad in (math.nan, math.inf):
        assert reconstruct_matrix([[0.5, 0.5], [0.5, bad]]) is None
    # no convergent of pi / 10 with denominator <= 10^6 is within 1e-15
    x = math.pi / 10
    assert reconstruct_matrix([[x, 1 - x], [1 - x, x]], tol=1e-15) is None


def test_read_matrix_reads_an_open_stream():
    assert read_matrix(io.StringIO("0,1\n1,0\n")) == perm_matrix(Permutation([1, 0]))


def test_diagonal_sum_takes_a_plain_image():
    a = RatMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    for p in (Permutation([2, 0, 1]), (2, 0, 1), [2, 0, 1], np.array([2, 0, 1])):
        assert diagonal_sum(a, p) == 3 + 4 + 8


def test_every_permutation_argument_takes_a_plain_image():
    # one check reads every permutation argument: an image gives what the
    # equal Permutation gives
    p, q = Permutation([2, 0, 1]), Permutation([1, 2, 0])
    for image, other in ((tuple(p), tuple(q)), (list(p), list(q))):
        assert perm_matrix(image) == perm_matrix(p)
        assert block_j_form(image, (1, 2), other) == block_j_form(p, (1, 2), q)
        assert type(p.compose(other)) is Permutation and p.compose(other) == p.compose(q)
        left, right = BlockSpec(image, (1, 2), other), BlockSpec(other, (2, 1), image)
        # a probe echoes its two specs as given; the fields after them agree
        assert (block_product_probe(left, right)[2:]
                == block_product_probe(BlockSpec(p, (1, 2), q), BlockSpec(q, (2, 1), p))[2:])


def test_permutation_equivalent_finds_no_witness_for_equal_multisets():
    # a and its transpose hold the same entries, but every P a Q has two
    # equal rows and the transpose has none
    a = RatMatrix([[F(x, 6) for x in row] for row in [[0, 2, 4], [3, 2, 1], [3, 2, 1]]])
    at = RatMatrix.of_grid(zip(*a.grid), a.den)
    assert sorted(a.entries()) == sorted(at.entries())
    assert permutation_equivalent(a, at) is None
    assert permutation_equivalent(at, a) is None
    assert permutation_equivalent(a, a) is not None


# ── the CLI's refusal lines ───────────────────────────────────────────────

@pytest.mark.parametrize("argv, line", [
    (["products", "--n", "0", "--samples", "1", "--seed", "0"],
     "ds: n must be one of the integers >= 1, got 0"),
    (["probe", "--n", "3", "--samples", "-1", "--seed", "0"],
     "ds: samples must be one of the integers >= 0, got -1"),
    (["canonical", "--name", "Jn:0"],
     "ds: the order of J_n must be one of the integers >= 1, got 0"),
    (["canonical", "--name", "Tn:1"],
     "ds: the order of T_n must be one of the integers >= 2, got 1"),
])
def test_cli_reports_the_rule_on_one_line(argv, line):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert dstoch.cli.main(argv) == 1
    assert out.getvalue() == "" and err.getvalue() == line + "\n"


# ── the text grammar ──────────────────────────────────────────────────────

def _ds(argv):
    """(exit code, stdout, stderr) of one `ds` run; argparse's usage errors
    exit through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = dstoch.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_ARABIC_HALF = '{"rows":[["\u0661/\u0662","1/2"],["1/2","1/2"]]}'


@pytest.mark.parametrize("argv", [
    ["canonical", "--name", "Jn:1_0"],
    ["canonical", "--name", "Tn:\u0663"],
    ["canonical", "--name", "Jn:3/1"],
    ["products", "--n", "1_2", "--samples", "0", "--seed", "0"],
    ["products", "--n", "3", "--samples", "0", "--seed", "0_1"],
    ["probe", "--n", "3", "--samples", "\u0663", "--seed", "0"],
    ["products", "--n", "3", "--samples", "0", "--seed", "0", "--max-parts", "4_0"],
    ["enumerate", "--denominator", " 1_2"],
    ["enumerate", "--denominator", "2", "--zero-cell", "0,1_0"],
    ["enumerate", "--denominator", "2", "--zero-cell", "0,\u0661"],
    ["region", "--u", "\u0663/\u0665", "--v", "0"],
    ["check", _ARABIC_HALF],
    ["probe", "--n", "3", "--samples", "1", "--seed", "0", "--tol", "1e-9"],
], ids=["jn-underscore", "tn-arabic", "jn-slash", "n-underscore", "seed-underscore",
        "samples-arabic", "max-parts-underscore", "denominator-blank-underscore",
        "zero-cell-underscore", "zero-cell-arabic", "u-arabic", "entry-arabic",
        "tol-gone"])
def test_ds_refuses_every_number_off_the_grammar(tmp_path, argv):
    if argv[0] == "check":
        path = tmp_path / "m.json"
        path.write_text(argv[1], encoding="utf-8")
        argv = ["check", str(path)]
    code, out, err = _ds(argv)
    assert code == 2 and out == ""
    assert err.splitlines()[-1].startswith("ds")


@pytest.mark.parametrize("flag, text", [("--n", "1_2"), ("--seed", "0_1")])
def test_integer_option_usage_error_names_the_grammar(flag, text):
    options = {"--n": "3", "--samples": "0", "--seed": "0", flag: text}
    code, out, err = _ds(["products", *(word for pair in options.items() for word in pair)])
    assert (code, out) == (2, "") and err.startswith("usage: ds products")
    assert err.splitlines()[-1] == (
        f"ds products: error: argument {flag}: not an exact integer: {text!r}")


@pytest.mark.parametrize("blank", ["\u2003", "\u3000", "\u00a0"])
def test_only_ascii_blanks_are_stripped(tmp_path, blank):
    entry, n = f"{blank}1/2{blank}", f"{blank}3{blank}"
    path = tmp_path / "m.csv"
    path.write_text(f"1/2,{entry}\n1/2,1/2\n", encoding="utf-8")
    assert _ds(["check", str(path)]) == (
        2, "", f"ds: parse error: not an exact rational: {entry!r} at line 1, column 2\n")
    code, out, err = _ds(["products", "--n", n, "--samples", "0", "--seed", "0"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == (
        f"ds products: error: argument --n: not an exact integer: {n!r}")


@pytest.mark.parametrize("text, line, col, cell", [
    ("1/2,1/2\u20281/2,1/2\n", 1, 2, "1/2\u20281/2"),
    ("1/2,1/2\x1c1/2,1/2\n", 1, 2, "1/2\x1c1/2"),
    ("1/2,1/2\x1d1/2,1/2\n", 1, 2, "1/2\x1d1/2"),
    ("1/2,1/2\x1e1/2,1/2\n", 1, 2, "1/2\x1e1/2"),
    ("1/2,1/2\x851/2,1/2\n", 1, 2, "1/2\x851/2"),
    ("1/2,1/2\n\u3000\n1/2,1/2\n", 2, 1, "\u3000"),
], ids=["U+2028", "x1c", "x1d", "x1e", "x85", "U+3000-line"])
def test_csv_lines_end_only_at_newline(tmp_path, text, line, col, cell):
    # Unicode line breaks join rows, and a line of non-ASCII blanks is a row
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8")
    assert _ds(["check", str(path)]) == (
        2, "", f"ds: parse error: not an exact rational: {cell!r} at line {line}, column {col}\n")


def test_csv_reads_crlf_and_skips_ascii_blank_lines():
    half = RatMatrix([[F(1, 2)] * 2] * 2)
    assert parse_matrix("1/2,1/2\r\n \t\v\f\r\n1/2, 1/2\r\n") == half
    with pytest.raises(ParseError, match="at line 3, column 1"):
        parse_matrix("1/2,1/2\r\n\r\n\u20021/2,1/2\r\n")


@pytest.mark.parametrize("argv, plain", [
    (["products", "--n", "+3", "--samples", " 2 ", "--seed", "-5", "--max-parts", "+2"],
     ["products", "--n", "3", "--samples", "2", "--seed", "-5", "--max-parts", "2"]),
    (["probe", "--n", " 3 ", "--samples", "+6", "--seed", "-24"],
     ["probe", "--n", "3", "--samples", "6", "--seed", "-24"]),
    (["canonical", "--name", "Jn:+3"], ["canonical", "--name", "Jn:3"]),
    (["canonical", "--name", "Tn: 4 "], ["canonical", "--name", "Tn:4"]),
    (["enumerate", "--denominator", " +6 ", "--zero-cell", " 1 ,+0"],
     ["enumerate", "--denominator", "6", "--zero-cell", "1,0"]),
])
def test_ds_accepted_spellings_keep_their_bytes(argv, plain):
    code, out, err = _ds(argv)
    assert (code, out, err) == _ds(plain) and code == 0 and out


def test_negative_seed_is_echoed():
    code, out, _ = _ds(["products", "--n", "3", "--samples", "1", "--seed", "-5"])
    assert code == 0 and '"seed":-5' in out


# text holding a digit-group underscore or a digit outside ASCII, anywhere:
# Python's int() reads both in numbers, the grammar neither
_OFF_GRAMMAR = st.tuples(
    st.text(max_size=4),
    st.just("_") | st.characters(categories=["Nd"]).filter(lambda c: c not in "0123456789"),
    st.text(max_size=4),
).map("".join)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(st.integers(), st.fractions(), _OFF_GRAMMAR)
def test_grammar_round_trips_and_refuses(k, q, text):
    assert parse_integer(str(k)) == k
    assert parse_rational(str(q)) == q
    for parse in (parse_integer, parse_rational):
        with pytest.raises(ParseError):
            parse(text)
