"""Types, constructors, validation, and serialization."""

import copy
import json
import pickle
import re
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import dstoch.ratmat
from dstoch import (
    CANONICAL_TAGS,
    ColSumMismatch,
    DomainError,
    DoublyStochastic,
    NegativeEntry,
    ParseError,
    Permutation,
    RatMatrix,
    RowSumMismatch,
    SplitMix64,
    all_permutations,
    block_j_form,
    canonical,
    direct_sum,
    enumerate_grid,
    make_jn,
    make_tn,
    marcus_ree_gap,
    parse_matrix,
    parse_rational,
    perm_matrix,
    random_ds,
    validate_ds,
)
from dstoch.ratmat import _BLANKS, matrix_payload


def write_matrix(m):
    """Serialize a matrix to the canonical JSON form.

    Byte-stable: {"n":3,"rows":[["3/5","0","2/5"],...]} with entries as
    exact fraction strings.  read_matrix(write_matrix(m)) == m exactly.
    """
    return json.dumps(matrix_payload(m), separators=(",", ":"))


S_ROWS = [[0, F(1, 2), F(1, 2)],
          [F(1, 2), F(1, 4), F(1, 4)],
          [F(1, 2), F(1, 4), F(1, 4)]]


# ── validation ────────────────────────────────────────────────────────────

def test_validate_j3():
    validate_ds(make_jn(3))


def test_validate_s():
    m = validate_ds(RatMatrix(S_ROWS))
    assert m[0, 1] == F(1, 2)


def test_validate_col_mismatch():
    bad = RatMatrix([[F(1, 2), F(1, 2), 0],
                     [F(1, 2), F(1, 2), 0],
                     [0, 0, F(1, 2)]])
    with pytest.raises(ColSumMismatch) as exc:
        validate_ds(bad)
    assert exc.value.j == 2 and exc.value.actual == F(1, 2)


def test_validate_negative_entry():
    bad = RatMatrix([[F(3, 2), F(-1, 2)], [F(-1, 2), F(3, 2)]])
    with pytest.raises(NegativeEntry):
        validate_ds(bad)


def test_validate_row_mismatch():
    bad = RatMatrix([[F(1, 2), F(1, 4)], [F(1, 2), F(3, 4)]])
    with pytest.raises(RowSumMismatch):
        validate_ds(bad)


def test_scaled_is_the_integer_grid():
    s = RatMatrix(S_ROWS)
    grid, den = s.grid, s.den
    assert den == 4
    assert grid == [[0, 2, 2], [2, 1, 1], [2, 1, 1]]
    m = random_ds(5, 7, seed=11)
    grid, den = m.grid, m.den
    assert den == lcm(*(x.denominator for x in m.entries()))
    assert all(F(g, den) == x for g_row, row in zip(grid, m.rows)
               for g, x in zip(g_row, row))


def test_gap_decision_scales_once(monkeypatch):
    calls = []

    def counting_lcm(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(dstoch.ratmat, "lcm", counting_lcm)
    rows = random_ds(6, 9, seed=12).rows
    report = marcus_ree_gap(validate_ds(RatMatrix(rows)))
    # one lcm per decision, over each distinct entry denominator once
    distinct = {x.denominator for row in rows for x in row}
    assert len(calls) == 1 and sorted(calls[0]) == sorted(distinct) and len(distinct) > 1
    assert report == marcus_ree_gap(RatMatrix(rows))


def _reference_check_ds(m):
    """The Fraction check: signs row-major, then column sums, then row
    sums, each summed as Fractions."""
    for i, row in enumerate(m.rows):
        for j, x in enumerate(row):
            if x < 0:
                raise NegativeEntry(i, j, x)
    for j in range(m.n):
        s = sum(m.rows[i][j] for i in range(m.n))
        if s != 1:
            raise ColSumMismatch(j, s)
    for i, row in enumerate(m.rows):
        s = sum(row)
        if s != 1:
            raise RowSumMismatch(i, s)


def _check_outcome(check, m):
    """None, or the exception's type, typed fields and message."""
    try:
        check(m)
    except DomainError as exc:
        fields = {k: (type(v), v) for k, v in vars(exc).items()}
        return type(exc), fields, str(exc)
    return None


def _validation_inputs():
    """(kind, matrix): seeded DS matrices, some broken on purpose."""
    rng = SplitMix64(0xC4EC)
    for _ in range(400):
        n = rng.randint(2, 6)
        a = [list(row) for row in
             random_ds(n, rng.randint(1, 2 * n), seed=rng.next64()).rows]
        i, j = rng.below(n), rng.below(n)
        i2, j2 = (i + 1 + rng.below(n - 1)) % n, (j + 1 + rng.below(n - 1)) % n
        d = F(rng.randint(1, 9), rng.randint(1, 9))
        kind = ("valid", "negative", "columns", "rows", "both")[rng.below(5)]
        if kind == "negative":
            # a 2 x 2 exchange that keeps every sum and drives a[i][j] below 0
            t = a[i][j] + d
            a[i][j] -= t
            a[i2][j2] -= t
            a[i][j2] += t
            a[i2][j] += t
        elif kind == "columns":
            # mass moved along row i: row sums hold, columns j and j2 break
            t = a[i][j2] * d / (d + 1)
            a[i][j2] -= t
            a[i][j] += t
        elif kind == "rows":
            t = a[i2][j] * d / (d + 1)
            a[i2][j] -= t
            a[i][j] += t
        elif kind == "both":
            a[i][j] += d
        yield kind, RatMatrix(a)


def test_validate_matches_fraction_reference():
    seen = set()
    for kind, m in _validation_inputs():
        outcome = _check_outcome(validate_ds, m)
        assert outcome == _check_outcome(_reference_check_ds, m), (kind, m)
        name = None if outcome is None else outcome[0].__name__
        seen.add((kind, name))
        if kind == "both":
            assert name == "ColSumMismatch"
    assert {name for _, name in seen} == {None, "NegativeEntry",
                                          "ColSumMismatch", "RowSumMismatch"}
    assert ("columns", "ColSumMismatch") in seen
    assert ("rows", "RowSumMismatch") in seen


# ── constructors ──────────────────────────────────────────────────────────

def test_make_jn():
    assert make_jn(1).rows == ((F(1),),)
    assert all(x == F(1, 3) for x in make_jn(3).entries())
    assert all(x == F(1, 4) for x in make_jn(4).entries())


def test_make_tn():
    assert make_tn(2).rows == ((F(0), F(1)), (F(1), F(0)))
    from dstoch import canonical
    assert make_tn(3) == canonical("T")
    t4 = make_tn(4)
    assert all(t4[i, i] == 0 for i in range(4))
    assert all(t4[i, j] == F(1, 3) for i in range(4) for j in range(4) if i != j)
    with pytest.raises(DomainError):
        make_tn(1)


def test_make_tn_diagonal_and_row_sums_up_to_64():
    for n in range(2, 65):
        t = make_tn(n)
        assert all(t[i, i] == 0 for i in range(n))
        assert all(sum(row) == 1 for row in t.rows)


def test_direct_sum():
    m = direct_sum(make_jn(1), make_jn(2))
    assert m.rows == ((F(1), 0, 0),
                      (0, F(1, 2), F(1, 2)),
                      (0, F(1, 2), F(1, 2)))
    assert direct_sum(make_jn(1), make_jn(1)).rows == ((1, 0), (0, 1))
    validate_ds(direct_sum(make_jn(1), make_jn(3)))  # left factor of D


def test_perm_matrix():
    assert perm_matrix(Permutation.identity(3)).rows == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1))
    # the cycle 0->2, 1->0, 2->1
    assert perm_matrix(Permutation([2, 0, 1])).rows == (
        (0, 0, 1), (1, 0, 0), (0, 1, 0))
    # the transposition of 0 and 1
    assert perm_matrix(Permutation([1, 0, 2])).rows == (
        (0, 1, 0), (1, 0, 0), (0, 0, 1))


def test_perm_matrix_respects_composition():
    rng = SplitMix64(7)
    for _ in range(50):
        p = Permutation.random(4, rng)
        q = Permutation.random(4, rng)
        assert perm_matrix(p.compose(q)) == validate_ds(
            perm_matrix(p) @ perm_matrix(q))


def test_permutation_inverse_and_order():
    p = Permutation([2, 0, 1])
    assert p.compose(p.inverse()) == Permutation.identity(3)
    assert sorted(all_permutations(3)) == list(all_permutations(3))


def test_permutation_validates_public_input_only():
    # non-integer entries are refused, not truncated or parsed
    for image in ([0, 0], [1, 2], [-1, 0], [0.9, 1.2], [1.0, 0.0], ["1", "0"],
                  [True, False], [F(1), 0]):
        with pytest.raises(DomainError):
            Permutation(image)
    np = pytest.importorskip("numpy")
    assert Permutation(np.array([1, 0])) == Permutation([np.int64(1), 0]) == (1, 0)
    assert all(type(i) is int for i in Permutation(np.arange(3)))
    # the unchecked internal paths build what the checked constructor builds
    rng = SplitMix64(41)
    for n in range(1, 6):
        for p in all_permutations(n):
            assert p == Permutation(p.image) and type(p.image) is tuple
        for _ in range(20):
            p, q = Permutation.random(n, rng), Permutation.random(n, rng)
            for r in (p.compose(q), p.inverse(), Permutation.identity(n)):
                assert r == Permutation(list(r)) and type(r.image) is tuple
            assert p.compose(q).image == tuple(q(p(i)) for i in range(n))
            assert p.compose(p.inverse()) == Permutation(range(n))


def test_block_j_form_identity_parts():
    assert block_j_form(Permutation.identity(3), [3],
                        Permutation.identity(3)) == make_jn(3)


def test_block_j_form_s_factorization_right_factor():
    # row-cycled J_1 ⊕ J_2 gives the right factor of S = (I1⊕J2) @ (this)
    right = block_j_form(Permutation([2, 0, 1]), [1, 2], Permutation.identity(3))
    assert right.rows == ((0, F(1, 2), F(1, 2)),
                          (1, 0, 0),
                          (0, F(1, 2), F(1, 2)))
    left = block_j_form(Permutation.identity(3), [1, 2], Permutation.identity(3))
    assert validate_ds(left @ right) == validate_ds(RatMatrix(S_ROWS))


def test_block_j_form_j2_plus_j2():
    m = block_j_form(Permutation.identity(4), [2, 2], Permutation.identity(4))
    assert m == direct_sum(make_jn(2), make_jn(2))


def test_block_j_form_size_mismatch():
    with pytest.raises(DomainError):
        block_j_form(Permutation.identity(3), [1, 3], Permutation.identity(3))


def test_block_j_form_always_ds():
    rng = SplitMix64(11)
    for _ in range(100):
        n = rng.randint(2, 8)
        parts = []
        left = n
        while left:
            k = rng.randint(1, left)
            parts.append(k)
            left -= k
        m = block_j_form(Permutation.random(n, rng), parts,
                         Permutation.random(n, rng))
        validate_ds(m)


# ── seeded randomness ─────────────────────────────────────────────────────

def test_random_ds_is_ds_and_deterministic():
    a = random_ds(5, 4, seed=12345)
    b = random_ds(5, 4, seed=12345)
    assert a == b
    validate_ds(a)


def test_random_ds_single_term_is_permutation_matrix():
    m = random_ds(4, 1, seed=99)
    assert sorted(m.entries()) == [0] * 12 + [1] * 4


def test_splitmix_reference_values():
    # first outputs for seed 0; pins the generator across platforms
    rng = SplitMix64(0)
    assert [rng.next64() for _ in range(3)] == [
        16294208416658607535, 7960286522194355700, 487617019471545679]


# ── serialization ─────────────────────────────────────────────────────────

def test_parse_rational():
    assert parse_rational("3/5") == F(3, 5)
    assert parse_rational("0") == 0
    assert parse_rational("-7/2") == F(-7, 2)
    for bad in ("0.5", "1e-3", "3 / 5", "", "x"):
        with pytest.raises(ParseError):
            parse_rational(bad)


# the number grammar as it was read by a regex, kept as the oracle of the
# string checks that replaced it in `dstoch.ratmat`

# the one grammar of every exact number `ds` reads: an optional sign, ASCII
# digits (`\d` would take any Unicode digit) and an optional "/q"
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_ratio(text, integer=False):
    """(p, q) of "p/q" or an integer string, q > 0 and not reduced, with
    surrounding ASCII blanks stripped; with integer, "/q" is refused too.
    Decimals are rejected: the formats are exact, "0.5" ambiguous in intent."""
    what, text = "integer" if integer else "rational", text.strip(_BLANKS)
    match = _RATIONAL_RE.fullmatch(text)
    if not match or integer and match[1]:
        raise ParseError(f"not an exact {what}: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"{what} too long: {len(text)} characters") from None
    if den == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return num, den


def _parse_outcome(parse, text, integer):
    try:
        return parse(text, integer)
    except ParseError as exc:
        return str(exc)


_DIGITS = "1" * 5000   # past the interpreter's int() digit limit
# "²" is a str.isdigit() digit that int() refuses, "٣" and "１" digits int() reads
_NUMBER_CORPUS = ["+3", " 3 ", "-0/5", "5/", "/2", "5//2", "+-1", "1_0", "٣", "²",
                  "１", "1　2", "1/0", _DIGITS, f"-{_DIGITS}/7", f"3/{_DIGITS}",
                  f"{_DIGITS}/{_DIGITS}", "3/5", "\t-12/08\n", "0/0", "", " ", "+", "-/1"]


@pytest.mark.parametrize("integer", [False, True], ids=["rational", "integer"])
def test_number_grammar_matches_the_regex_oracle_on_a_corpus(integer):
    for text in _NUMBER_CORPUS:
        assert (_parse_outcome(dstoch.ratmat._parse_ratio, text, integer)
                == _parse_outcome(_parse_ratio, text, integer)), text


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(st.text(alphabet="0123456789+-/ _\t\n٣²１　 x.", max_size=12),
       st.booleans())
def test_number_grammar_matches_the_regex_oracle(text, integer):
    assert (_parse_outcome(dstoch.ratmat._parse_ratio, text, integer)
            == _parse_outcome(_parse_ratio, text, integer))


def test_round_trip_exact():
    rng = SplitMix64(3)
    for _ in range(25):
        m = random_ds(rng.randint(1, 6), rng.randint(1, 5), seed=rng.next64())
        assert parse_matrix(write_matrix(m)) == m


def test_write_matrix_is_byte_stable():
    m = RatMatrix([[F(3, 5), 0, F(2, 5)],
                   [0, F(3, 5), F(2, 5)],
                   [F(2, 5), F(2, 5), F(1, 5)]])
    expected = ('{"n":3,"rows":[["3/5","0","2/5"],["0","3/5","2/5"],'
                '["2/5","2/5","1/5"]]}')
    assert write_matrix(m) == expected


def test_parse_csv_variant():
    text = "3/5,0,2/5\n0,3/5,2/5\n2/5,2/5,1/5\n"
    m = parse_matrix(text)
    assert m[0, 0] == F(3, 5) and m[2, 2] == F(1, 5)


def test_parse_rejects_decimals_with_position():
    with pytest.raises(ParseError) as exc:
        parse_matrix("1/2,0.5\n1/2,1/2\n")
    assert exc.value.line == 1 and exc.value.col == 2


def test_parse_bad_json_reports_location():
    with pytest.raises(ParseError):
        parse_matrix('{"n":2,"rows":[["1","0"],["0","1"]')


# ── pickling and copying ──────────────────────────────────────────────────

@pytest.mark.parametrize("value", [
    canonical("S"), RatMatrix([[1, 2], [F(-1, 3), 0]]), random_ds(4, 3, seed=1),
    enumerate_grid(12)], ids=["S", "not-ds", "random-ds", "census"])
def test_pickle_and_copy_round_trip(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert clone == value and type(clone) is type(value)
        assert repr(clone) == repr(value)
        if isinstance(clone, RatMatrix):
            with pytest.raises(AttributeError):
                clone.rows = ()


def test_unpickled_doubly_stochastic_is_revalidated(monkeypatch):
    data = pickle.dumps(canonical("S"))
    checked = []
    monkeypatch.setattr(dstoch.ratmat, "_check_ds", checked.append)
    assert pickle.loads(data) == canonical("S")
    assert checked == [canonical("S")]


# ── the integer grid ──────────────────────────────────────────────────────

@pytest.mark.parametrize("bad", [0.5, float("nan"), float("inf"), True, "1/2", None],
                         ids=["float", "nan", "inf", "bool", "str", "none"])
def test_ratmat_refuses_entries_that_are_not_exact_rationals(bad):
    with pytest.raises(DomainError):
        RatMatrix([[bad, 0], [0, 1]])


def test_ratmat_intake_matches_the_per_entry_path():
    # entries of exactly Fraction or int are read as they are, any other
    # entry through `_ratio`; one lcm over the distinct denominators scales them all
    from dstoch.ratmat import _of_ratios, _ratio

    class Half(F):
        pass

    rng = SplitMix64(31)
    for _ in range(40):
        n = rng.randint(1, 7)
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 12)) if rng.below(3)
                 else rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        slow = _of_ratios(RatMatrix, [[_ratio(x) for x in row] for row in rows])
        m = RatMatrix(rows)
        assert (m.grid, m.den) == (slow.grid, slow.den)
        assert all(type(x) is int for row in m.grid for x in row)
        rows[0][0] = Half(rows[0][0])
        assert RatMatrix(rows) == slow
    with pytest.raises(DomainError, match="square"):
        RatMatrix([[F(1, 2), F(1, 2), 0], [1]])


def test_ratmat_stores_numpy_integers_as_python_ints():
    np = pytest.importorskip("numpy")
    m = RatMatrix(np.eye(2, dtype=np.int64))
    assert m == RatMatrix([[1, 0], [F(0), F(2, 2)]]) == perm_matrix(Permutation.identity(2))
    assert all(type(x) is int for row in m.grid for x in row)


def _grid_cases():
    """(name, matrix) built by every constructor, several of them on
    purpose over a denominator that is not in lowest terms."""
    from dstoch import matrix_to_params, params_to_matrix
    rng = SplitMix64(21)
    p, q = Permutation.random(6, rng), Permutation.random(6, rng)
    yield "of_grid", RatMatrix.of_grid([[2, 6], [4, 0]], 12)
    yield "of_grid-ds", DoublyStochastic.of_grid([[3, 3], [3, 3]], 6)
    yield "parse", parse_matrix("2/4,2/4\n6/12,3/6\n")
    yield "parse-json", parse_matrix('{"n":2,"rows":[["4/6","1/3"],["2/6","2/3"]]}')
    yield "matmul-j3", make_jn(3) @ make_jn(3)
    yield "matmul", random_ds(4, 3, seed=5) @ random_ds(4, 2, seed=6)
    a = random_ds(5, 4, seed=7)
    yield "transpose", RatMatrix.of_grid(zip(*a.grid), a.den)
    yield "direct-sum", direct_sum(make_jn(2), make_jn(4))
    yield "direct-sum-rat", direct_sum(RatMatrix([[F(1, 6)]]), make_jn(4))
    yield "block-j", block_j_form(p, [2, 4], q)
    yield "validate", validate_ds(RatMatrix(S_ROWS))
    for seed in range(8):
        yield f"random-{seed}", random_ds(1 + seed % 5, 1 + seed, seed=seed)
    for n in (1, 2, 3, 6):
        yield f"jn-{n}", make_jn(n)
    for n in (2, 3, 6):
        yield f"tn-{n}", make_tn(n)
    yield "perm", perm_matrix(p)
    for m, _ in enumerate_grid(12).saturating[::7]:
        yield "census", m
    yield "params", params_to_matrix(matrix_to_params(canonical("R")))
    yield "pickle", pickle.loads(pickle.dumps(random_ds(4, 4, seed=8)))


def test_every_constructor_stores_one_canonical_grid():
    for name, m in _grid_cases():
        fresh = RatMatrix(m.rows)
        assert m == fresh and hash(m) == hash(fresh), name
        assert (m.grid, m.den) == (fresh.grid, fresh.den), name
        assert m.den == lcm(*(x.denominator for x in m.entries())), name
        assert all(F(g, m.den) == x for g_row, row in zip(m.grid, m.rows)
                   for g, x in zip(g_row, row)), name
    j3 = make_jn(3)
    assert RatMatrix(j3.rows) == j3 == RatMatrix.of_grid([[5] * 3] * 3, 15)
    assert hash(RatMatrix(j3.rows)) == hash(j3)
    assert type(RatMatrix(j3.rows)) is RatMatrix and type(validate_ds(j3)) is type(j3)


def test_of_grid_refuses_a_ragged_grid_or_a_denominator_below_one():
    for grid, den in (([[1, 0]], 1), ([[1, 0], [0]], 1), ([[1]], 0), ([[1]], -1)):
        with pytest.raises(DomainError):
            RatMatrix.of_grid(grid, den)
    with pytest.raises(ColSumMismatch):
        DoublyStochastic.of_grid([[2, 0], [2, 0]], 2)


def test_to_floats_matches_float_of_each_entry_bit_for_bit():
    cases = [random_ds(n, k, seed=1000 * n + k) for n in range(3, 9) for k in (1, 3, n, 2 * n)]
    cases += [canonical(tag) for tag in CANONICAL_TAGS]
    for m in cases:
        floats = [[x.hex() for x in row] for row in m.to_floats()]
        assert floats == [[float(x).hex() for x in row] for row in m.rows], m


def test_doubly_stochastic_carries_no_instance_dict():
    assert not hasattr(make_jn(3), "__dict__")
    assert not hasattr(RatMatrix([[1]]), "__dict__")
