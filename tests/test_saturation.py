"""The order-3 saturation classifier, permutation equivalence, and the
gap's decision at order 2 against its closed form."""

import itertools
import json
from fractions import Fraction as F

import pytest

import dstoch.cli
import dstoch.saturation
from dstoch import (
    CANONICAL_TAGS,
    Classification,
    DomainError,
    Permutation,
    RatMatrix,
    SplitMix64,
    all_permutations,
    canonical,
    classify3,
    diagonal_sum,
    frobenius_sq,
    make_jn,
    marcus_ree_gap,
    max_trace_brute,
    perm_matrix,
    permutation_equivalent,
    random_ds,
    validate_ds,
)
from dstoch.ratmat import matrix_payload

S = canonical("S")
T = canonical("T")
R = canonical("R")


def _two_by_two(t):
    return validate_ds(RatMatrix([[t, 1 - t], [1 - t, t]]))


# ── order 2: Marcus and Ree's closed form, the oracle for the gap ─────────

def classify2(a):
    """Order-2 saturation: true iff a[0,0] is 0, 1/2, or 1.

    Input that is not doubly stochastic is refused (validate_ds raises).
    """
    if a.n != 2:
        raise DomainError(f"classify2 needs order 2, got {a.n}")
    a = validate_ds(a)
    return 2 * a.grid[0][0] in (0, a.den, 2 * a.den)


def _order2_inputs():
    """[[t, 1 - t], [1 - t, t]] for t = k/d, d <= 12 and -1 <= k <= d + 1:
    every doubly stochastic one on the grid and one step past each end."""
    return [RatMatrix([[t, 1 - t], [1 - t, t]])
            for d in range(1, 13) for t in sorted({F(k, d) for k in range(-1, d + 2)})]


def test_gap_decides_order_2_as_the_closed_form():
    for m in _order2_inputs():
        try:
            expected = classify2(m)
        except DomainError:
            continue
        assert marcus_ree_gap(m).saturated is expected, m


def test_ds_classify_prints_the_closed_form_at_order_2(capsys, tmp_path):
    path = tmp_path / "m.json"
    refused = 0
    for m in _order2_inputs():
        path.write_text(json.dumps(matrix_payload(m)))
        try:
            saturated = json.dumps({"saturated": classify2(m)}, separators=(",", ":"))
            expected = (0, saturated + "\n", "")
        except DomainError as exc:
            expected, refused = (1, "", f"ds: {exc}\n"), refused + 1
        code = dstoch.cli.main(["classify", str(path)])
        assert (code, *capsys.readouterr()) == expected, m
    assert refused == 2 * 12


def test_canonical_representatives():
    assert canonical("T").rows == ((0, F(1, 2), F(1, 2)),
                                   (F(1, 2), 0, F(1, 2)),
                                   (F(1, 2), F(1, 2), 0))
    assert canonical("R").rows == ((F(3, 5), 0, F(2, 5)),
                                   (0, F(3, 5), F(2, 5)),
                                   (F(2, 5), F(2, 5), F(1, 5)))
    assert canonical("J3") == make_jn(3)
    with pytest.raises(DomainError):
        canonical("X")


def test_permutation_equivalent_reflexive():
    assert permutation_equivalent(S, S) == (
        Permutation.identity(3), Permutation.identity(3))


def test_permutation_equivalent_row_swap():
    swapped = validate_ds(RatMatrix([S.rows[1], S.rows[0], S.rows[2]]))
    p, q = permutation_equivalent(swapped, S)
    assert p == Permutation([1, 0, 2]) and q == Permutation.identity(3)
    assert validate_ds(perm_matrix(p) @ swapped @ perm_matrix(q)) == S


def test_permutation_equivalent_absent():
    assert permutation_equivalent(S, T) is None


def test_representatives_pairwise_inequivalent():
    for i, a in enumerate(CANONICAL_TAGS):
        for b in CANONICAL_TAGS[i + 1:]:
            assert permutation_equivalent(canonical(a), canonical(b)) is None


def test_classify3_r():
    c = classify3(R)
    assert c.saturated and c.form == "R"
    assert c.witness == (Permutation.identity(3), Permutation.identity(3))


def test_classify3_case1_matrix_is_s():
    # the minus-sign solution at (u, v) = (0, -1)
    m = validate_ds(RatMatrix([[F(1, 2), F(1, 4), F(1, 4)],
                               [0, F(1, 2), F(1, 2)],
                               [F(1, 2), F(1, 4), F(1, 4)]]))
    c = classify3(m)
    assert c.saturated and c.form == "S"
    p, q = c.witness
    assert validate_ds(perm_matrix(p) @ m @ perm_matrix(q)) == S


def test_classify3_positive_non_j3():
    m = validate_ds(RatMatrix([[F(1, 2), F(1, 4), F(1, 4)],
                               [F(1, 4), F(1, 2), F(1, 4)],
                               [F(1, 4), F(1, 4), F(1, 2)]]))
    c = classify3(m)
    assert not c.saturated
    assert c.form is None and c.witness is None
    # the separator certifies the strict gap
    assert diagonal_sum(m, c.separator) == max_trace_brute(m).max_value
    assert diagonal_sum(m, c.separator) > frobenius_sq(m)


def test_classify3_wrong_order():
    with pytest.raises(DomainError):
        classify3(make_jn(4))


def test_classify2():
    for t, saturated in ((F(1, 2), True), (F(1), True), (F(0), True), (F(1, 4), False)):
        assert classify2(_two_by_two(t)) is saturated
        assert marcus_ree_gap(_two_by_two(t)).saturated is saturated


def test_classify3_matches_gap_oracle_on_canonical_orbits():
    for tag in CANONICAL_TAGS:
        rep = canonical(tag)
        for p in all_permutations(3):
            for q in all_permutations(3):
                m = validate_ds(perm_matrix(p) @ rep @ perm_matrix(q))
                c = classify3(m)
                assert c.saturated
                assert marcus_ree_gap(m).saturated
                wp, wq = c.witness
                assert validate_ds(perm_matrix(wp) @ m @ perm_matrix(wq)) \
                    == canonical(c.form)


def test_classify3_matches_gap_oracle_on_random_matrices():
    # two fully independent routes: canonical-list equivalence vs the
    # exact equality frob^2 == max_tr
    rng = SplitMix64(404)
    for _ in range(10 ** 5):
        a = random_ds(3, rng.randint(1, 6), seed=rng.next64())
        assert classify3(a).saturated == marcus_ree_gap(a).saturated


def test_classification_is_permutation_invariant():
    rng = SplitMix64(405)
    for _ in range(200):
        a = random_ds(3, rng.randint(1, 4), seed=rng.next64())
        p = perm_matrix(Permutation.random(3, rng))
        q = perm_matrix(Permutation.random(3, rng))
        b = validate_ds(p @ a @ q)
        ca, cb = classify3(a), classify3(b)
        assert ca.saturated == cb.saturated
        assert ca.form == cb.form


def test_classify_refuses_non_doubly_stochastic_input():
    # 2 I3 has diagonal sum 6 < 12 = frob_sq: a separator would be false
    with pytest.raises(DomainError):
        classify3(RatMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]]))
    with pytest.raises(DomainError):
        classify2(RatMatrix([[0, 5], [7, 0]]))


# ── reference: the six-tag scan with a brute-force separator ─────────────

def _reference_classify3(a):
    for tag in CANONICAL_TAGS:
        witness = permutation_equivalent(a, canonical(tag))
        if witness is not None:
            return Classification(True, form=tag, witness=witness)
    return Classification(False, separator=max_trace_brute(a).argmax)


def _grid_points(d):
    """Every doubly stochastic 3 x 3 matrix with entries in (1/d) Z."""
    for x11, x12, x21, x22 in itertools.product(range(d + 1), repeat=4):
        cells = [[x11, x12, d - x11 - x12],
                 [x21, x22, d - x21 - x22],
                 [d - x11 - x21, d - x12 - x22, x11 + x12 + x21 + x22 - d]]
        if min(min(row) for row in cells) >= 0:
            yield validate_ds(RatMatrix([[F(x, d) for x in row] for row in cells]))


def test_canonical_entry_multisets_are_pairwise_distinct():
    keys = {tuple(sorted(canonical(tag).entries())) for tag in CANONICAL_TAGS}
    assert len(keys) == len(CANONICAL_TAGS)


def test_classify3_matches_reference_on_grid_and_orbits():
    inputs = [m for d in range(1, 9) for m in _grid_points(d)]
    inputs += [validate_ds(perm_matrix(p) @ canonical(tag) @ perm_matrix(q))
               for tag in CANONICAL_TAGS
               for p in all_permutations(3) for q in all_permutations(3)]
    for m in inputs:
        assert classify3(m) == _reference_classify3(m)


def test_classify3_decides_without_searching(monkeypatch):
    def no_search(a, b):
        raise AssertionError("classify3 called permutation_equivalent")

    members = {perm_matrix(p) @ canonical(tag) @ perm_matrix(q)
               for tag in CANONICAL_TAGS
               for p in all_permutations(3) for q in all_permutations(3)}
    assert len(members) == 49
    monkeypatch.setattr(dstoch.saturation, "permutation_equivalent", no_search)
    assert all(classify3(m).saturated for m in members)
    assert not classify3(random_ds(3, 5, seed=7)).saturated
