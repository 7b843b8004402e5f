"""Frobenius norm squared, maximal trace (both routes), diagonal products,
permanent, and the gap report."""

import functools
import itertools
import math
import operator
import sys
import threading
from fractions import Fraction as F

import pytest

from dstoch import (
    OrderTooLarge,
    Permutation,
    block_j_form,
    RatMatrix,
    SplitMix64,
    all_permutations,
    canonical,
    diagonal_sum,
    direct_sum,
    frobenius_sq,
    make_jn,
    make_tn,
    marcus_ree_gap,
    max_diag_product,
    max_trace_assignment,
    max_trace_brute,
    perm_matrix,
    permanent,
    random_ds,
    validate_ds,
)
from dstoch import diagsum
from dstoch.diagsum import (BRUTE_CAP, FLIP_BLOCK, INT64_BOUND, LIMB, PERMANENT_CAP,
                            VECTOR_MIN_N, _glynn_int64, _glynn_loop, _int64_runs)

S = canonical("S")
T = canonical("T")
R = canonical("R")
I3 = canonical("I3")
D = validate_ds(direct_sum(make_jn(1), make_jn(3))
                @ direct_sum(make_jn(2), make_jn(2)))


def test_frobenius_examples():
    assert frobenius_sq(perm_matrix(Permutation.identity(4))) == 4
    assert frobenius_sq(make_jn(3)) == 1
    assert frobenius_sq(S) == F(5, 4)


def test_diagonal_sum_examples():
    ident = Permutation.identity(3)
    assert diagonal_sum(S, ident) == F(1, 2)
    assert diagonal_sum(I3, ident) == 3
    assert diagonal_sum(T, ident) == 0


def test_max_trace_brute_examples():
    assert max_trace_brute(S).max_value == F(5, 4)
    report = max_trace_brute(R)
    assert report.max_value == F(7, 5)
    assert report.argmax == Permutation.identity(3)  # attained by tr(R)
    assert max_trace_brute(D).max_value == F(4, 3)


def test_max_trace_brute_cap():
    with pytest.raises(OrderTooLarge):
        max_trace_brute(make_jn(11))


def test_max_trace_assignment_examples():
    nine = validate_ds(
        direct_sum(direct_sum(make_jn(3), make_jn(3)), make_jn(3))
        @ direct_sum(direct_sum(make_jn(2), make_jn(3)), make_jn(4)))
    assert max_trace_assignment(nine).max_value == F(25, 12)
    for n in (2, 5, 9):
        ident = perm_matrix(Permutation.identity(n))
        assert max_trace_assignment(ident).max_value == n


def test_assignment_agrees_with_brute_on_random_inputs():
    rng = SplitMix64(2024)
    for _ in range(300):
        n = rng.randint(2, 7)
        a = random_ds(n, rng.randint(1, 2 * n), seed=rng.next64())
        brute = max_trace_brute(a)
        assign = max_trace_assignment(a)
        assert assign.max_value == brute.max_value
        assert assign.argmax == brute.argmax  # both lex-smallest


def test_assignment_agrees_with_brute_on_tie_heavy_inputs():
    # flat and block matrices tie on many diagonals; the lex-min witness
    # must still match the brute-force scan
    rng = SplitMix64(99)
    pool = [make_jn(n) for n in range(1, 8)]
    pool += [make_tn(n) for n in range(2, 8)]
    for _ in range(150):
        n = rng.randint(2, 7)
        parts = []
        left = n
        while left:
            k = rng.randint(1, left)
            parts.append(k)
            left -= k
        pool.append(block_j_form(Permutation.random(n, rng), parts,
                                 Permutation.random(n, rng)))
    for m in pool:
        brute = max_trace_brute(m)
        assign = max_trace_assignment(m)
        assert assign.max_value == brute.max_value
        assert assign.argmax == brute.argmax


def test_assignment_potentials_certify_optimality():
    # duals dominate every entry and are tight on the reported argmax, for
    # Fraction rows, their integer grid and their floats
    from dstoch.diagsum import _assignment_max
    rng = SplitMix64(5)
    for _ in range(50):
        n = rng.randint(2, 6)
        a = random_ds(n, n, seed=rng.next64())
        for weight, slack in ((a.rows, 0), (a.grid, 0), (a.to_floats(), 1e-12)):
            assign, u, v = _assignment_max(weight)
            for i in range(n):
                for j in range(n):
                    assert weight[i][j] <= u[i] + v[j] + slack
            assert all(abs(weight[i][assign[i]] - u[i] - v[assign[i]]) <= slack
                       for i in range(n))


def _assignment_max_emaxx(weight):
    """The textbook (e-maxx) Hungarian loop from zero potentials, 1-based
    with a virtual column 0: every row pays a full search.  The oracle for
    `_assignment_max`'s float-tier choices."""
    n = len(weight)
    u, v, p, way = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        p[0], j0 = i, 0
        minv, used = [math.inf] * (n + 1), [False] * (n + 1)
        while True:
            used[j0] = True
            i0, delta = p[j0], math.inf
            for j in range(1, n + 1):
                if not used[j]:
                    cur = u[i0] - weight[i0 - 1][j - 1] + v[j]
                    if cur < minv[j]:
                        minv[j], way[j] = cur, j0
                    if minv[j] < delta:
                        delta, j1 = minv[j], j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] -= delta
                    v[j] += delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            p[j0], j0 = p[j1], j1
    assign = [0] * n
    for j in range(1, n + 1):
        assign[p[j] - 1] = j - 1
    return assign, u[1:], v[1:]


def _certify(weight, assign, u, v):
    """The duals dominate every entry and are tight on the assignment, a
    permutation: exact, so for int and Fraction weights only."""
    n = len(weight)
    assert sorted(assign) == list(range(n))
    assert all(weight[i][j] <= u[i] + v[j] for i in range(n) for j in range(n))
    assert all(weight[i][assign[i]] == u[i] + v[assign[i]] for i in range(n))


def _one_greedy_row(n):
    # every row's unique maximum sits in column 0, so the greedy start
    # matches row 0 alone and n - 1 searches remain
    return [[(n - j) * (i + 1) + (i * j) % 3 for j in range(n)] for i in range(n)]


def _solver_cases():
    rng = SplitMix64(2525)
    cases = [("random_ds", random_ds(n, n, seed=s).grid) for n in (16, 32, 64) for s in (1, 2, 3)]
    cases += [("jn", make_jn(n).grid) for n in (1, 2, 7, 33)]
    for n in (6, 12, 40):
        parts, left = [], n
        while left:
            parts.append(rng.randint(1, min(left, 5)))
            left -= parts[-1]
        cases.append(("block_j", block_j_form(Permutation.random(n, rng), parts,
                                              Permutation.random(n, rng)).grid))
    cases += [("one_greedy_row", _one_greedy_row(n)) for n in (2, 5, 7, 30)]
    cases += [("empty", []), ("one", [[7]])]
    return cases


@pytest.mark.parametrize("weight", [pytest.param(w, id=f"{kind}-{len(w)}-{k}")
                                    for k, (kind, w) in enumerate(_solver_cases())])
def test_assignment_duals_are_feasible_and_tight(weight):
    n = len(weight)
    assign, u, v = diagsum._assignment_max(weight)
    _certify(weight, assign, u, v)
    _certify([[F(x, 3) for x in row] for row in weight],
             *diagsum._assignment_max([[F(x, 3) for x in row] for row in weight]))
    best = sum(weight[i][assign[i]] for i in range(n))
    assert best == sum(row[j] for row, j in zip(weight, _assignment_max_emaxx(weight)[0]))
    if n <= 7:
        a = RatMatrix.of_grid(weight, 1)
        assert (best, max_trace_assignment(a).argmax) == tuple(max_trace_brute(a)[:2])


def test_assignment_greedy_start_settles_permutation_matrices():
    # each row's one maximum is its own column: no search runs, and the
    # start potentials (row maxima, zero columns) come back unchanged
    rng = SplitMix64(77)
    for n in (1, 2, 9, 64):
        p = Permutation.random(n, rng)
        grid = perm_matrix(p).grid
        assert diagsum._assignment_max(grid) == (list(p), [1] * n, [0] * n)


def test_one_greedy_row_inputs_leave_the_other_rows_to_the_search():
    for n in (2, 5, 7, 30):
        assert all(row.count(max(row)) == 1 and row[0] == max(row) for row in _one_greedy_row(n))


def test_float_tier_matches_the_emaxx_oracle_bit_for_bit():
    # the probe screens float samples by max_trace_value; on seeded samples
    # of every kind its value and assignment equal the old loop's (a jitter
    # sample, rebalanced by up to 10,000 Sinkhorn passes, costs ~0.1 s)
    from dstoch.explore import _probe_sample
    rng = SplitMix64(2526)
    for n in range(1, 9):
        for kind, count in (("sinkhorn", 100), ("mixture", 100), ("jitter", 3)):
            for _ in range(count):
                x = _probe_sample(n, kind, rng)
                assign = _assignment_max_emaxx(x)[0]
                assert diagsum._assignment_max(x)[0] == assign, (n, kind, x)
                value = functools.reduce(operator.add, (x[i][assign[i]] for i in range(n)))
                assert diagsum.max_trace_value(x).hex() == value.hex()


def test_lex_min_matching_from_every_start_is_the_lex_first():
    # seeded random bipartite graphs with a planted perfect matching; the
    # brute-force lex-first matching is the first permutation on the graph
    from dstoch.diagsum import _lex_min_matching
    rng = SplitMix64(11)
    starts = 0
    for _ in range(600):
        n = rng.randint(1, 6)
        planted = Permutation.random(n, rng)
        density = rng.randint(0, 4)
        adj = [sorted({planted(i)} | {j for j in range(n) if rng.below(4) < density})
               for i in range(n)]
        perfect = [list(p) for p in itertools.permutations(range(n))
                   if all(p[i] in adj[i] for i in range(n))]
        for start in perfect:
            before = list(start)
            assert _lex_min_matching(adj, start) == perfect[0], (adj, start)
            assert start == before  # the start is not modified
        starts += len(perfect)
    assert starts > 5_000


def _lex_first_derangement(n):
    image = [k ^ 1 for k in range(n)]
    if n % 2:
        image[-3:] = [n - 2, n - 1, n - 3]
    return image


def test_lex_first_derangement_rule_matches_brute():
    for n in range(2, 9):
        first = next(p for p in itertools.permutations(range(n))
                     if all(p[i] != i for i in range(n)))
        assert _lex_first_derangement(n) == list(first)


@pytest.mark.parametrize("n", [11, 12, 33, 64, 65, 127, 128])
def test_assignment_argmax_on_flat_forms_beyond_brute(n):
    # J_n ties on every diagonal; T_n = (J - I)/(n - 1) on every derangement
    assert n > BRUTE_CAP
    jn = max_trace_assignment(make_jn(n))
    assert jn.argmax == Permutation.identity(n) and jn.max_value == 1
    tn = max_trace_assignment(make_tn(n))
    assert list(tn.argmax) == _lex_first_derangement(n)
    assert tn.max_value == F(n, n - 1)


def test_max_diag_product_examples():
    value, _ = max_diag_product(make_jn(3))
    assert value == F(1, 27)
    value, _ = max_diag_product(I3)
    assert value == 1
    value, argmax = max_diag_product(S)
    assert value == F(1, 16)
    assert argmax == Permutation([1, 0, 2])


def test_permanent_examples():
    assert permanent(make_jn(3)) == F(2, 9)
    assert permanent(make_jn(4)) == F(3, 32)
    assert permanent_naive(make_jn(4)) == F(3, 32)
    for n in (1, 3, 6):
        assert permanent(perm_matrix(Permutation.identity(n))) == 1


def test_permanent_matches_naive_on_random_matrices():
    rng = SplitMix64(77)
    for _ in range(60):
        n = rng.randint(2, 6)
        rows = [[F(rng.randint(0, 9), 10) for _ in range(n)] for _ in range(n)]
        a = RatMatrix(rows)
        assert permanent(a) == permanent_naive(a)


NAIVE_PERMANENT_CAP = 8


def permanent_naive(a):
    """Defining n!-term sum; the independent oracle for `permanent`."""
    n = a.n
    if n > NAIVE_PERMANENT_CAP:
        raise OrderTooLarge(n, NAIVE_PERMANENT_CAP, "naive permanent")
    grid, den = a.grid, a.den
    total = 0
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= grid[i][perm[i]]
        total += prod
    return F(total, den ** n)


def _reference_ryser(a):
    """Ryser's inclusion-exclusion formula with Gray-code subset order,

        perm(A) = (-1)^n sum_{S nonempty} (-1)^{|S|} prod_i sum_{j in S} a_ij,

    the kernel `permanent` ran before Glynn's formula replaced it."""
    n = a.n
    grid, den = a.grid, a.den
    cols = list(zip(*grid))
    rowsum = [0] * n
    total = 0
    gray = 0
    size = 0
    for k in range(1, 1 << n):
        g = k ^ (k >> 1)
        bit = (g ^ gray).bit_length() - 1
        col = cols[bit]
        if g > gray:
            size += 1
            for i in range(n):
                rowsum[i] += col[i]
        else:
            size -= 1
            for i in range(n):
                rowsum[i] -= col[i]
        gray = g
        prod = 1
        for s in rowsum:
            prod *= s
            if prod == 0:
                break
        total += prod if (n - size) % 2 == 0 else -prod
    return F(total, den ** n)


def _signed_matrix(rng, n):
    return RatMatrix([[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                      for _ in range(n)])


def test_permanent_matches_ryser_on_random_ds():
    rng = SplitMix64(606)
    for n in range(7, 14):
        for _ in range(2):
            a = random_ds(n, rng.randint(1, 2 * n), seed=rng.next64())
            assert permanent(a) == _reference_ryser(a)


def test_permanent_matches_ryser_on_signed_matrices():
    # negative entries, a zero row, a zero column, n = 1 and all zeros
    rng = SplitMix64(607)
    cases = [RatMatrix([[F(-3, 7)]]), RatMatrix([[0] * 5] * 5)]
    for n in range(1, 14):
        rows = [list(row) for row in _signed_matrix(rng, n).rows]
        cases.append(RatMatrix(rows))
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        cases.append(RatMatrix([[0] * n if r == i else row
                                for r, row in enumerate(rows)]))
        cases.append(RatMatrix([[0 if c == j else x for c, x in enumerate(row)]
                                for row in rows]))
    for a in cases:
        assert permanent(a) == _reference_ryser(a)
        if not all(any(line) for line in a.rows + tuple(zip(*a.rows))):
            assert permanent(a) == 0
    assert permanent(cases[0]) == F(-3, 7)


def test_int64_runs_keep_each_bound_product_below_2_62():
    assert _int64_runs([2 ** 31, 2 ** 31 - 1, 1, 0, 2 ** 62 - 1]) == [
        slice(0, 4), slice(4, 5)]
    assert _int64_runs([2 ** 31, 2 ** 31]) == [slice(0, 1), slice(1, 2)]
    assert _int64_runs([5] * 12) == [slice(0, 12)]


def _near(rng, n, base):
    """n x n integer matrix with entries +-(base + 0..999)."""
    return RatMatrix([[(base + rng.randint(0, 999)) * (1 - 2 * rng.randint(0, 1))
                       for _ in range(n)] for _ in range(n)])


def test_permanent_int64_path_with_one_row_runs(monkeypatch):
    # two rows' bounds, about 12 * 2^40 each, multiply past 2^62
    seen = []

    def recording(bounds):
        seen.append(_int64_runs(bounds))
        return seen[-1]

    monkeypatch.setattr(diagsum, "_int64_runs", recording)
    a = _near(SplitMix64(609), VECTOR_MIN_N, 2 ** 40)
    assert permanent(a) == _reference_ryser(a)
    assert seen == [[slice(i, i + 1) for i in range(VECTOR_MIN_N)]]


def test_permanent_takes_the_loop_past_the_int64_bound(monkeypatch):
    def refuse(grid, runs):
        raise AssertionError("int64 path taken")

    monkeypatch.setattr(diagsum, "_glynn_int64", refuse)
    rows = [list(row) for row in _near(SplitMix64(610), VECTOR_MIN_N, 0).rows]
    rows[5][7] = INT64_BOUND
    a = RatMatrix(rows)
    assert permanent(a) == _reference_ryser(a)


def _sparse_small(rng, n):
    """Signed rows with two entries of magnitude at most 9 and 3: row bounds
    at most 12, and 12^17 < 2^62."""
    rows = [[0] * n for _ in range(n)]
    for row in rows:
        row[rng.randint(0, n - 1)] += rng.randint(-9, 9)
        row[rng.randint(0, n - 1)] += rng.randint(-3, 3)
    return rows


def _bench_mixture(rng, n, k):
    """Integer grid of k weighted permutation matrices, weights 1..1000."""
    rows = [[0] * n for _ in range(n)]
    for _ in range(k):
        perm = Permutation.random(n, rng)
        weight = rng.randint(1, 1000)
        for i in range(n):
            rows[i][perm(i)] += weight
    return rows


def test_glynn_int64_matches_the_loop_past_one_block():
    # n = 14..17 walk 4..32 blocks of 2^11 sign vectors; `_glynn_loop`
    # sums the same terms in Python ints, without numpy
    rng = SplitMix64(611)

    def near(n):                           # row bounds just under 2^62
        top = (INT64_BOUND - 1) // n
        return [[(top - rng.randint(0, 999)) * (1 - 2 * rng.randint(0, 1))
                 for _ in range(n)] for _ in range(n)]

    zeroed = [[rng.randint(-999, 999) for _ in range(16)] for _ in range(16)]
    zeroed[3] = [0] * 16
    for row in zeroed:
        row[11] = 0
    mid = 2 ** 20 // 15                    # row bounds below 2^20: runs of 3 rows
    cases = [
        ("one run", _sparse_small(rng, 17), {1}),
        ("odd run count", [[rng.randint(-mid, mid) for _ in range(15)]
                           for _ in range(15)], {3, 5}),
        ("one-row runs", near(14), {14}),
        ("odd one-row runs", near(15), {15}),
        ("zero row and column", zeroed, None),
        ("bench mixture", _bench_mixture(rng, 16, 16), None),
    ]
    for name, grid, run_counts in cases:
        runs = _int64_runs([sum(map(abs, row)) for row in grid])
        assert run_counts is None or len(runs) in run_counts, (name, runs)
        assert _glynn_int64(grid, runs) == _glynn_loop(grid), name
    assert _glynn_loop(zeroed) == 0


def test_glynn_limb_arithmetic_fits_its_types():
    # Recompute in Python ints what `_glynn_int64` does to one sign vector:
    # split run products of +-(2^62 - 1) into limbs and multiply each half
    # of the runs out with carries, at every run count up to PERMANENT_CAP.
    # Track the largest int64 column (with its carry) and limb; a matmul
    # entry sums 2^FLIP_BLOCK limb products in float64, and the block sums
    # add up in int64 over every block of the largest order.
    mask = (1 << LIMB) - 1

    def split(p):
        return [p & mask, p >> LIMB & mask, p >> 2 * LIMB]

    largest = {"column": 0, "limb": 0}

    def times(limbs, run):
        out, carry = [], 0
        for k in range(len(limbs) + 2):
            column = carry + sum(limbs[i] * run[k - i]
                                 for i in range(max(0, k - 2), min(k + 1, len(limbs))))
            largest["column"] = max(largest["column"], abs(column))
            out.append(column & mask)
            carry = column >> LIMB
        return out + [carry]

    def half(products):
        limbs = split(products[0])
        for p in products[1:]:
            limbs = times(limbs, split(p))
        value = sum(x << LIMB * i for i, x in enumerate(limbs))
        assert value == math.prod(products)
        assert all(0 <= x <= mask for x in limbs[:-1])
        assert -2 ** (LIMB - 1) <= limbs[-1] <= 2 ** (LIMB - 1)
        largest["limb"] = max(largest["limb"], *map(abs, limbs))
        return limbs

    big = INT64_BOUND - 1
    entry = 0
    for count in range(1, PERMANENT_CAP + 1):
        h = (count + 1) // 2
        for signs in ([1] * count, [-1] * count, [(-1) ** r for r in range(count)],
                      [-(-1) ** r for r in range(count)]):
            products = [s * big for s in signs] + [1] * (2 * h - count)
            e, f = half(products[:h]), half(products[h:])
            entry = max(entry, max(map(abs, e)) * max(map(abs, f)) << FLIP_BLOCK)
    blocks = 1 << (PERMANENT_CAP - 1 - FLIP_BLOCK)
    assert largest["column"] < 2 ** 44 < 2 ** 63
    assert largest["limb"] < 2 ** LIMB
    assert entry < 2 ** 53                 # exact in float64
    assert blocks * entry < 2 ** 63        # the int64 sum over blocks


def _bounded_rows(rng, n, bound):
    """Signed rows whose entries' magnitudes sum to exactly `bound`, so the
    greedy runs of `_int64_runs` hold the same number of rows each."""
    rows = []
    for _ in range(n):
        row = [rng.randint(-bound // (2 * n), bound // (2 * n)) for _ in range(n - 1)]
        rest = bound - sum(map(abs, row))
        rows.append(row + [rest if rng.randint(0, 1) else -rest])
    return rows


@pytest.fixture(scope="module")
def workspace_cases():
    """(n, run count, grid, Glynn sum by `_glynn_loop`) in the order the
    workspace tests call `_glynn_int64`: each pair at one h (runs per
    half) goes from an even run count to an odd one, whose padding run of
    ones must not read the previous call's run products; h rises to 6
    (one-row runs), n to 17, and both fall back."""
    rng = SplitMix64(612)
    cases = []
    for n, bound, count in ((12, 1000, 2), (12, 30, 1), (16, 20000, 4), (12, 20000, 3),
                            (14, 10 ** 6, 5), (12, 2 ** 40, 12), (17, 2 ** 25, 9),
                            (12, 25, 1)):
        grid = _bounded_rows(rng, n, bound)
        assert len(_int64_runs([sum(map(abs, row)) for row in grid])) == count
        cases.append((n, count, grid, _glynn_loop(grid)))
    return cases


def _glynn_runs(grid):
    return _glynn_int64(grid, _int64_runs([sum(map(abs, row)) for row in grid]))


def test_glynn_workspace_across_orders_and_run_counts(workspace_cases):
    for n, count, grid, expected in workspace_cases:
        assert _glynn_runs(grid) == expected, (n, count)


def test_glynn_workspace_is_kept_and_reused(workspace_cases):
    grids = {(n, count): grid for n, count, grid, _ in workspace_cases}
    _glynn_runs(grids[12, 12])             # h = 6, the largest of the cases
    _glynn_runs(grids[17, 9])              # n = 17, the largest
    assert len(diagsum._WORKSPACE) == 1
    space = diagsum._WORKSPACE[0]
    buffers = dict(space)
    for shape in ((17, 9), (12, 12), (12, 1), (16, 4)):   # seen, then smaller
        _glynn_runs(grids[shape])
        assert len(diagsum._WORKSPACE) == 1 and diagsum._WORKSPACE[0] is space
        assert space.keys() == buffers.keys()
        assert all(space[name] is array for name, array in buffers.items())


def test_glynn_workspace_is_never_shared_between_threads(workspace_cases):
    cases = [(grid, expected) for n, _, grid, expected in workspace_cases if n in (14, 16)]
    start = threading.Barrier(4, timeout=60)
    wrong = []

    def work(t):
        start.wait()
        for i in range(4):
            grid, expected = cases[(t + i) % 2]
            if _glynn_runs(grid) != expected:
                wrong.append((t, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert len(diagsum._WORKSPACE) <= 1


def test_permanent_matches_naive_on_signed_matrices():
    rng = SplitMix64(608)
    for _ in range(200):
        a = _signed_matrix(rng, rng.randint(1, 7))
        assert permanent(a) == permanent_naive(a)
    assert permanent(RatMatrix([])) == permanent_naive(RatMatrix([])) == 1


def test_gap_examples():
    assert marcus_ree_gap(S).saturated
    quarter = validate_ds(RatMatrix([[F(1, 4), F(3, 4)], [F(3, 4), F(1, 4)]]))
    report = marcus_ree_gap(quarter)
    assert report.gap == F(1, 4) and not report.saturated
    # strictly positive and distinct from J_3: gap must be positive
    positive = validate_ds(RatMatrix([[F(1, 2), F(1, 4), F(1, 4)],
                                      [F(1, 4), F(1, 2), F(1, 4)],
                                      [F(1, 4), F(1, 4), F(1, 2)]]))
    assert marcus_ree_gap(positive).gap > 0


def test_gap_trace_matches_brute_on_random_and_grid_inputs():
    rng = SplitMix64(33)
    for n in range(1, 8):
        for _ in range(6):
            a = random_ds(n, rng.randint(1, n + 2), seed=rng.next64())
            assert marcus_ree_gap(a).max_trace == max_trace_brute(a).max_value, a
    points = 0
    for d in range(1, 9):  # every 3 x 3 doubly stochastic matrix on the 1/d grid
        for x11, x12, x21, x22 in itertools.product(range(d + 1), repeat=4):
            grid = [[x11, x12, d - x11 - x12], [x21, x22, d - x21 - x22],
                    [d - x11 - x21, d - x12 - x22, x11 + x12 + x21 + x22 - d]]
            if min(map(min, grid)) < 0:
                continue
            a = RatMatrix.of_grid(grid, d)
            assert marcus_ree_gap(a).max_trace == max_trace_brute(a).max_value, grid
            points += 1
    assert points == sum(math.comb(d + 4, 4) + math.comb(d + 3, 4) + math.comb(d + 2, 4)
                         for d in range(1, 9))


def test_gap_of_the_empty_matrix():
    assert marcus_ree_gap(RatMatrix([])) == diagsum.GapReport(0, 0, 0, True)
    assert diagsum.max_trace_value([]) == 0


def test_gap_builds_no_witness(monkeypatch):
    cases = {"J3": make_jn(3), "T": T, "R": R, "big": random_ds(64, 16, seed=33)}
    expected = {name: (frobenius_sq(a), max_trace_assignment(a).max_value)
                for name, a in cases.items()}

    def witness(*args):
        raise AssertionError("the gap built a witness")

    monkeypatch.setattr(diagsum, "_lex_min_matching", witness)
    monkeypatch.setattr(diagsum, "max_trace_assignment", witness)
    for name, a in cases.items():
        frob, trace = expected[name]
        assert marcus_ree_gap(a) == (frob, trace, trace - frob, trace == frob), name
    assert expected["R"] == (F(7, 5), F(7, 5)) and expected["big"][1] > expected["big"][0]


def test_tn_values():
    for n in range(2, 33):
        report = marcus_ree_gap(make_tn(n))
        assert report.frob_sq == F(n, n - 1)
        assert report.max_trace == F(n, n - 1)
        assert report.saturated


def test_gap_is_permutation_invariant():
    rng = SplitMix64(31)
    for _ in range(100):
        n = rng.randint(2, 5)
        a = random_ds(n, rng.randint(1, 6), seed=rng.next64())
        p = perm_matrix(Permutation.random(n, rng))
        q = perm_matrix(Permutation.random(n, rng))
        b = validate_ds(p @ a @ q)
        ra, rb = marcus_ree_gap(a), marcus_ree_gap(b)
        assert ra.frob_sq == rb.frob_sq
        assert ra.max_trace == rb.max_trace


def test_every_diagonal_sum_bounded_by_max_trace():
    rng = SplitMix64(13)
    for _ in range(40):
        a = random_ds(4, 5, seed=rng.next64())
        best = max_trace_brute(a).max_value
        assert all(diagonal_sum(a, p) <= best for p in all_permutations(4))
