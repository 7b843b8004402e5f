"""Diagonal-sum quantities of square rational matrices.

For an n x n matrix A and a permutation s, the diagonal of A at s is the
entry sequence A[0,s(0)], ..., A[n-1,s(n-1)].  This module computes, all
in exact rational arithmetic:

  * the Frobenius norm squared, sum of all squared entries;
  * diagonal sums and the maximal trace max_tr(A) = max_s sum_i A[i,s(i)],
    by a greedy start and lazy-potential Dijkstra searches on a matrix's
    integer grid (`RatMatrix.grid`), with factorial brute force as oracle;
  * the maximal diagonal product;
  * the permanent, by Glynn's formula over the 2^(n-1) sign vectors with
    first sign +1, in Gray-code order: O(n 2^(n-1)).  Below order 12 a
    Python loop sums them, each step touching only the nonzero entries of
    the one column it flips; it keeps `ds permanent` at small orders (n = 8
    in common use) free of numpy, whose import (60-90 ms on a 2-core Xeon)
    costs more than the whole sum.  From order 12 on the same sum runs in
    int64 numpy blocks of 2^11 sign vectors, with the rows cut into runs
    whose bounds sum_j |a_ij| multiply to less than 2^62, so each run's
    product is exact in int64; the run products are joined exactly in
    21-bit limbs, and a block sums in one small float64 matmul whose
    entries stay below 2^53.  A row bound of 2^62 or more sends the matrix
    to the loop;
  * the Marcus-Ree gap max_tr(A) - ||A||_F^2, which is >= 0 for every
    doubly stochastic A and whose vanishing ("saturation") is the
    classification problem handled in `saturation`.

Reported argmax permutations are the lexicographically smallest optimum:
the first perfect matching on the edges the solver's potentials make tight.
"""

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction

from .ratmat import DomainError, OrderTooLarge, _as_permutation, _perm

BRUTE_CAP = 10
PERMANENT_CAP = 20


class TraceReport(collections.namedtuple("TraceReport", "max_value argmax method")):
    """Maximal trace with its lexicographically smallest witness; method is
    "brute" or "assignment"."""
    __slots__ = ()


class GapReport(collections.namedtuple("GapReport", "frob_sq max_trace gap saturated")):
    """Frobenius norm squared, maximal trace, their difference, and whether
    it is zero."""
    __slots__ = ()


def frobenius_sq(a):
    """Sum of squared entries, exactly."""
    return Fraction(sum(x * x for row in a.grid for x in row), a.den * a.den)


def diagonal_sum(a, p):
    """sum_i a[i, p(i)] for a permutation p (or its image) of matching order."""
    p = _as_permutation(p)
    if len(p) != a.n:
        raise DomainError(f"permutation order {len(p)} != matrix order {a.n}")
    return Fraction(sum(a.grid[i][p(i)] for i in range(a.n)), a.den)


def max_trace_brute(a):
    """Exact maximum diagonal sum over all n! permutations.

    The argmax is the lexicographically smallest maximizer (permutations
    are visited in lex order and replaced only on strict improvement).
    """
    n = a.n
    if n > BRUTE_CAP:
        raise OrderTooLarge(n, BRUTE_CAP, "brute-force maximal trace")
    grid, den = a.grid, a.den
    best = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        s = 0
        for i in range(n):
            s += grid[i][perm[i]]
        if best is None or s > best:
            best, best_perm = s, perm
    return TraceReport(Fraction(best, den), _perm(best_perm), "brute")


def max_diag_product(a):
    """Exact maximum diagonal product and its lex-smallest witness."""
    n = a.n
    if n > BRUTE_CAP:
        raise OrderTooLarge(n, BRUTE_CAP, "brute-force maximal diagonal product")
    grid, den = a.grid, a.den
    best = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= grid[i][perm[i]]
            if prod == 0:
                break
        if best is None or prod > best:
            best, best_perm = prod, perm
    return Fraction(best, den ** n), _perm(best_perm)


# ── assignment solver ─────────────────────────────────────────────────────
#
# Shortest augmenting paths with potentials, maximizing, after Jonker and
# Volgenant (1987).  The start u_i = max_j w_ij, v = 0 is feasible and each
# row takes its first free argmax column.  Each row left free runs one
# Dijkstra search over the columns by slack u + v - w, taking the closest
# unscanned column as the min over the unscanned list, until it reaches a
# free column at distance D; the potentials then shift once (each scanned
# column j gains D - dist[j] and its row loses it, the searching row loses
# D) and the row augments along `pred`.  Generic over the entry type: exact
# matrices reach it as Python ints (`RatMatrix.grid`), the float tier as
# floats.  Only +, -, and < are used, so integer inputs stay exact.

def _assignment_max(weight):
    """Solve max-weight perfect assignment for a square weight matrix.

    Returns (assign, u, v): assign[i] is the column matched to row i, and
    the potentials satisfy weight[i][j] <= u[i] + v[j] everywhere, with
    equality on every matched pair.
    """
    n = len(weight)
    u = [max(row) for row in weight]
    v = [0] * n
    assign = [-1] * n      # column of row i, -1 if free
    owner = [-1] * n       # row of column j, -1 if free
    for i, row in enumerate(weight):
        for j, x in enumerate(row):
            if x == u[i] and owner[j] < 0:
                assign[i], owner[j] = j, i
                break
    for i in range(n):
        if assign[i] >= 0:
            continue
        ui = u[i]
        dist = [ui + vj - x for x, vj in zip(weight[i], v)]
        pred = [i] * n
        todo = list(range(n))
        scanned = []
        while True:
            j = min(todo, key=dist.__getitem__)
            todo.remove(j)
            r = owner[j]
            if r < 0:
                break
            scanned.append(j)
            row, base = weight[r], dist[j] + u[r]   # (r, j) is tight
            for k in todo:
                s = base + v[k] - row[k]
                if s < dist[k]:
                    dist[k], pred[k] = s, r
        top = dist[j]
        for k in scanned:
            shift = top - dist[k]
            v[k] += shift
            u[owner[k]] -= shift
        u[i] -= top
        while True:
            r = pred[j]
            owner[j] = r
            assign[r], j = j, assign[r]
            if r == i:
                break
    return assign, u, v


def _lex_min_matching(adj, match):
    """Lexicographically smallest perfect matching of the bipartite graph
    adj (ascending column lists, one per row), from its perfect matching
    match (match[i] the column of row i).  Row by row, row i takes the
    first column j not held by an earlier row whose row reaches a row
    adjacent to i's column by an alternating path through later rows;
    rotating the path frees j for i."""
    match = list(match)
    owner = sorted(range(len(match)), key=match.__getitem__)  # row of column
    for i, row in enumerate(adj):
        target = match[i]
        for j in row:
            if j == target:
                break
            if owner[j] < i:
                continue
            prev, queue = {j: None}, [j]  # breadth-first over columns
            for c in queue:
                cols = adj[owner[c]]
                if target in cols:
                    break
                for c2 in cols:
                    if c2 not in prev and owner[c2] > i:
                        prev[c2] = c
                        queue.append(c2)
            else:
                continue
            while c is not None:  # owner[c] takes target, and so on back
                r = owner[c]
                match[r], owner[target] = target, r
                target, c = c, prev[c]
            match[i], owner[j] = j, i
            break
    return match


def max_trace_assignment(a):
    """Maximal trace via the exact assignment solver.

    Same contract as max_trace_brute (value and lex-smallest argmax), but
    polynomial: one `_assignment_max` solve on the integer grid
    `a.grid` gives potentials with grid[i][j] <= u[i] + v[j], every
    optimal permutation lives on the tight edges where equality holds, and
    the lex smallest one is found on that subgraph by `_lex_min_matching`,
    starting from the solver's own assignment, which is tight.
    """
    n, grid, den = a.n, a.grid, a.den
    assign, u, v = _assignment_max(grid)
    tight = [[j for j in range(n) if grid[i][j] == u[i] + v[j]] for i in range(n)]
    image = _lex_min_matching(tight, assign)
    total = sum(grid[i][image[i]] for i in range(n))
    return TraceReport(Fraction(total, den), _perm(image), "assignment")


def max_trace_value(rows):
    """Maximum diagonal sum of a list-of-lists matrix of any ordered number
    type, 0 if empty: the exact gap's trace on a grid, the probe's on floats."""
    assign, _, _ = _assignment_max(rows)
    # left to right: the builtin sum compensates float sums from Python 3.12 on
    return functools.reduce(operator.add, (rows[i][assign[i]] for i in range(len(rows))), 0)


# ── permanent ─────────────────────────────────────────────────────────────

VECTOR_MIN_N = 12        # from this order on, the Glynn sum runs in numpy
FLIP_BLOCK = 11          # sign vectors per numpy block: 2^FLIP_BLOCK
INT64_BOUND = 1 << 62    # every int64 run product stays below this
LIMB = 21                # bits per limb of a block's exact sum
_LIMB_MASK = (1 << LIMB) - 1
_WORKSPACE = []          # at most one retained set of `_glynn_int64` block buffers


def permanent(a):
    """Exact permanent by Glynn's formula on the integer grid `a.grid`,

        perm(A) = 2^-(n-1) sum_d (prod_k d_k) prod_i sum_j d_j a_ij,

    over d in {+-1}^n with d_0 = +1 in Gray-code order: step k flips column
    ctz(k) + 1, moving the row sums by twice that column's nonzero entries,
    and the term's sign is the parity of k.

    Two paths sum the same terms.  Below order VECTOR_MIN_N = 12, and for
    any row bound r_i = sum_j |a_ij| (on the grid) of 2^62 or more,
    `_glynn_loop` runs them one by one in Python, O(2^(n-1) (nnz/n + n)).
    Up to n = 11 that costs less than importing numpy (60-90 ms on a 2-core
    Xeon), so `ds permanent` on small files (n = 8 in common use) never
    loads numpy.  From order 12 on `_glynn_int64` sums 2^11 sign vectors
    per numpy block, with each row product cut into runs whose bounds
    multiply to less than 2^62, so that int64 holds every run exactly.  The
    runs of each half multiply out in 21-bit limbs with a carry pass after
    every multiply, and the block's sum is one (limbs x limbs) float64
    matmul of the two halves' limbs, every entry below 2^11 * 2^42 = 2^53
    and so exact; `_glynn_int64` states the bound of each intermediate.
    Its block buffers live in one workspace kept between calls, so that a
    call does not fault them in afresh.
    """
    n = a.n
    if n > PERMANENT_CAP:
        raise OrderTooLarge(n, PERMANENT_CAP, "permanent")
    if n == 0:
        return Fraction(1)
    grid, den = a.grid, a.den
    bounds = [sum(map(abs, row)) for row in grid]
    if n >= VECTOR_MIN_N and max(bounds) < INT64_BOUND:
        total = _glynn_int64(grid, _int64_runs(bounds))
    else:
        total = _glynn_loop(grid)
    return Fraction(total, den ** n << (n - 1))


def _glynn_loop(grid):
    """The integer Glynn sum 2^(n-1) perm(grid), one sign vector at a time."""
    n = len(grid)
    rowsum = [sum(row) for row in grid]
    # flips[b][s]: (row, change) at each nonzero entry of column b + 1 when its
    # sign turns -1 (s = 0, bit b + 1 of k clear) or back to +1 (s = 1)
    cols = [[(i, 2 * r[c]) for i, r in enumerate(grid) if r[c]] for c in range(1, n)]
    flips = [([(i, -x) for i, x in col], col) for col in cols]
    total = math.prod(rowsum)
    for k in range(1, 1 << (n - 1)):
        b = (k & -k).bit_length() - 1
        for i, x in flips[b][k >> (b + 1) & 1]:
            rowsum[i] += x
        term = math.prod(rowsum)
        total += -term if k & 1 else term
    return total


def _int64_runs(bounds):
    """Cut rows 0..n-1 greedily into runs (slices) whose bounds, each taken
    as at least 1, multiply to less than 2^62."""
    runs, start, product = [], 0, 1
    for i, r in enumerate(bounds):
        r = max(r, 1)
        if product * r >= INT64_BOUND:
            runs.append(slice(start, i))
            start, product = i, 1
        product *= r
    runs.append(slice(start, len(bounds)))
    return runs


def _glynn_int64(grid, runs):
    """The integer Glynn sum 2^(n-1) perm(grid) in int64 numpy blocks.

    The row sums of all 2^m sign patterns on flip columns 1..m are built
    once by doubling; the remaining columns are walked in Gray-code order,
    each step adding one column's shift to every pattern.  In a block, each
    row run (a slice from `_int64_runs`) multiplies out in int64 and the
    pattern signs join the first run.  The runs fall into two halves (the
    second gets a run of ones when their count R is odd), and each half's
    product is formed exactly in 21-bit limbs: every run product splits
    into three limbs, low ones in [0, 2^21) and a signed top one, and a
    half's product grows by limb convolution with one run at a time, each
    multiply followed by a carry pass.  With E and F the two halves' limb
    rows over the block, the block's sum is sum_ij 2^(21(i+j)) (E F^T)_ij,
    one small float64 matmul; the signed matmuls of all blocks add up in
    int64 and the powers of two are applied once, in Python ints.

    No value overflows the type that holds it, for any R from 1 to n:

      * row sums |sum_j d_j g_ij| <= r_i = sum_j |g_ij| < 2^62 (`permanent`
        sends only those), and every shift, twice a sum of some of row
        i's entries, is at most 2 r_i < 2^63;
      * a product of any of a run's row sums, in whatever order numpy
        forms it and with the sign, is at most the product of those rows'
        max(r_i, 1), which `_int64_runs` keeps below 2^62;
      * a run product P splits as P & M, P >> 21 & M and P >> 42 with
        M = 2^21 - 1: two limbs in [0, 2^21) and a top limb in
        [-2^20, 2^20);
      * a half's product of j + 1 runs (|value| < 2^(62(j+1))) is one of j
        runs in 3j limbs times a run in 3: each of its 3j + 2 columns sums
        at most three limb products, each below 2^42 in magnitude, so
        |column| < 3 * 2^42; the carry into a column is at most 2^23 in
        magnitude and the sum it joins stays below 2^44 < 2^63.  After the
        pass the 3j + 2 low limbs lie in [0, 2^21) and the top limb, the
        value floored by 2^(21(3j+2)), is at most 2^(20-j) <= 2^20 in
        magnitude;
      * an entry of E F^T sums 2^FLIP_BLOCK = 2^11 limb products, each at
        most (2^21 - 1)^2 < 2^42, so it is below 2^53 and every partial
        sum of the float64 matmul is an exact integer;
      * the int64 sum of the blocks' matmuls, over at most
        2^(PERMANENT_CAP - 1 - FLIP_BLOCK) = 2^8 blocks, stays below 2^61.

    Every block intermediate goes into one workspace kept in `_WORKSPACE`
    between calls and grown, never shrunk, to the largest (n, h) seen (h
    runs per half): about (32h + n - 3) rows of 2^FLIP_BLOCK 8-byte cells,
    1.26 MB at n = 16 with h = 2.  Allocated afresh, the buffers cost every
    call 190-260 minor page faults at n = 12-16; kept, none.  A call pops
    the workspace and puts it back, so threads never share buffers.
    """
    import numpy as np

    try:
        space = _WORKSPACE.pop()
    except IndexError:                        # the first call, or another thread has it
        space = {}
    def buffer(name, *shape, dtype=np.int64):   # grown to fit, never shrunk
        size = math.prod(shape)
        if name not in space or space[name].size < size:
            space[name] = np.empty(size, dtype)
        return space[name][:size].reshape(shape)

    n = len(grid)
    g = np.array(grid, dtype=np.int64)
    m = min(n - 1, FLIP_BLOCK)
    width = 1 << m
    sums = buffer("sums", n, width)
    sums[:, 0] = g.sum(axis=1)
    sign = buffer("sign", width)
    sign[0] = 1
    for c in range(1, m + 1):
        w = 1 << (c - 1)
        np.subtract(sums[:, :w], 2 * g[:, c:c + 1], out=sums[:, w:2 * w])
        np.negative(sign[:w], out=sign[w:2 * w])
    steps = 2 * g[:, m + 1:].T[:, :, None]
    h = (len(runs) + 1) // 2                  # runs per half
    prods = buffer("prods", 2, h, width)
    prods[1, h - 1] = 1                       # the run of ones when len(runs) is odd
    split = buffer("split", 3, 2, h, width)
    conv = buffer("conv", 2, 3 * h, 2, width)
    part = buffer("part", 3 * h - 3, 2, width)
    carry = buffer("carry", 2, width)
    both = buffer("both", 3 * h, 2, width, dtype=np.float64)
    block = buffer("block", 3 * h, 3 * h, dtype=np.float64)
    total = np.zeros((3 * h, 3 * h), dtype=np.int64)
    for k in range(1 << (n - 1 - m)):
        if k:
            b = (k & -k).bit_length() - 1
            if k >> (b + 1) & 1:
                sums += steps[b]
            else:
                sums -= steps[b]
        for r, run in enumerate(runs):
            np.multiply.reduce(sums[run], axis=0, out=prods[divmod(r, h)])
        prods[0, 0] *= sign
        np.bitwise_and(prods, _LIMB_MASK, out=split[0])
        np.right_shift(prods, LIMB, out=split[1])
        split[1] &= _LIMB_MASK
        np.right_shift(prods, 2 * LIMB, out=split[2])
        limbs = split[:, :, 0]                # limb rows x halves x width
        for j in range(1, h):
            size, run = len(limbs), split[:, :, j]
            out = conv[j & 1, :size + 3]
            np.multiply(limbs, run[0], out=out[:size])
            out[size:] = 0
            out[1:size + 1] += np.multiply(limbs, run[1], out=part[:size])
            out[2:size + 2] += np.multiply(limbs, run[2], out=part[:size])
            for i in range(size + 2):
                out[i + 1] += np.right_shift(out[i], LIMB, out=carry)
            out[:-1] &= _LIMB_MASK
            limbs = out
        np.copyto(both, limbs)
        np.matmul(both[:, 0], both[:, 1].T, out=block)
        add = np.subtract if k & 1 else np.add   # in int64: block holds exact integers
        add(total, block, out=total, dtype=np.int64, casting="unsafe")
    _WORKSPACE[:] = [space]                   # keep one set, whichever call ends last
    return sum(v << LIMB * (i + j)
               for i, row in enumerate(total.tolist()) for j, v in enumerate(row))


# ── the Marcus-Ree gap ────────────────────────────────────────────────────

def marcus_ree_gap(a):
    """GapReport for a matrix: frob_sq, max_trace, gap, saturated.

    The maximal trace is `max_trace_value` of the integer grid: exact, with
    no witness built, so `saturated` is a genuine equality decision.
    """
    frob = frobenius_sq(a)
    trace = Fraction(max_trace_value(a.grid), a.den)
    gap = trace - frob
    return GapReport(frob, trace, gap, gap == 0)
