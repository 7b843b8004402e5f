"""Desk-scale experiments around saturation.

Four harnesses:

  * enumerate_grid: census of every 3 x 3 doubly stochastic matrix with
    entries in (1/d) * Z, and of the saturating ones among them.  The
    paper classifies the order-3 saturators as the orbits of six forms,
    so the saturating points are saturation's stored orbit records and
    the doubly stochastic count is the Ehrhart polynomial of B_3.

  * block_product_probe / search_products: products A @ B of two matrices
    of the form P (J_{n_1} ⊕ ... ⊕ J_{n_r}) Q.  Each factor is idempotent
    and symmetric up to the permutations, which forces the trace identity
    ||A B||_F^2 = tr(A B P') with P' = (P1 Q1 P2 Q2)^T; the probe checks
    that identity exactly and reports whether the product saturates.

  * rationality_probe: floating-point sampling (Sinkhorn-balanced positive
    matrices, permutation mixtures, and jittered known solutions, as nested
    lists of floats) screened for a near-zero gap, followed by exact
    reconstruction by reconstruct_matrix, the one crossing from floats to
    exact matrices: it snaps the leading (n-1) x (n-1) block by continued
    fractions and forces the last row and column from the sums.  A float
    hit only counts once that matrix has gap exactly 0.

  * check_asymmetry: is a matrix permutation-equivalent to NO symmetric
    matrix?  P A Q is symmetric exactly when A (Q P) is, so an exhaustive
    exact scan over single column permutations R of A decides it.

All seeded operations use SplitMix64 and are bit-reproducible for a given
seed.  numpy is imported inside the functions that use it, so
`import dstoch` and the exact `ds` verbs, the census included, do not
load it.  The float tier loads it only for Sinkhorn from order
NUMPY_MIN_N = 5 on, and otherwise runs on lists of Python floats in
numpy's summation order, so `ds probe --n 3` prints the same bytes
without it.
"""

import collections
import functools
import itertools
import math
import operator
from fractions import Fraction

from .ratmat import (DomainError, DoublyStochastic, OrderTooLarge,
                     Permutation, SplitMix64, _as_permutation, _integer, _real,
                     block_j_form, perm_matrix, validate_ds)
from .diagsum import diagonal_sum, marcus_ree_gap, max_trace_value
from .saturation import _ORBITS, CANONICAL_TAGS, canonical

DENOMINATOR_CAP = 240  # largest d; the census matched an exhaustive scan up to it
ASYMMETRY_CAP = 8
PROBE_CAP = 64  # largest order rationality_probe accepts
PROBE_TOL = 1e-9  # float gap under which a probe sample becomes a candidate
_CENSUS = sorted(_ORBITS.values(), key=lambda hit: hit[0].rows)  # row-major by value


class DenominatorTooLarge(DomainError):
    def __init__(self, d):
        self.d, self.cap = d, DENOMINATOR_CAP
        super().__init__(f"grid enumeration supports denominator <= {self.cap}, got {d}")


class EnumerationReport(collections.namedtuple(
        "EnumerationReport", "denominator total_candidates ds_count saturating")):
    """Census of the 1/d grid; saturating is a tuple of
    (DoublyStochastic, Classification) pairs."""
    __slots__ = ()


class BlockSpec(collections.namedtuple("BlockSpec", "p parts q")):
    """One factor P (J_{parts[0]} ⊕ ...) Q."""
    __slots__ = ()

    def build(self):
        return block_j_form(self.p, self.parts, self.q)


class ProductProbe(collections.namedtuple(
        "ProductProbe", "left right product frob_sq max_trace trace_perm "
                        "identity_holds saturates")):
    """One block-J product A @ B (left and right are BlockSpecs) with its
    exact gap data and the trace identity's verdict."""
    __slots__ = ()


class ProbeCandidate(collections.namedtuple(
        "ProbeCandidate", "index kind gap_float reconstructed verified")):
    """A float sample with gap under PROBE_TOL: kind is "sinkhorn",
    "mixture" or "jitter"; reconstructed is a DoublyStochastic or None;
    verified means it is exactly DS with gap exactly 0."""
    __slots__ = ()


class ProbeReport(collections.namedtuple("ProbeReport", "n samples seed tol candidates")):
    """A rationality probe run; tol echoes PROBE_TOL and candidates is a
    tuple of ProbeCandidates."""
    __slots__ = ()


# ── exhaustive grid census ────────────────────────────────────────────────

def enumerate_grid(denominator, zero_cell=None, threads=None):
    """Census of all 3 x 3 doubly stochastic matrices with entries in
    (1/denominator) * Z; classifies every saturating one.

    The saturating ones are the (member, Classification) pairs stored in
    `saturation`'s orbit table whose member's denominator divides d, kept in
    `_CENSUS` sorted once row-major by value.  zero_cell, if given as (i, j),
    restricts the census to matrices whose (i, j) entry is 0.  ds_count is
    the Ehrhart polynomial of the Birkhoff polytope B_3, MacMahon's
    C(d+4,4) + C(d+3,4) + C(d+2,4), or with a zero cell C(d+3,3): the
    facet x_ij = 0 is a unimodular tetrahedron.  total_candidates is the
    size (d+1)^4 of the grid the census covers: a 3 x 3 doubly stochastic
    matrix is fixed by its leading 2 x 2 block.  threads, if given, must
    be an integer of at least 1 and is otherwise unused; it is kept because
    the benchmark harness passes it.  A denominator above DENOMINATOR_CAP
    raises DenominatorTooLarge: up to the cap, the lookup is checked in the
    tests against an exhaustive scan of the grid.
    """
    d = _integer(denominator, "the denominator", 1)
    if d > DENOMINATOR_CAP:
        raise DenominatorTooLarge(d)
    if zero_cell is not None:
        cell = tuple(zero_cell) if hasattr(zero_cell, "__iter__") else ()
        if len(cell) != 2:
            raise DomainError(f"zero_cell must be a pair of integers, got {zero_cell!r}")
        i, j = (_integer(x, "a zero_cell index") for x in cell)
        if not (0 <= i < 3 and 0 <= j < 3):
            raise DomainError(f"zero_cell out of range: {(i, j)}")
    if threads is not None:
        _integer(threads, "threads", 1)
    found = [(m, c) for m, c in _CENSUS
             if d % m.den == 0 and (zero_cell is None or m.grid[i][j] == 0)]
    if zero_cell is None:
        ds_count = math.comb(d + 4, 4) + math.comb(d + 3, 4) + math.comb(d + 2, 4)
    else:
        ds_count = math.comb(d + 3, 3)
    return EnumerationReport(d, (d + 1) ** 4, ds_count, tuple(found))


# ── block-J products ──────────────────────────────────────────────────────

def block_product_probe(left, right):
    """Build A @ B from two block-J specs, check the trace identity
    ||A B||_F^2 = tr(A B P') exactly, and report saturation."""
    if sum(left.parts) != sum(right.parts):
        raise DomainError(
            f"order mismatch: {sum(left.parts)} vs {sum(right.parts)}")
    product = validate_ds(left.build() @ right.build())
    chain = _as_permutation(left.p).compose(left.q).compose(right.p).compose(right.q)
    trace_perm = chain.inverse()
    report = marcus_ree_gap(product)
    # tr(M P) for P = perm_matrix(trace_perm) is the diagonal sum of M at
    # trace_perm^{-1} = chain
    identity_holds = report.frob_sq == diagonal_sum(product, chain)
    return ProductProbe(left, right, product, report.frob_sq,
                        report.max_trace, trace_perm, identity_holds,
                        report.saturated)


def _random_block_spec(n, max_parts, rng):
    r = rng.randint(1, min(max_parts, n))
    cuts = list(range(1, n))
    rng.shuffle(cuts)
    cuts = sorted(cuts[:r - 1])
    parts = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
    return BlockSpec(Permutation.random(n, rng), parts, Permutation.random(n, rng))


def search_products(n, max_parts, samples, seed):
    """Seeded sample of block-J product probes (Q: when does a product of
    two block-J forms saturate?).  Deterministic per seed."""
    n, max_parts = _integer(n, "n", 1), _integer(max_parts, "max_parts", 1)
    samples = _integer(samples, "samples", 0)
    if n > 12:
        raise OrderTooLarge(n, 12, "product search")
    rng = SplitMix64(seed)
    probes = []
    for _ in range(samples):
        left = _random_block_spec(n, max_parts, rng)
        right = _random_block_spec(n, max_parts, rng)
        probes.append(block_product_probe(left, right))
    return probes


# ── float tier: Sinkhorn, reconstruction, probing ─────────────────────────

NUMPY_MIN_N = 5  # from this order on, Sinkhorn runs in numpy


def sinkhorn(x):
    """Balance a nonnegative matrix with no zero row or column: alternately
    normalize rows and columns until every row sum is within 1e-12 of 1
    (or 10,000 passes).  Returns nested lists of floats at every order.

    A negative or non-finite entry, a zero row or a zero column raises
    DomainError: no scaling balances such a matrix, and the passes would
    end in NaN or in negative "probabilities".  So does a non-real entry.

    Only the rows need the test.  Each pass ends by dividing every column
    by its own sum, and with no cancellation among nonnegative entries the
    recomputed column sums are then within about n * 2^-52 of 1, far below
    1e-12 at every order the probe runs.

    Two bodies run the same arithmetic.  Below order NUMPY_MIN_N = 5,
    `_sinkhorn_floats` runs on lists of Python floats, and from order 5 on
    `_sinkhorn_numpy` on an ndarray.  On tiny matrices numpy's per-call
    overhead costs what the loop saves: per pass on a stalling input, on a
    shared 2-core Xeon, n = 3 takes 7.5-10 us in floats against 12-13 in
    numpy, n = 4 about 13 against 11-12, and n = 5 17 against 13.  At
    n <= 4 the float body also spares `ds probe` numpy's import (about
    70 ms).  The results are bit-identical, because the float body adds
    in numpy's order: a row of fewer than 8 doubles left to right (numpy's
    pairwise sum below its 8-accumulator block, which its row sums take
    from order 8 on), the column sums one row after another; the divisions
    are elementwise in both.

    A matrix whose support decomposes (a block sum such as the identity
    plus 1e-9 noise) balances only slowly and runs all 10,000 passes;
    the probe's jittered samples are such matrices.
    """
    rows = [[_real(v, "a Sinkhorn entry") for v in row] for row in x]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DomainError("Sinkhorn needs a square matrix")
    if not all(0 <= v < math.inf for row in rows for v in row):
        raise DomainError("Sinkhorn needs finite nonnegative entries")
    if not all(map(any, rows)) or not all(map(any, zip(*rows))):
        raise DomainError("Sinkhorn needs no zero row and no zero column")
    return _balance(rows)


def _balance(rows):
    """sinkhorn on a positive list-of-lists matrix, without the checks: the
    probe builds its samples positive."""
    if len(rows) < NUMPY_MIN_N:
        return _sinkhorn_floats(rows)
    return _sinkhorn_numpy(rows).tolist()


def _sinkhorn_floats(x):
    # reduce(add, row) is _pairwise_sum on fewer than 8 values, inlined
    reduce, add = functools.reduce, operator.add
    for _ in range(10000):
        sums = [reduce(add, row) for row in x]
        x = [[v / s for v in row] for row, s in zip(x, sums)]
        sums = [reduce(add, col) for col in zip(*x)]
        x = [[v / s for v, s in zip(row, sums)] for row in x]
        if all(abs(reduce(add, row) - 1.0) < 1e-12 for row in x):
            break
    return x


def _sinkhorn_numpy(x):
    import numpy as np
    x = np.array(x, dtype=float)
    for _ in range(10000):
        x /= x.sum(axis=1, keepdims=True)
        x /= x.sum(axis=0, keepdims=True)
        if np.abs(x.sum(axis=1) - 1.0).max() < 1e-12:
            break
    return x


def _pairwise_sum(values):
    """numpy's float64 sum of a list, in its order: left to right below 8
    values; up to 128, eight interleaved accumulators, combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest left
    to right; above, the sum of two halves, the first n // 2 cut down to a
    multiple of 8.  (The builtin sum compensates from Python 3.12 on.)"""
    n = len(values)
    if n < 8:
        return functools.reduce(operator.add, values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    r = values[:8]
    tail = n - n % 8
    for i in range(8, tail, 8):
        r = [a + b for a, b in zip(r, values[i:i + 8])]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return functools.reduce(operator.add, values[tail:], total)


def _frob_sq(rows):
    """Squared Frobenius norm of a list-of-lists float matrix, bit-identical
    to numpy's (x * x).sum()."""
    return _pairwise_sum([v * v for row in rows for v in row])


_SNAP_MAX_DEN = 10 ** 6  # largest denominator reconstruct_matrix snaps to


def _snap(x, tol):
    """The first continued-fraction convergent of the finite float x within
    tol of it, or None if the denominators pass _SNAP_MAX_DEN first.

    This is not always the smallest-denominator rational within tol: an
    intermediate fraction between two convergents can get there sooner.
    For x = 0.0640314382269973 and tol = 0.0301 it returns 1/15, though
    1/11 is within tol.
    """
    f = Fraction(x)
    num, den = f.numerator, f.denominator
    hm2, km2, hm1, km1 = 0, 1, 1, 0
    while True:
        a = num // den
        h = a * hm1 + hm2
        k = a * km1 + km2
        if k > _SNAP_MAX_DEN:
            return None
        cand = Fraction(h, k)
        if abs(cand - f) <= tol:
            return cand
        hm2, km2, hm1, km1 = hm1, km1, h, k
        num, den = den, num - a * den


def reconstruct_matrix(x, tol=1e-7):
    """Round a near-balanced float matrix to an exactly doubly stochastic
    rational one: snap each cell of the leading (n-1) x (n-1) block to its
    first continued-fraction convergent within tol (denominators up to
    10^6), then force the last column and row from the sum constraints.
    None if an entry is not finite, an entry refuses to snap or a forced
    entry comes out negative.  An empty or non-square x, an entry that is
    not a real number, or a tol that is not a finite number >= 0, raises
    DomainError."""
    tol = _real(tol, "tol")
    if not 0 <= tol < math.inf:
        raise DomainError(f"tol must be a finite number >= 0, got {tol!r}")
    x = [[_real(v, "a matrix entry") for v in row] for row in x]
    n = len(x)
    if not n or any(len(row) != n for row in x):
        raise DomainError("reconstruct_matrix needs a non-empty square matrix")
    if not all(math.isfinite(v) for row in x for v in row):
        return None
    rows = []
    for i in range(n - 1):
        row = [_snap(cell, tol) for cell in x[i][:n - 1]]
        if None in row:
            return None
        rows.append(row + [1 - sum(row)])
    last = [1 - sum(row[j] for row in rows) for j in range(n - 1)]
    rows.append(last + [1 - sum(last)])
    if any(cell < 0 for row in rows for cell in row):
        return None
    return DoublyStochastic(rows)


def _probe_sample(n, kind, rng):
    if kind == "sinkhorn":
        raw = [[0.1 + 0.9 * rng.random() for _ in range(n)] for _ in range(n)]
        return _balance(raw)
    if kind == "mixture":
        k = rng.randint(1, 4)
        weights = [0.05 + rng.random() for _ in range(k)]
        # left to right: the builtin sum compensates from Python 3.12 on
        total = functools.reduce(operator.add, weights)
        x = [[0.0] * n for _ in range(n)]
        for wgt in weights:
            p = Permutation.random(n, rng)
            for i in range(n):
                x[i][p(i)] += wgt / total
        return x
    # jitter: a known exact solution nudged off itself, then rebalanced
    if n == 3:
        tag = CANONICAL_TAGS[rng.below(len(CANONICAL_TAGS))]
        base = (perm_matrix(Permutation.random(3, rng))
                @ canonical(tag)
                @ perm_matrix(Permutation.random(3, rng)))
    else:
        base = _random_block_spec(n, n, rng).build()
    noise = [[rng.random() for _ in range(n)] for _ in range(n)]
    return _balance([[b + 1e-9 * (r + 0.1) for b, r in zip(row, noise_row)]
                     for row, noise_row in zip(base.to_floats(), noise)])


def rationality_probe(n, samples, seed):
    """Hunt for float matrices with near-zero gap and try to certify them
    as exact rational solutions.

    Every sample gets a float gap (Frobenius norm squared vs maximal
    trace, the latter via the assignment solver on floats).  Samples under
    PROBE_TOL = 1e-9 become candidates: reconstruct_matrix turns each into
    an exactly doubly stochastic matrix, verified when its gap is exactly
    0, or reports a failed reconstruction.  Orders above PROBE_CAP are
    refused.
    """
    n, samples = _integer(n, "n", 1), _integer(samples, "samples", 0)
    if n > PROBE_CAP:
        raise OrderTooLarge(n, PROBE_CAP, "rationality probe")
    rng = SplitMix64(seed)
    kinds = ("sinkhorn", "mixture", "jitter")
    candidates = []
    for index in range(samples):
        kind = kinds[rng.below(3)]
        x = _probe_sample(n, kind, rng)
        gap = max_trace_value(x) - _frob_sq(x)
        if gap >= PROBE_TOL:
            continue
        exact = reconstruct_matrix(x)
        verified = exact is not None and marcus_ree_gap(exact).saturated
        candidates.append(ProbeCandidate(index, kind, float(gap), exact, verified))
    return ProbeReport(n, samples, seed, PROBE_TOL, tuple(candidates))


# ── symmetry under permutation equivalence ────────────────────────────────

def check_asymmetry(a):
    """True iff NO pair of permutations P, Q makes P a Q symmetric.

    P a Q = (P a Q)^T is equivalent to a R = (a R)^T for R = Q P (multiply
    by P^T on the left and P on the right), and R = Q with P = I gives the
    converse, so it suffices to scan the single permutations R.
    Exhaustive exact scan on the integer grid (one common denominator):
    factorial in n, refused above ASYMMETRY_CAP.
    """
    n = a.n
    if n > ASYMMETRY_CAP:
        raise OrderTooLarge(n, ASYMMETRY_CAP, "symmetry scan")
    rows = a.grid
    pairs = list(itertools.combinations(range(n), 2))
    for c in itertools.permutations(range(n)):
        # entry (i, j) of a R is rows[i][c[j]]
        for i, j in pairs:
            if rows[i][c[j]] != rows[j][c[i]]:
                break
        else:
            return False
    return True
