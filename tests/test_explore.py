"""Census, block-J products, float probing, and the symmetry scan."""

import itertools
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

from dstoch import (
    BlockSpec,
    DenominatorTooLarge,
    DomainError,
    DoublyStochastic,
    EnumerationReport,
    OrderTooLarge,
    Permutation,
    RatMatrix,
    SplitMix64,
    all_permutations,
    block_product_probe,
    canonical,
    check_asymmetry,
    classify3,
    direct_sum,
    enumerate_grid,
    frobenius_sq,
    make_jn,
    marcus_ree_gap,
    perm_matrix,
    random_ds,
    rationality_probe,
    reconstruct_matrix,
    search_products,
    sinkhorn,
    validate_ds,
)
from dstoch import ratmat, saturation
from dstoch.explore import (ASYMMETRY_CAP, DENOMINATOR_CAP, NUMPY_MIN_N,
                            PROBE_CAP, _frob_sq, _pairwise_sum,
                            _sinkhorn_numpy, _snap)

ID3 = Permutation.identity(3)
ID4 = Permutation.identity(4)
ID9 = Permutation.identity(9)


def _orbit_union():
    orbit = set()
    for tag in ("I3", "J3", "I1_J2", "S", "T", "R"):
        rep = canonical(tag)
        for p in all_permutations(3):
            for q in all_permutations(3):
                orbit.add(validate_ds(perm_matrix(p) @ rep @ perm_matrix(q)))
    return orbit


# ── census ────────────────────────────────────────────────────────────────

def test_enumerate_d1_is_the_permutation_matrices():
    report = enumerate_grid(1)
    assert report.total_candidates == 16
    assert report.ds_count == 6
    assert {m for m, _ in report.saturating} == {
        perm_matrix(p) for p in all_permutations(3)}


def test_enumerate_d2():
    report = enumerate_grid(2)
    found = {m for m, _ in report.saturating}
    expected = {m for m in _orbit_union()
                if all(x.denominator <= 2 for x in m.entries())}
    assert found == expected
    assert {c.form for _, c in report.saturating} == {"I3", "T", "I1_J2"}


def test_enumerate_monotone_under_denominator_divisibility():
    small = {m for m, _ in enumerate_grid(2).saturating}
    large = {m for m, _ in enumerate_grid(10).saturating}
    assert small <= large


def test_enumerate_zero_cell_restriction():
    report = enumerate_grid(4, zero_cell=(1, 0))
    assert all(m[1, 0] == 0 for m, _ in report.saturating)
    full = enumerate_grid(4)
    assert report.ds_count < full.ds_count
    expected = {m for m, _ in full.saturating if m[1, 0] == 0}
    assert {m for m, _ in report.saturating} == expected


def test_enumerate_threads_do_not_change_output():
    # threads is accepted and checked, and changes nothing
    reports = [enumerate_grid(6, threads=k) for k in (1, 2, np.int64(2))]
    assert reports == [enumerate_grid(6)] * 3


def test_enumerate_cap():
    with pytest.raises(DenominatorTooLarge):
        enumerate_grid(DENOMINATOR_CAP + 1)


@pytest.mark.parametrize("threads", [0, -2])
def test_enumerate_refuses_threads_below_one(threads):
    with pytest.raises(DomainError, match="threads"):
        enumerate_grid(4, threads=threads)


@pytest.mark.parametrize("zero_cell", [(3, 0), (0, -1), (np.int64(0), 3)])
def test_enumerate_refuses_zero_cell_out_of_range(zero_cell):
    with pytest.raises(DomainError, match="out of range"):
        enumerate_grid(4, zero_cell=zero_cell)


@pytest.mark.parametrize("denominator, zero_cell, threads", [
    (3.7, None, None), (np.float64(4.0), None, None), ("4", None, None),
    (4, (0.5, 1), None), (4, (1, F(0)), None), (4, (np.float64(1), 0), None),
    (4, (1,), None), (4, (1, 0, 5), None), (4, 1, None), (4, None, "2"),
    (4, None, 2.5)],
    ids=["float", "numpy-float", "str", "cell-float", "cell-fraction",
         "cell-numpy-float", "cell-one-value", "cell-three-values",
         "cell-not-a-pair", "threads-str", "threads-float"])
def test_enumerate_refuses_non_integer_arguments(denominator, zero_cell,
                                                 threads):
    with pytest.raises(DomainError, match="integers"):
        enumerate_grid(denominator, zero_cell=zero_cell, threads=threads)


def test_enumerate_accepts_numpy_integers():
    assert (enumerate_grid(np.int64(4), zero_cell=(np.int32(1), np.int64(0)),
                           threads=np.int64(2))
            == enumerate_grid(4, zero_cell=(1, 0), threads=2))
    assert enumerate_grid(np.int16(7)) == enumerate_grid(7)


ZERO_CELLS = [None] + [(i, j) for i in range(3) for j in range(3)]


def _reference_census(d, zero_cell):
    """The census as a plain sweep of the whole (d+1)^4 grid, one x11 slice
    at a time: every doubly stochastic point is tested for saturation."""
    ds_count, cells = 0, []
    r = np.arange(d + 1, dtype=np.int64)
    x12 = r[:, None, None]
    x21 = r[None, :, None]
    x22 = r[None, None, :]
    for x11 in range(d + 1):
        x13 = d - x11 - x12
        x23 = d - x21 - x22
        x31 = d - x11 - x21
        x32 = d - x12 - x22
        x33 = x11 + x12 + x21 + x22 - d
        ok = (x13 >= 0) & (x23 >= 0) & (x31 >= 0) & (x32 >= 0) & (x33 >= 0)
        if zero_cell is not None:
            cell = [[x11, x12, x13], [x21, x22, x23],
                    [x31, x32, x33]][zero_cell[0]][zero_cell[1]]
            ok &= (cell == 0)
        ds_count += int(ok.sum())
        frob = (x11 * x11 + x12 * x12 + x13 * x13 + x21 * x21 + x22 * x22
                + x23 * x23 + x31 * x31 + x32 * x32 + x33 * x33)
        best = np.maximum.reduce([
            x11 + x22 + x33, x11 + x23 + x32, x12 + x21 + x33,
            x12 + x23 + x31, x13 + x21 + x32, x13 + x22 + x31,
        ])
        sat = ok & (frob == d * best)
        cells += [(x11, int(i), int(j), int(k)) for i, j, k in np.argwhere(sat)]
    saturating = []
    for x11, x12, x21, x22 in cells:
        m = DoublyStochastic([
            [F(x11, d), F(x12, d), F(d - x11 - x12, d)],
            [F(x21, d), F(x22, d), F(d - x21 - x22, d)],
            [F(d - x11 - x21, d), F(d - x12 - x22, d),
             F(x11 + x12 + x21 + x22 - d, d)]])
        saturating.append((m, classify3(m)))
    return EnumerationReport(d, (d + 1) ** 4, ds_count, tuple(saturating))


def _scanned_triples(d, x11s):
    """The (x11, x12, x21) triples the census scans in the x11 slices of
    x11s, as three int32 arrays: per slice, x12 <= x21 and 2 x21 <= m with
    m = d - x11.

    Ordered by x21, then x12, the pairs x12 <= x21 form one triangle, and
    a slice scans its prefix x21 <= h = m // 2, of length
    (h + 1) (h + 2) / 2.  So each slice's pairs are read off the largest
    slice's triangle by position, without a mask over the square.
    """
    import numpy as np
    x11s = np.asarray(x11s, dtype=np.int32)
    h = (d - x11s) // 2
    sizes = (h + 1) * (h + 2) // 2
    top = int(h.max())
    # the triangle: x21 = j holds the x12 = 0..j, from position j (j + 1) / 2
    x21 = np.repeat(np.arange(top + 1, dtype=np.int32), np.arange(1, top + 2))
    x12 = np.arange(len(x21), dtype=np.int32) - x21 * (x21 + 1) // 2
    # position of each scanned pair in its slice's prefix
    pos = (np.arange(int(sizes.sum()), dtype=np.int32)
           - np.repeat(np.cumsum(sizes, dtype=np.int32) - sizes, sizes))
    return np.repeat(x11s, sizes), x12[pos], x21[pos]


def _census_block(d, x11s):
    """Census of the x11 slices in x11s; returns (ds_count, saturating cells).

    With (x11, x12, x21) fixed and t = x22 free, the sums force
    x13 = d - x11 - x12 and x31 = d - x11 - x21, and x23 = a - t,
    x32 = b - t, x33 = c + t with a = d - x21, b = d - x12 and
    c = x11 + x12 + x21 - d.  The doubly stochastic t form the interval
    [max(0, -c), min(a, b)].  In integer units d^2 ||A||^2 =
    K + 2 (c - a - b) t + 4 t^2 and each diagonal sum is alpha + beta t, so
    saturation at a diagonal is an integer quadratic in t.  Its integer
    roots inside the interval are the only candidates; each is re-checked
    exactly against the maximal diagonal.

    The transpose and the swaps of the last two rows and of the last two
    columns fix x11 and map the grid's doubly stochastic points one-to-one
    onto themselves, keeping the Frobenius norm and the multiset of
    diagonal sums, hence saturation.  On the square [0, m]^2 of
    (x12, x21), with m = d - x11, the eight maps they generate are the
    symmetries of the square (x12 -> m - x12, x21 -> m - x21,
    x12 <-> x21), so only one (x12, x21) per orbit is scanned: x12 <= x21
    and 2 x21 <= m, a prefix of one triangle (_scanned_triples).  Each
    triple's count is weighted by its orbit size, and each saturating cell
    is returned with its images under the eight maps.

    The arithmetic runs in int32.  Every quantity is bounded by a small
    multiple of d^2: |q| <= 8 d, 0 <= K <= 8 d^2 and -d^2 <= d alpha <=
    3 d^2 (alpha, a diagonal sum at t = 0, can be negative when 0 lies
    outside the interval), so the discriminant q^2 - 16 (K - d alpha) has
    |disc| <= 64 d^2 + 144 d^2 = 208 d^2, 12.0 million at
    d = DENOMINATOR_CAP, far below 2^31.  Only the doubly stochastic
    count, about 4.3e8 at the cap, is summed in int64.
    """
    import numpy as np
    x11, x12, x21 = _scanned_triples(d, x11s)
    m = d - x11
    x13 = m - x12
    x31 = m - x21
    a, b, c = d - x21, d - x12, x11 + x12 + x21 - d
    lo = np.maximum(0, -c)
    hi = np.minimum(a, b)
    orbit_size = (1 + (2 * x12 != m)) * (1 + (2 * x21 != m)) * (1 + (x12 != x21))
    ds_count = int((orbit_size * np.maximum(hi - lo + 1, 0)).sum(dtype=np.int64))
    k = (x11 * x11 + x12 * x12 + x13 * x13 + x21 * x21 + x31 * x31
         + a * a + b * b + c * c)
    # diagonals x11 x22 x33, x11 x23 x32, x12 x21 x33, x12 x23 x31,
    # x13 x21 x32, x13 x22 x31 as alpha + beta t
    diagonals = ((x11 + c, 2), (x11 + a + b, -2), (x12 + x21 + c, 1),
                 (x12 + x31 + a, -1), (x13 + x21 + b, -1), (x13 + x31, 1))
    linear = 2 * (c - a - b)
    rows, roots = [], []
    for alpha, beta in diagonals:
        # 4 t^2 + q t + (k - d alpha) = 0
        q = linear - d * beta
        disc = q * q - 16 * (k - d * alpha)
        # disc < 2^53, so the float root of a perfect square is exact
        root = np.rint(np.sqrt(np.maximum(disc, 0))).astype(np.int32)
        idx = np.flatnonzero(root * root == disc)
        root, q = root[idx], q[idx]
        for num in (root - q, -root - q):
            t = num // 8
            hit = (num % 8 == 0) & (lo[idx] <= t) & (t <= hi[idx])
            rows.append(idx[hit])
            roots.append(t[hit])
    rows = np.concatenate(rows)
    t = np.concatenate(roots)
    frob = k[rows] + linear[rows] * t + 4 * t * t
    best = np.maximum.reduce([alpha[rows] + beta * t for alpha, beta in diagonals])
    sat = frob == d * best
    rows, t = rows[sat], t[sat]
    x11, m = x11[rows], m[rows]
    # the swaps of the last two columns and rows, alone and together, of
    # (x11, p, q, t) and of its transpose
    images = []
    for p, q in ((x12[rows], x21[rows]), (x21[rows], x12[rows])):
        images += [(p, q, t), (m - p, q, d - q - t), (p, m - q, d - p - t),
                   (m - p, m - q, p + q + t - m)]
    cells = np.concatenate([np.stack([x11, p, q, u], axis=1) for p, q, u in images])
    return ds_count, [tuple(cell) for cell in cells.tolist()]


def _scan_census(d, zero_cell):
    """The census by exhaustive scan, the oracle for enumerate_grid's lookup
    of the orbit members: every x11 slice, O(d^3) integer-root work in all,
    or the x11 = 0 slice mapped onto the zero cell."""
    if zero_cell is not None:
        i, j = zero_cell
    # x11 slices per numpy pass.  A pass holds all its int64 arrays at once,
    # so to bound peak memory it is kept to about 8 * 61^2 triples (a slice
    # scans about (d + 1 - x11)^2 / 8): the whole d = 60 census is one pass,
    # and passes shrink as (d + 1)^2 grows, to 4 slices at d = 240.
    step = max(1, 64 * 61 ** 2 // (d + 1) ** 2)
    blocks = [range(1)] if zero_cell is not None else [
        range(lo, min(lo + step, d + 1)) for lo in range(0, d + 1, step)]
    passes = [_census_block(d, b) for b in blocks]
    ds_count = sum(c for c, _ in passes)
    # a point can be a root at more than one diagonal, and the image of a
    # cell under more than one of the eight maps
    grids = [[[x11, x12, d - x11 - x12], [x21, x22, d - x21 - x22],
              [d - x11 - x21, d - x12 - x22, x11 + x12 + x21 + x22 - d]]
             for x11, x12, x21, x22 in {c for _, found in passes for c in found}]
    if zero_cell is not None:
        r, c = [i, 1, 2], [j, 1, 2]
        r[i] = c[j] = 0  # row order with 0 <-> i, column order with 0 <-> j
        grids = [[[g[a][b] for b in c] for a in r] for g in grids]
    # row-major order of the rows is the order of (x11, x12, x21, x22)
    found = [DoublyStochastic.of_grid(g, d) for g in sorted(grids)]
    return EnumerationReport(d, (d + 1) ** 4, ds_count,
                             tuple((m, classify3(m)) for m in found))


def test_enumerate_lookup_matches_the_scan():
    cases = [(d, None) for d in (*range(1, 61), 120, 240)]
    cases += [(d, zero_cell) for d in range(1, 25) for zero_cell in ZERO_CELLS[1:]]
    assert len(cases) == 278
    for d, zero_cell in cases:
        assert enumerate_grid(d, zero_cell=zero_cell) == _scan_census(d, zero_cell), \
            (d, zero_cell)


def test_enumerate_hands_back_the_stored_records(monkeypatch):
    # the oracle itself builds and classifies, so it runs first
    expected = {zero_cell: _scan_census(60, zero_cell) for zero_cell in (None, (2, 1))}

    def refuse(*args):
        raise AssertionError("enumerate_grid built or classified a matrix")

    monkeypatch.setattr(saturation, "classify3", refuse)
    monkeypatch.setattr(ratmat.DoublyStochastic, "of_grid", refuse)
    for zero_cell, report in expected.items():
        assert enumerate_grid(60, zero_cell=zero_cell) == report, zero_cell


@pytest.mark.parametrize("zero_cell", ZERO_CELLS)
def test_enumerate_matches_full_grid_sweep(zero_cell):
    for d in range(1, 13):
        expected = _reference_census(d, zero_cell)
        assert enumerate_grid(d, zero_cell=zero_cell) == expected, d


def _fixing_x11(d):
    """The eight maps of (x11, x12, x21, x22) that fix x11, written from the
    three generators: with m = d - x11, x12 -> m - x12 (the swap of the
    last two columns), x21 -> m - x21 (of the last two rows) and
    x12 <-> x21 (the transpose)."""
    def cols(x11, x12, x21, x22):
        return x11, d - x11 - x12, x21, d - x21 - x22

    def rows(x11, x12, x21, x22):
        return x11, x12, d - x11 - x21, d - x12 - x22

    def transpose(x11, x12, x21, x22):
        return x11, x21, x12, x22

    maps = []
    for c, r, t in itertools.product((False, True), repeat=3):
        def g(x, c=c, r=r, t=t):
            x = cols(*x) if c else x
            x = rows(*x) if r else x
            return transpose(*x) if t else x
        maps.append(g)
    return maps


def _grid_matrix(d, x11, x12, x21, x22):
    return [[x11, x12, d - x11 - x12], [x21, x22, d - x21 - x22],
            [d - x11 - x21, d - x12 - x22, x11 + x12 + x21 + x22 - d]]


def test_maps_fixing_x11_keep_norm_and_diagonal_sums():
    perms = list(itertools.permutations(range(3)))
    for d in range(1, 9):
        points = {x for x in itertools.product(range(d + 1), repeat=4)
                  if min(min(row) for row in _grid_matrix(d, *x)) >= 0}
        maps = _fixing_x11(d)
        images = [{x: g(x) for x in points} for g in maps]
        if d > 1:
            assert len({tuple(sorted(im.items())) for im in images}) == 8
        for image in images:
            assert set(image.values()) == points  # onto the DS points
            for x, y in image.items():
                a, b = _grid_matrix(d, *x), _grid_matrix(d, *y)
                assert y[0] == x[0]
                assert (sum(v * v for row in a for v in row)
                        == sum(v * v for row in b for v in row))
                assert (sorted(sum(a[i][p[i]] for i in range(3)) for p in perms)
                        == sorted(sum(b[i][p[i]] for i in range(3)) for p in perms))


def _scanned_pairs(m):
    """The (x12, x21) the census scans in a slice with m = d - x11, as a
    mask over the square [0, m]^2: x12 <= x21 and 2 x21 <= m."""
    x12, x21 = np.nonzero(np.tri(m + 1, dtype=bool).T)  # x12 <= x21
    keep = 2 * x21 <= m
    return x12[keep], x21[keep]


def test_scanned_orbits_tile_the_square():
    # The census scans x12 <= x21, 2 x21 <= m of the square [0, m]^2 and
    # weights each point by (1 + [2 x12 != m]) (1 + [2 x21 != m])
    # (1 + [x12 != x21]); m = d - x11 runs up to DENOMINATOR_CAP.
    for m in range(DENOMINATOR_CAP + 2):
        x12, x21 = _scanned_pairs(m)
        weight = ((1 + (2 * x12 != m)) * (1 + (2 * x21 != m))
                  * (1 + (x12 != x21)))
        assert weight.sum() == (m + 1) ** 2, m
        codes = np.sort([p * (m + 1) + q for p, q in (
            (x12, x21), (m - x12, x21), (x12, m - x21), (m - x12, m - x21),
            (x21, x12), (m - x21, x12), (x21, m - x12), (m - x21, m - x12))],
            axis=0)
        orbit_size = 1 + (np.diff(codes, axis=0) != 0).sum(axis=0)
        assert (orbit_size == weight).all(), m
        # the orbits are disjoint and cover the square
        assert len(np.unique(codes)) == (m + 1) ** 2, m


def test_scanned_triples_are_the_masked_pairs():
    # the triangle-prefix builder, slice by slice against the mask, for all
    # x11 at once and for a pass that starts past x11 = 0
    for d in list(range(1, 61)) + [122, 240]:
        for x11s in (range(d + 1), range(d // 3, d + 1)):
            x11, x12, x21 = _scanned_triples(d, x11s)
            assert x11.dtype == x12.dtype == x21.dtype == np.int32
            assert np.array_equal(np.unique(x11), np.array(x11s))
            for s in x11s:
                here = x11 == s
                got = sorted(zip(x12[here].tolist(), x21[here].tolist()))
                want = sorted(zip(*(v.tolist() for v in _scanned_pairs(d - s))))
                assert got == want, (d, s)


def test_census_arithmetic_fits_int32():
    # The census kernel runs in int32.  Recompute its largest intermediates
    # in int64 over every (x12, x21) of every slice at the cap (a superset
    # of the scanned triples): q^2, 16 (K - d alpha) and the discriminant
    # of each diagonal's quadratic 4 t^2 + q t + (K - d alpha).
    d = DENOMINATOR_CAP
    largest = {"q^2": 0, "16(K - d alpha)": 0, "disc": 0}
    r = np.arange(d + 1, dtype=np.int64)
    for x11 in range(d + 1):
        m = d - x11
        x12, x21 = r[:m + 1, None], r[None, :m + 1]
        x13, x31 = m - x12, m - x21
        a, b, c = d - x21, d - x12, x11 + x12 + x21 - d
        k = (x11 * x11 + x12 * x12 + x13 * x13 + x21 * x21 + x31 * x31
             + a * a + b * b + c * c)
        for alpha, beta in ((x11 + c, 2), (x11 + a + b, -2), (x12 + x21 + c, 1),
                            (x12 + x31 + a, -1), (x13 + x21 + b, -1),
                            (x13 + x31, 1)):
            q = 2 * (c - a - b) - d * beta
            constant = 16 * (k - d * alpha)
            for name, v in (("q^2", q * q), ("16(K - d alpha)", constant),
                            ("disc", q * q - constant)):
                largest[name] = max(largest[name], int(np.abs(v).max()))
    for name, v in largest.items():
        assert v <= 208 * d * d < 2 ** 31, (name, v)


@pytest.fixture(scope="module")
def census_60():
    return enumerate_grid(60)


def _zero_slice_count(d):
    """DS points of the x11 = 0 slice: with x12, x21 fixed, x22 runs over
    [max(0, d - x12 - x21), min(d - x12, d - x21)]."""
    return sum(max(0, min(d - x12, d - x21) - max(0, d - x12 - x21) + 1)
               for x12 in range(d + 1) for x21 in range(d + 1))


@pytest.mark.parametrize("zero_cell", ZERO_CELLS[1:])
def test_enumerate_zero_cell_is_the_filtered_census(census_60, zero_cell):
    i, j = zero_cell
    report = enumerate_grid(60, zero_cell=zero_cell)
    assert report.saturating == tuple((m, c) for m, c in census_60.saturating
                                      if m[i, j] == 0)
    assert report.ds_count == _zero_slice_count(60) == 39_711
    assert report.total_candidates == census_60.total_candidates


def test_enumerate_reports_carry_their_scaled_grid():
    # each reported point's (grid, den) is its cells over d, both cut by their
    # gcd; it must be what a fresh construction derives from the rows
    cases = [(d, None) for d in (*range(1, 62), 122)]
    cases += [(d, zero_cell) for d in (7, 60) for zero_cell in ZERO_CELLS[1:]]
    for d, zero_cell in cases:
        for m, _ in enumerate_grid(d, zero_cell=zero_cell).saturating:
            fresh = DoublyStochastic(m.rows)
            assert type(m) is DoublyStochastic and m.rows == fresh.rows
            assert (m.grid, m.den) == (fresh.grid, fresh.den), (d, zero_cell, m)


def test_enumerate_ds_count_matches_macmahon():
    # MacMahon: the 3 x 3 nonnegative integer matrices with every row and
    # column summing to d number C(d+4,4) + C(d+3,4) + C(d+2,4)
    # above d = 60 the scan oracle runs only at 120 and 240, so the larger
    # d here are checked against the closed form alone
    for d in (1, 2, 3, 5, 7, 11, 16, 29, 47, 60, 61, 122, 239, 240):
        expected = comb(d + 4, 4) + comb(d + 3, 4) + comb(d + 2, 4)
        assert enumerate_grid(d).ds_count == expected
    assert comb(64, 4) + comb(63, 4) + comb(62, 4) == 1_788_886


def test_enumerate_d120_is_the_orbit_union():
    # every orbit entry has a denominator dividing 60, so the 1/120 grid
    # holds all 49 orbit members and must find nothing else
    report = enumerate_grid(120)
    assert report.ds_count == 27_243_271
    found = {m for m, _ in report.saturating}
    assert len(report.saturating) == 49
    assert found == _orbit_union()


def test_enumerate_d240_is_the_orbit_union():
    # d = DENOMINATOR_CAP, the largest denominator the census takes
    report = enumerate_grid(240)
    assert report.ds_count == 425_196_541
    assert {m for m, _ in report.saturating} == _orbit_union()
    assert len(report.saturating) == 49


# ── block-J products ──────────────────────────────────────────────────────

def test_probe_s_factorization():
    probe = block_product_probe(BlockSpec(ID3, (1, 2), ID3),
                                BlockSpec(Permutation([2, 0, 1]), (1, 2), ID3))
    assert probe.product == canonical("S")
    assert probe.identity_holds and probe.saturates


def test_probe_d():
    probe = block_product_probe(BlockSpec(ID4, (1, 3), ID4),
                                BlockSpec(ID4, (2, 2), ID4))
    assert probe.frob_sq == F(4, 3)
    assert probe.max_trace == F(4, 3)
    assert probe.identity_holds and probe.saturates


def test_probe_nine_by_nine():
    probe = block_product_probe(BlockSpec(ID9, (3, 3, 3), ID9),
                                BlockSpec(ID9, (2, 3, 4), ID9))
    assert probe.frob_sq == F(37, 18)
    assert probe.max_trace == F(25, 12)
    assert probe.identity_holds and not probe.saturates


def test_search_products_deterministic_and_identity_always_holds():
    a = search_products(6, 3, samples=40, seed=555)
    b = search_products(6, 3, samples=40, seed=555)
    assert a == b
    assert all(p.identity_holds for p in a)
    assert all(validate_ds(p.product) for p in a)
    # both outcomes occur at this order and seed
    assert any(p.saturates for p in a) and any(not p.saturates for p in a)


def test_search_products_trace_identity_across_orders():
    rng = SplitMix64(808)
    for n in range(3, 10):
        for probe in search_products(n, 4, samples=10, seed=rng.next64()):
            assert probe.identity_holds


# ── float tier ────────────────────────────────────────────────────────────

def test_sinkhorn_balances():
    rng = SplitMix64(1)
    x = np.array([[0.2 + rng.random() for _ in range(5)] for _ in range(5)])
    b = np.asarray(sinkhorn(x))
    assert np.abs(b.sum(axis=0) - 1).max() < 1e-12
    assert np.abs(b.sum(axis=1) - 1).max() < 1e-12


def test_sinkhorn_floats_match_the_numpy_body():
    """Below NUMPY_MIN_N the float body runs; it adds in numpy's order, so
    it returns the numpy body's doubles bit for bit, from list or ndarray
    input.  From NUMPY_MIN_N on, sinkhorn is the numpy body."""
    rng = SplitMix64(0x51A4)
    for n in range(1, NUMPY_MIN_N + 1):
        for _ in range(6):
            x = [[0.05 + rng.random() for _ in range(n)] for _ in range(n)]
            ref = _sinkhorn_numpy(x).tolist()
            assert sinkhorn(x) == sinkhorn(np.array(x)) == ref
    # jittered decomposable bases stall: all 10,000 passes, still identical
    for base, as_input in ((canonical("I3"), list), (canonical("I1_J2"), np.array)):
        x = [[b + 1e-9 * (rng.random() + 0.1) for b in row]
             for row in base.to_floats()]
        out = sinkhorn(as_input(x))
        assert out == _sinkhorn_numpy(x).tolist()
        assert max(abs(sum(row) - 1) for row in out) >= 1e-12  # never converged


def test_pairwise_sum_is_numpys_sum():
    """numpy's order at every length the probe reaches, up to PROBE_CAP^2:
    the 8-accumulator block from 8 values on, and the halving above 128."""
    rng = SplitMix64(0x5A3)
    reordered = 0
    lengths = [*range(1, 301), 511, 512, 513, 1024, 4095, PROBE_CAP ** 2]
    for length in lengths:
        for _ in range(20 if length <= 16 else 2):
            values = [rng.random() * 10.0 ** rng.randint(-8, 8)
                      for _ in range(length)]
            total = _pairwise_sum(values)
            assert total == np.add.reduce(np.array(values))
            reordered += total != sum(values)
    # left to right is not numpy's order from 8 values on
    assert reordered > 0
    for n in range(1, PROBE_CAP + 1):
        x = np.array([[rng.random() * 10.0 ** rng.randint(-4, 4) for _ in range(n)]
                      for _ in range(n)])
        assert _frob_sq(x.tolist()) == float((x * x).sum())


@pytest.mark.parametrize("n", [3, NUMPY_MIN_N])
@pytest.mark.parametrize("entry", [-0.5, float("nan"), float("inf")],
                         ids=["negative", "nan", "infinite"])
def test_sinkhorn_refuses_a_bad_entry(n, entry):
    x = [[1.0] * n for _ in range(n)]
    x[1][0] = entry
    with pytest.raises(DomainError):
        sinkhorn(x)


@pytest.mark.parametrize("n", [3, NUMPY_MIN_N])
def test_sinkhorn_refuses_a_zero_row(n):
    x = [[1.0] * n for _ in range(n)]
    x[1] = [0.0] * n
    with pytest.raises(DomainError):
        sinkhorn(x)


@pytest.mark.parametrize("n", [3, NUMPY_MIN_N])
def test_sinkhorn_refuses_a_zero_column(n):
    x = [[0.0] + [1.0] * (n - 1) for _ in range(n)]
    with pytest.raises(DomainError):
        sinkhorn(np.array(x))


def test_sinkhorn_refuses_negative_sums_that_would_balance():
    # the passes would "balance" this to entries -3.54 and 4.54
    with pytest.raises(DomainError):
        sinkhorn([[1, -0.5], [0.5, 0.5]])


def test_snap_rational_refuses_non_finite_values():
    # reconstruct_matrix tests finiteness once, before any cell is snapped
    for bad in (float("nan"), float("inf"), -float("inf")):
        assert reconstruct_matrix([[bad, 0.5], [0.5, 0.5]]) is None


def test_reconstruct_matrix_refuses_a_nan():
    assert reconstruct_matrix([[0.5, float("nan")], [0.5, 0.5]]) is None
    assert reconstruct_matrix([[float("nan"), 0.5], [0.5, 0.5]]) is None


def test_snap_rational_prefers_small_denominators():
    assert _snap(0.6 + 1e-9, 1e-7) == F(3, 5)
    assert _snap(1 / 3 - 2e-10, 1e-7) == F(1, 3)
    assert _snap(0.0, 1e-7) == 0
    # an actually-generic float refuses to snap at tight tolerance
    assert _snap(0.6180339887498949, 1e-15) is None


def test_snap_rational_returns_the_first_convergent_within_tol():
    # not the smallest-denominator rational within tol: 1/11 and 156/217
    # are within tol, but the first convergent within tol is 1/15 in the
    # first case and 294/409 in the second
    x, tol = 0.0640314382269973, 0.030126765951571235
    assert abs(F(1, 11) - F(x)) <= tol
    assert _snap(x, tol) == F(1, 15)
    x, tol = 0.7188239240658031, 7.141294836112025e-05
    assert abs(F(156, 217) - F(x)) <= tol
    assert _snap(x, tol) == F(294, 409)


def test_reconstruct_matrix_recovers_r():
    noisy = np.array(canonical("R").to_floats()) + 2e-9
    rec = reconstruct_matrix(sinkhorn(noisy))
    assert rec is not None
    assert validate_ds(rec) == canonical("R")


def test_round_to_ds():
    rng = SplitMix64(6)
    x = np.asarray(sinkhorn([[0.2 + rng.random() for _ in range(4)]
                             for _ in range(4)]))
    m = reconstruct_matrix(x, tol=1e-6)
    assert m is not None
    assert all(abs(float(m[i, j]) - x[i, j]) < 1e-5 for i in range(4)
               for j in range(4))


def _reference_reconstruct(x, tol=1e-7):
    """The entrywise snap: every entry through _snap, None as soon as one
    refuses; the result need not be doubly stochastic."""
    rows = []
    for row in np.asarray(x, dtype=float):
        snapped = [_snap(cell, tol) for cell in row]
        if None in snapped:
            return None
        rows.append(snapped)
    return RatMatrix(rows)


def _near_ds_floats():
    """Seeded float matrices near the doubly stochastic polytope, n <= 5:
    canonical forms and rational mixtures, plain and jittered, float
    permutation mixtures, and Sinkhorn output of random positive matrices."""
    rng = SplitMix64(0xF10A7)
    for _ in range(60):
        n = rng.randint(1, 5)
        if n == 3:
            base = (perm_matrix(Permutation.random(3, rng))
                    @ canonical(("I3", "J3", "I1_J2", "S", "T", "R")[rng.below(6)])
                    @ perm_matrix(Permutation.random(3, rng)))
        else:
            base = random_ds(n, rng.randint(1, 2 * n), seed=rng.next64())
        noise = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
        yield np.array(base.to_floats())
        yield sinkhorn(np.array(base.to_floats()) + 1e-9 * (noise + 0.1))
        yield np.array(random_ds(n, rng.randint(1, 4), seed=rng.next64())
                       .to_floats()) + 3e-8 * (noise - 0.5)
        weights = [0.05 + rng.random() for _ in range(rng.randint(1, 3))]
        mixture = np.zeros((n, n))
        for w in weights:
            mixture += w * np.array(perm_matrix(Permutation.random(n, rng)).to_floats())
        yield mixture / sum(weights)
        yield sinkhorn(0.1 + noise)


def test_reconstruct_matrix_matches_entrywise_snap():
    agreed = 0
    for x in _near_ds_floats():
        rec = reconstruct_matrix(x)
        assert rec is None or isinstance(rec, DoublyStochastic)
        ref = _reference_reconstruct(x)
        if ref is None:
            continue
        try:
            ref = validate_ds(ref)
        except DomainError:
            continue
        assert rec == ref
        agreed += 1
    assert agreed >= 150


def test_reconstruct_matrix_forces_the_sums():
    # the top-right entry misses 2/3 by 1e-6 and snaps to 222221/333331,
    # so the entrywise snap is not doubly stochastic; the forced one is
    x = [[1 / 3, 2 / 3 + 1e-6], [2 / 3, 1 / 3]]
    assert _reference_reconstruct(x)[0, 1] == F(222221, 333331)
    assert reconstruct_matrix(x) == DoublyStochastic([[F(1, 3), F(2, 3)],
                                                      [F(2, 3), F(1, 3)]])
    # a forced entry below zero refuses
    assert reconstruct_matrix([[0.9, 0.9, 0.0], [0.05, 0.05, 0.9],
                               [0.05, 0.05, 0.1]]) is None


def test_rationality_probe_deterministic():
    a = rationality_probe(3, 40, seed=2468)
    b = rationality_probe(3, 40, seed=2468)
    assert a == b
    assert a.tol == 1e-9


def test_rationality_probe_verifies_jittered_solutions():
    report = rationality_probe(3, 60, seed=20260808)
    jittered = [c for c in report.candidates if c.kind == "jitter"]
    assert jittered, "seeded run must hit jittered known solutions"
    assert all(c.verified for c in jittered)
    # this seed perturbs S among others; it comes back exactly
    assert any(c.reconstructed is not None
               and frobenius_sq(c.reconstructed) == F(5, 4) for c in jittered)
    # sinkhorn-balanced generic positive matrices never come close
    assert all(c.kind != "sinkhorn" for c in report.candidates)
    for c in report.candidates:
        if c.verified:
            assert marcus_ree_gap(c.reconstructed).saturated


# ── symmetry scan ─────────────────────────────────────────────────────────

def test_check_asymmetry():
    d_matrix = validate_ds(direct_sum(make_jn(1), make_jn(3))
                           @ direct_sum(make_jn(2), make_jn(2)))
    assert check_asymmetry(d_matrix)
    assert not check_asymmetry(canonical("S"))
    assert not check_asymmetry(canonical("T"))


def _reference_asymmetry(a):
    """The (P, Q) double scan: True iff no P a Q is symmetric."""
    n, rows = a.n, a.rows
    for p in itertools.permutations(range(n)):
        m = [rows[i] for i in p]
        for c in itertools.permutations(range(n)):
            if all(m[i][c[j]] == m[j][c[i]]
                   for i in range(n) for j in range(i + 1, n)):
                return False
    return True


def test_check_asymmetry_matches_double_scan():
    rng = SplitMix64(406)
    inputs = []
    for n in range(1, 6):
        for _ in range(10):
            a = random_ds(n, rng.randint(1, 2 * n), seed=rng.next64())
            # (a + a^T) / 2 is symmetric and doubly stochastic; P and Q hide it
            sym = validate_ds(RatMatrix([[(x + y) / 2 for x, y in zip(r, c)]
                                         for r, c in zip(a.rows, zip(*a.rows))]))
            p = perm_matrix(Permutation.random(n, rng))
            q = perm_matrix(Permutation.random(n, rng))
            inputs += [a, validate_ds(p @ sym @ q)]
    verdicts = [check_asymmetry(a) for a in inputs]
    assert verdicts == [_reference_asymmetry(a) for a in inputs]
    assert any(verdicts) and not all(verdicts)


def _line_multisets(rows):
    return sorted(sorted(line) for line in rows)


def test_check_asymmetry_at_order_8():
    rng = SplitMix64(808)
    n = ASYMMETRY_CAP
    assert n == 8
    # P S Q of a symmetric S is never asymmetric; for S J, with J the
    # reversal, the symmetrizing R = J is the scan's last permutation
    reverse = Permutation(list(range(n))[::-1])
    for k in (3, 5):
        a = random_ds(n, k, seed=rng.next64())
        sym = validate_ds(RatMatrix([[(x + y) / 2 for x, y in zip(r, c)]
                                     for r, c in zip(a.rows, zip(*a.rows))]))
        p = perm_matrix(Permutation.random(n, rng))
        q = perm_matrix(Permutation.random(n, rng))
        assert not check_asymmetry(validate_ds(p @ sym @ q))
        assert not check_asymmetry(validate_ds(sym @ perm_matrix(reverse)))
    # a symmetric P A Q has equal row and column multisets of multisets,
    # and P, Q keep both, so unequal ones certify asymmetry independently
    for k in (6, 8, 12):
        a = random_ds(n, k, seed=rng.next64())
        assert _line_multisets(a.rows) != _line_multisets(zip(*a.rows))
        assert check_asymmetry(a)
    with pytest.raises(OrderTooLarge):
        check_asymmetry(make_jn(n + 1))
