"""The weak-form machinery: when does the Frobenius norm squared equal
*some* diagonal sum of a 3 x 3 doubly stochastic matrix?

Up to permutations of rows and columns, the only all-positive saturator
(||A||_F^2 = max_tr(A)) is J_3, so every other saturator has a zero entry,
which can be normalized to position (2, 1) (1-based), and every remaining
candidate takes the two-parameter-plus-root form

        [ (v+u+3)/4    w            (1-v-u)/4 - w ]
    A = [ 0            (v-u+3)/4    (1-v+u)/4     ]
        [ (1-v-u)/4    (1-v+u)/4-w  (v+1)/2 + w   ]

whose rows and columns sum to 1 identically.  The requirement
||A||_F^2 = tr(A) reduces to the quadratic

    4 w^2 + (2v - 1) w + (3u^2 + 5v^2 - 2v - 3) / 8  =  0,

and in fact the left side equals ||A||_F^2 - tr(A) for every (u, v, w).
The two roots are w = (1 - 2v -/+ sqrt(7 - 6u^2 - 6v^2)) / 8 ("minus" and
"plus" signs).  Feasibility (all entries >= 0) carves regions out of the
closed disc E0: u^2 + v^2 <= 7/6 and three solid ellipses

    E1: 25 (u + 1/5)^2 + 15 v^2 <= 16
    E2: 25 (u - 1/5)^2 + 15 v^2 <= 16
    E3: 15 u^2 + 25 (v - 1/5)^2 <= 16

giving the minus-root region U_minus and the plus-root region U_plus (the
latter contains the isolated point (0, 1)).  The predicates and the root are
integer sign tests over the lcm q of the denominators of u and v: each region
is one inequality scaled by q^2, and w is a Fraction when D = q^2 disc is a
perfect square and an exact a + b sqrt(disc) in Q(sqrt(disc)) otherwise, so
feasibility and the weak-form checks have no tolerance.

The weak form alone has all-positive solutions besides J_3:
[[4,7,1],[4,1,7],[4,4,4]]/12 has ||A||_F^2 = 5/4, the sum on its diagonal
(0, 2, 1), while max_tr(A) = 3/2.

Boundary curves for plotting, all for |u| within their domains:

    f(u) = -sqrt((3 + 2|u| - 5u^2) / 3)
    g(u) = (1 - sqrt(16 - 15u^2)) / 5
    h(u) = -sqrt(7/6 - u^2) on |u| <= 1/2, f(u) on 1/2 <= |u| <= 1
"""

import collections
import math
from fractions import Fraction
from functools import total_ordering
from math import isqrt, lcm

from .ratmat import (DomainError, DoublyStochastic, RatMatrix, _integer, _ratio,
                     _real, all_permutations)

SIGN_MINUS = "minus"
SIGN_PLUS = "plus"

BOUNDARY_ROW_CAP = 10 ** 6

_PARAMETER = "a weak-form parameter"
# the six diagonals of order 3, in lex order (the identity first)
_PERMS3 = tuple(all_permutations(3))


class NegativeDiscriminant(DomainError):
    def __init__(self, u, v, disc):
        self.u, self.v, self.discriminant = u, v, disc
        super().__init__(
            f"point ({u}, {v}) lies outside the disc E0: 7-6u^2-6v^2 = {disc} < 0")


class NotDoublyStochastic(DomainError):
    def __init__(self, entry, value):
        self.entry, self.value = entry, value
        super().__init__(f"constraint {entry} >= 0 violated: {entry} = {value}")


class ZeroCellMissing(DomainError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"entry (2,1) must be exactly 0, got {value}")


@total_ordering
class _Surd:
    """a + b sqrt(d) for Fractions a, b != 0 and d > 0 not a rational square.
    A result with b = 0 is returned as the Fraction a, so a _Surd never
    equals a rational and `==` is equality of (a, b, d).  Not a tuple: a
    tuple defines every ordering, leaving total_ordering nothing to fill."""
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d):
        self.a, self.b, self.d = a, b, d

    def __eq__(self, y):
        if not isinstance(y, _Surd):
            return NotImplemented
        return (self.a, self.b, self.d) == (y.a, y.b, y.d)

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"_Surd(a={self.a!r}, b={self.b!r}, d={self.d!r})"

    def _new(self, a, b):
        return _Surd(a, b, self.d) if b else a

    def __add__(self, y):
        if isinstance(y, _Surd):
            return self._new(self.a + y.a, self.b + y.b)
        return _Surd(self.a + y, self.b, self.d)

    def __mul__(self, y):
        if isinstance(y, _Surd):
            return self._new(self.a * y.a + self.b * y.b * self.d,
                             self.a * y.b + self.b * y.a)
        return self._new(self.a * y, self.b * y)

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, y):
        return _Surd(y - self.a, -self.b, self.d)

    def __lt__(self, y):
        a, b = (self.a - y.a, self.b - y.b) if isinstance(y, _Surd) else (self.a - y, self.b)
        if not b:
            return a < 0
        # b carries the sign unless a opposes it with the larger square
        # (a^2 = b^2 d is impossible for d not a rational square)
        return a < 0 if a and (a < 0) != (b < 0) and a * a > b * b * self.d else b < 0

    def __str__(self):
        return f"{self.a} {'-' if self.b < 0 else '+'} {abs(self.b)}*sqrt({self.d})"


class WeakFormParams(collections.namedtuple(
        "WeakFormParams", "u v w sign exact discriminant")):
    """A weak-form root: w is a Fraction, and exact is True, iff the
    discriminant is a rational square; otherwise w is a _Surd."""
    __slots__ = ()


def _q(x):
    """A Fraction or _Surd as is, an integer as a Fraction; nothing else."""
    return x if isinstance(x, (Fraction, _Surd)) else Fraction(*_ratio(x, _PARAMETER))


def _grid(u, v):
    """(U, V, q): u = U/q and v = V/q over the lcm q of their denominators."""
    (a, b), (c, d) = _ratio(u, _PARAMETER), _ratio(v, _PARAMETER)
    q = lcm(b, d)
    return a * (q // b), c * (q // d), q


def solve_w(u, v, sign):
    """The root w = (1 - 2v -/+ sqrt(7-6u^2-6v^2)) / 8 for the given sign.

    A Fraction when the discriminant is a perfect rational square, the
    exact element of Q(sqrt(disc)) otherwise.  Raises NegativeDiscriminant
    outside the disc E0.
    """
    if sign not in (SIGN_MINUS, SIGN_PLUS):
        raise DomainError(f"sign must be {SIGN_MINUS!r} or {SIGN_PLUS!r}")
    u, v = _q(u), _q(v)
    big_u, big_v, q = _grid(u, v)
    d = 7 * q * q - 6 * big_u * big_u - 6 * big_v * big_v
    disc = Fraction(d, q * q)
    if d < 0:
        raise NegativeDiscriminant(u, v, disc)
    # disc = d / q^2 is a rational square exactly when the integer d is a square
    s, r = (-1 if sign == SIGN_MINUS else 1), isqrt(d)
    w = (Fraction(q - 2 * big_v + s * r, 8 * q) if r * r == d
         else _Surd(Fraction(q - 2 * big_v, 8 * q), Fraction(s, 8), disc))
    return WeakFormParams(u, v, w, sign, r * r == d, disc)


# ── exact region predicates ───────────────────────────────────────────────

# lhs - rhs of the closed E0 (index 0) and Ek (index k), scaled by q^2
_EXCESS = (
    lambda u, v, q: 6 * (u * u + v * v) - 7 * q * q,
    lambda u, v, q: (5 * u + q) ** 2 + 15 * v * v - 16 * q * q,
    lambda u, v, q: (5 * u - q) ** 2 + 15 * v * v - 16 * q * q,
    lambda u, v, q: 15 * u * u + (5 * v - q) ** 2 - 16 * q * q,
)


def in_disc_e0(u, v):
    """Closed disc E0: u^2 + v^2 <= 7/6, decided exactly."""
    return _EXCESS[0](*_grid(u, v)) <= 0


def in_ellipse(k, u, v):
    """Closed solid ellipse E1, E2, or E3 (k in {1, 2, 3}), exactly."""
    k, p = _integer(k, "the ellipse index"), _grid(u, v)
    if k not in (1, 2, 3):
        raise DomainError(f"ellipse index must be 1, 2, or 3, got {k!r}")
    return _EXCESS[k](*p) <= 0


def in_u_minus(u, v):
    """The minus-sign feasibility region, as an exact conjunction:
    in E0, not interior to E3, v <= 1/2, and pushed back inside E2 (resp.
    E1) when u >= 1/2 (resp. u <= -1/2)."""
    p = big_u, big_v, q = _grid(u, v)
    return (_EXCESS[0](*p) <= 0 <= _EXCESS[3](*p) and 2 * big_v <= q
            and (2 * big_u < q or _EXCESS[2](*p) <= 0)
            and (2 * big_u > -q or _EXCESS[1](*p) <= 0))


def in_u_plus(u, v):
    """The plus-sign feasibility region: in E0, |u| <= 1/2, outside the
    interiors of E1 and E2, and inside E3 whenever v >= 1/2.  The isolated
    point (0, 1) satisfies all five conditions and needs no special case."""
    p = big_u, big_v, q = _grid(u, v)
    return (_EXCESS[0](*p) <= 0 and -q <= 2 * big_u <= q
            and _EXCESS[1](*p) >= 0 and _EXCESS[2](*p) >= 0
            and (2 * big_v < q or _EXCESS[3](*p) <= 0))


# ── boundary curves (float tier, for figure data) ─────────────────────────

def curve_f(u):
    rad = (3.0 + 2.0 * abs(u) - 5.0 * u * u) / 3.0
    if rad < 0:
        return None
    return -math.sqrt(rad)


def curve_g(u):
    rad = 16.0 - 15.0 * u * u
    if rad < 0:
        return None
    return (1.0 - math.sqrt(rad)) / 5.0


def curve_h(u):
    if abs(u) <= 0.5:
        return -math.sqrt(7.0 / 6.0 - u * u)
    if abs(u) <= 1.0:
        return curve_f(u)
    return None


def boundary_curves(u_min, u_max, step):
    """Sample (u, f(u), g(u), h(u)) on an inclusive float grid.

    Entries are None where a curve is undefined.  The u column is
    monotone increasing.  Bounds and step must be finite real numbers and
    the table at most BOUNDARY_ROW_CAP rows long.
    """
    u_min, u_max, step = (_real(x, "a bound or step") for x in (u_min, u_max, step))
    if not all(map(math.isfinite, (u_min, u_max, step))):
        raise DomainError(f"bounds and step must be finite, got {u_min}, {u_max}, {step}")
    if step <= 0:
        raise DomainError(f"step must be positive, got {step}")
    if (u_max - u_min) / step >= BOUNDARY_ROW_CAP:
        raise DomainError(f"boundary table would exceed {BOUNDARY_ROW_CAP} rows")
    rows = []
    k = 0
    while True:
        u = u_min + k * step
        if u > u_max + step * 1e-9:
            break
        rows.append((u, curve_f(u), curve_g(u), curve_h(u)))
        k += 1
    return rows


def boundary_csv(rows):
    """Render boundary_curves output as CSV with header u,f,g,h and empty
    fields where a curve is undefined."""
    out = ["u,f,g,h"]
    for u, f, g, h in rows:
        cells = [repr(float(u))] + ["" if x is None else repr(x) for x in (f, g, h)]
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


# ── construction and inversion ────────────────────────────────────────────

_ENTRY_NAMES = (("a11", "a12", "a13"), ("a21", "a22", "a23"), ("a31", "a32", "a33"))


def _format_rows(u, v, w):
    """The 9 entries of the parametrized format, in the arithmetic of w."""
    quarter = (1 - v - u) / 4
    quarter2 = (1 - v + u) / 4
    return [
        [(v + u + 3) / 4, w, quarter - w],
        [0 * w, (v - u + 3) / 4, quarter2],
        [quarter, quarter2 - w, (v + 1) / 2 + w],
    ]


def params_to_matrix(q):
    """Build the parametrized matrix for WeakFormParams (or a (u, v, w)
    triple of exact rationals, w possibly the irrational root of solve_w).

    A rational w gives a validated DoublyStochastic, an irrational one the
    3 x 3 rows of its exact entries in Q(sqrt(disc)).  Raises
    NotDoublyStochastic naming the first negative entry.
    """
    if not isinstance(q, WeakFormParams):
        q = tuple(map(_q, q))
        if len(q) != 3:
            raise DomainError(f"need a (u, v, w) triple, got {len(q)} values")
    u, v, w = q[:3]
    rows = _format_rows(u, v, w)
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x < 0:
                raise NotDoublyStochastic(_ENTRY_NAMES[i][j], x)
    return DoublyStochastic(rows) if isinstance(w, Fraction) else rows


def matrix_to_params(a):
    """Invert the linear reparametrization for an exact matrix with a zero
    at entry (2,1): u = 2(a11 - a22), v = 2(a11 + a22) - 3, w = a12."""
    if a.n != 3:
        raise DomainError(f"need order 3, got {a.n}")
    grid, den = a.grid, a.den
    if grid[1][0] != 0:
        raise ZeroCellMissing(a[1, 0])
    u, v = 2 * (grid[0][0] - grid[1][1]), 2 * (grid[0][0] + grid[1][1]) - 3 * den
    return Fraction(u, den), Fraction(v, den), Fraction(grid[0][1], den)


def weak_residual(u, v, w):
    """4w^2 + (2v-1)w + (3u^2 + 5v^2 - 2v - 3)/8, exactly, also for an
    irrational w from solve_w (the residual is then in Q(sqrt(disc))).

    Equals ||A||_F^2 - tr(A) for the parametrized format, so it vanishes
    precisely on weak-form solutions with the zero cell at (2,1).
    """
    u, v, w = _q(u), _q(v), _q(w)
    return 4 * w * w + (2 * v - 1) * w + (3 * u * u + 5 * v * v - 2 * v - 3) / 8


def _order3_rows(a):
    """(rows, den): the integer numerators of an order-3 RatMatrix over
    their common denominator den, or exact rows (each entry through _q, as
    params_to_matrix builds them at an irrational root) with den = 1."""
    rows, den = ((a.grid, a.den) if isinstance(a, RatMatrix)
                 else ([[_q(x) for x in row] for row in a], 1))
    if len(rows) != 3 or any(len(row) != 3 for row in rows):
        raise DomainError(f"need order 3, got rows of lengths {[len(row) for row in rows]}")
    return rows, den


def weak_saturation_check(a):
    """A permutation whose diagonal sum equals the Frobenius norm squared,
    or None, decided exactly; the lex-smallest match is returned."""
    (r0, r1, r2), den = _order3_rows(a)
    # scaled by den^2: ||a||^2 -> frob, a diagonal sum s -> den * s
    frob = sum(x * x for x in (*r0, *r1, *r2))
    for p in _PERMS3:
        if den * (r0[p[0]] + r1[p[1]] + r2[p[2]]) == frob:
            return p
    return None


def trace_dominant(a):
    """Does the plain trace attain the maximal trace?  Decided exactly by
    comparing tr(a) against the five non-identity diagonal sums."""
    (r0, r1, r2), _ = _order3_rows(a)
    tr = r0[0] + r1[1] + r2[2]
    return all(r0[p[0]] + r1[p[1]] + r2[p[2]] <= tr for p in _PERMS3[1:])
