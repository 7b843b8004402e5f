"""Exact rational matrices, permutations, and doubly stochastic constructors.

A matrix is stored as integer numerators over one common denominator in
lowest terms, the (grid, den) pair on which every constructor, the parser
and the kernels run; entries read out as `fractions.Fraction`.  A matrix
is doubly stochastic when every entry is >= 0 and every row and column
sums to exactly 1; validation checks both on that integer grid, exactly.

Every integer argument (an order, count, seed, block size or index, or a
matrix entry that is not a Fraction) must pass `_integer`: a non-bool
integer, numpy's included; anything else raises DomainError.  Every
permutation argument, a Permutation or its image, passes `_as_permutation`:
an image that is not a bijection of 0..n-1 raises DomainError.  Every
float argument (a float-tier entry, a tolerance or a plotting bound) passes
`_real`: a non-bool real number, numpy's included.  Every exact number read
from text, a matrix entry or a `ds` argument, follows one grammar
(`_parse_ratio`); anything else raises ParseError.

All values are immutable after construction and safe to share across
threads.
"""

import json
import numbers
import operator
import sys
from fractions import Fraction
from itertools import chain, permutations
from math import gcd, lcm
from operator import mul


# ── errors ────────────────────────────────────────────────────────────────

class DomainError(ValueError):
    """A mathematically invalid input (not a usage or syntax problem)."""


class NegativeEntry(DomainError):
    def __init__(self, i, j, value):
        self.i, self.j, self.value = i, j, value
        super().__init__(f"entry ({i},{j}) = {value} is negative")


class RowSumMismatch(DomainError):
    def __init__(self, i, actual):
        self.i, self.actual = i, actual
        super().__init__(f"row {i} sums to {actual}, expected 1")


class ColSumMismatch(DomainError):
    def __init__(self, j, actual):
        self.j, self.actual = j, actual
        super().__init__(f"column {j} sums to {actual}, expected 1")


class OrderTooLarge(DomainError):
    def __init__(self, n, cap, what="operation"):
        self.n, self.cap = n, cap
        super().__init__(f"{what} supports order <= {cap}, got n = {n}")


class ParseError(ValueError):
    """Malformed matrix text; carries a 1-based line and column/field."""

    def __init__(self, message, line=None, col=None):
        self.line, self.col = line, col
        where = "" if line is None else f" at line {line}, column {col}"
        super().__init__(message + where)


def _integer(x, what, least=None):
    """operator.index(x) for a non-bool integer, numpy's included, of at
    least `least`; anything else raises DomainError naming `what`."""
    try:
        if not isinstance(x, bool) and (least is None or operator.index(x) >= least):
            return operator.index(x)
    except TypeError:
        pass
    bound = "" if least is None else f" >= {least}"
    raise DomainError(f"{what} must be one of the integers{bound}, got {x!r}")


def _real(x, what):
    """float(x) for a non-bool real number, numpy's included; anything else,
    or a number past the float range, raises DomainError naming `what`."""
    try:
        if isinstance(x, numbers.Real) and not isinstance(x, bool):
            return float(x)
    except OverflowError:
        pass
    raise DomainError(f"{what} must be a real number, got {x!r}")


# ── rational scalars ──────────────────────────────────────────────────────

_BLANKS = " \t\r\n\v\f"   # the only blanks stripped around a number or skipped as a line


def _parse_ratio(text, integer=False):
    """(p, q) of "p/q" or an integer string, q > 0 and not reduced, with
    surrounding ASCII blanks stripped; with integer, "/q" is refused too.
    The one grammar of every exact number `ds` reads: a sign, ASCII digits
    (isdigit() alone takes "٣" and "²") and "/q", the sign and "/q" optional;
    decimals are rejected: the formats are exact, "0.5" ambiguous in intent."""
    what = "integer" if integer else "rational"
    if not isinstance(text, str):
        raise ParseError(f"not an exact {what}: {text!r}")
    text = text.strip(_BLANKS)
    num, slash, den = text.partition("/")
    if not (text.isascii() and (num.isdigit() or num[:1] in "+-" and num[1:].isdigit())
            and (not slash or not integer and den.isdigit())):
        raise ParseError(f"not an exact {what}: {text!r}")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(f"{what} too long: {len(text)} characters") from None
    if den == 0:
        raise ParseError(f"zero denominator: {text!r}")
    return num, den


def parse_rational(text):
    """Parse "p/q" or an integer string into a Fraction; decimals are rejected."""
    return Fraction(*_parse_ratio(text))


def parse_integer(text):
    """Parse an integer string by the rule of parse_rational, without "/q"."""
    return _parse_ratio(text, integer=True)[0]


# ── deterministic randomness ──────────────────────────────────────────────

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator: 64-bit state, identical stream on every
    platform and interpreter version.  Used for every seeded operation so
    results are bit-reproducible.  The seed is any integer, taken mod 2**64."""

    def __init__(self, seed):
        self._state = _integer(seed, "a seed") & _MASK64

    def next64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform integer in [0, n). Modulo bias is < n / 2**64."""
        return self.next64() % n

    def randint(self, lo, hi):
        """Uniform integer in [lo, hi], inclusive."""
        return lo + self.below(hi - lo + 1)

    def random(self):
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next64() >> 11) * (2.0 ** -53)

    def shuffle(self, items):
        """In-place Fisher-Yates shuffle of a list."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


# ── permutations ──────────────────────────────────────────────────────────

class Permutation(tuple):
    """A bijection on {0..n-1}: the tuple of its images, so p(i) == p[i] and
    a Permutation equals the plain tuple of its image.

    `compose` follows matrix order: perm_matrix(p.compose(q)) equals
    perm_matrix(p) @ perm_matrix(q), i.e. (p.compose(q))(i) = q(p(i)).
    """

    __slots__ = ()

    def __new__(cls, image):
        image = tuple(_integer(i, "a permutation entry") for i in image)
        if sorted(image) != list(range(len(image))):
            raise DomainError(f"not a permutation of 0..{len(image) - 1}: {image}")
        return super().__new__(cls, image)

    __call__ = tuple.__getitem__

    @property
    def image(self):
        return tuple(self)

    @classmethod
    def identity(cls, n):
        return _perm(range(_integer(n, "the order", 0)))

    @classmethod
    def random(cls, n, rng):
        items = list(range(_integer(n, "the order", 0)))
        rng.shuffle(items)
        return _perm(items)

    def __repr__(self):
        return f"Permutation({list(self)})"

    def compose(self, other):
        """Apply self, then other (matrix product order)."""
        other = _as_permutation(other)
        if len(self) != len(other):
            raise DomainError("size mismatch in composition")
        return _perm(other[i] for i in self)

    def inverse(self):
        inv = [0] * len(self)
        for i, j in enumerate(self):
            inv[j] = i
        return _perm(inv)


def _perm(image):
    """The Permutation of an image that is a bijection by construction,
    without the check."""
    return tuple.__new__(Permutation, image)


def _as_permutation(p):
    """Every public permutation argument: a Permutation as is, an image checked."""
    return p if isinstance(p, Permutation) else Permutation(p)


def all_permutations(n):
    """An iterator over every Permutation of order n in lexicographic order."""
    return map(_perm, permutations(range(_integer(n, "the order", 0))))


# ── matrices ──────────────────────────────────────────────────────────────

def _ratio(x, what="a matrix entry"):
    """(numerator, denominator) of a Fraction or a non-bool integer x."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return _integer(x, f"{what} that is not a Fraction"), 1


_EXACT = (Fraction, int)


def _of_ratios(cls, ratios):
    """The cls matrix of rows of (p, q) pairs of ints, q > 0, over one lcm of
    the distinct q, each scale factor den // q computed once."""
    qs = {q for row in ratios for _, q in row}
    den = lcm(*qs)
    scale = {q: den // q for q in qs}
    return cls._reduced([[p * scale[q] for p, q in row] for row in ratios], den)


def _wrap(cls, grid, den):
    """The cls matrix holding (grid, den) as given, already in lowest terms."""
    m = object.__new__(cls)
    object.__setattr__(m, "grid", grid)
    object.__setattr__(m, "den", den)
    return m


class RatMatrix:
    """Immutable dense square matrix of exact rationals.

    Stored as (grid, den) in lowest terms, entry (i, j) = grid[i][j] / den:
    den is the lcm of the reduced entry denominators, so equal matrices
    hold equal pairs.  The kernels read the grid lists in place, so nothing
    may mutate them.  Built from rows of Fractions and non-bool integers;
    entries read out as Fractions, m[i, j] with 0-based indices.
    """

    __slots__ = ("grid", "den")

    def __new__(cls, rows):
        # one as_integer_ratio() call reads an entry of exactly Fraction or
        # int; an entry of any other type passes _ratio's checks
        return _of_ratios(cls, [[x.as_integer_ratio() if type(x) in _EXACT else _ratio(x)
                                 for x in row] for row in rows])

    @classmethod
    def of_grid(cls, grid, den):
        """The matrix with entries grid[i][j] / den, for integers and
        den >= 1, divided down to lowest terms."""
        den = _integer(den, "the denominator", 1)
        return cls._reduced([list(map(operator.index, row)) for row in grid], den)

    @classmethod
    def _reduced(cls, grid, den):
        """The one reduce step of every constructor: the matrix of a list
        grid of ints over an int den >= 1, divided down to lowest terms."""
        if any(len(row) != len(grid) for row in grid):
            raise DomainError("matrix must be square")
        c = gcd(den, *chain.from_iterable(grid))
        if c > 1:
            grid = [[x // c for x in row] for row in grid]
        return _wrap(cls, grid, den // c)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    def __reduce__(self):
        # through of_grid, so that a DoublyStochastic is re-validated on load
        return type(self).of_grid, (self.grid, self.den)

    @property
    def n(self):
        return len(self.grid)

    @property
    def rows(self):
        """The entries as row tuples of Fractions, built on each read."""
        value = {x: Fraction(x, self.den) for x in set(chain.from_iterable(self.grid))}
        return tuple(tuple(map(value.__getitem__, row)) for row in self.grid)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.grid[i][j], self.den)

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and (self.den, self.grid) == (other.den, other.grid)

    def __hash__(self):
        return hash((self.den, *map(tuple, self.grid)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"{type(self).__name__}[{body}]"

    def __matmul__(self, other):
        if not isinstance(other, RatMatrix) or self.n != other.n:
            return NotImplemented
        cols = list(zip(*other.grid))
        return RatMatrix.of_grid([[sum(map(mul, row, col)) for col in cols]
                                  for row in self.grid], self.den * other.den)

    def entries(self):
        """Iterate entries in row-major order."""
        return chain.from_iterable(self.rows)

    def to_floats(self):
        """Row-major nested lists of float entries (lossy, for plotting)."""
        return [[x / self.den for x in row] for row in self.grid]


class DoublyStochastic(RatMatrix):
    """An immutable RatMatrix checked to be doubly stochastic, exactly, by
    `_reduced`, which every constructor builds through (`validate_ds`
    checks a RatMatrix's grid as it is)."""

    __slots__ = ()

    @classmethod
    def _reduced(cls, grid, den):
        m = super()._reduced(grid, den)
        _check_ds(m)
        return m


def _check_ds(m):
    grid, den = m.grid, m.den
    for i, row in enumerate(grid):
        if min(row) < 0:
            j = next(j for j, x in enumerate(row) if x < 0)
            raise NegativeEntry(i, j, Fraction(row[j], den))
    # Column sums are checked before row sums; with both violated the
    # column report is the contract.
    for j, col in enumerate(zip(*grid)):
        s = sum(col)
        if s != den:
            raise ColSumMismatch(j, Fraction(s, den))
    for i, row in enumerate(grid):
        s = sum(row)
        if s != den:
            raise RowSumMismatch(i, Fraction(s, den))


def validate_ds(m):
    """Check the doubly stochastic invariants exactly and wrap the matrix.

    Raises NegativeEntry, ColSumMismatch, or RowSumMismatch on failure.
    """
    if isinstance(m, DoublyStochastic):
        return m
    _check_ds(m)       # a RatMatrix's grid is already in lowest terms
    return _wrap(DoublyStochastic, m.grid, m.den)


# ── canonical constructors ────────────────────────────────────────────────

def make_jn(n):
    """The order-n matrix with every entry 1/n."""
    n = _integer(n, "the order of J_n", 1)
    return DoublyStochastic.of_grid([[1] * n] * n, n)


def make_tn(n):
    """(n*J_n - I_n) / (n-1): zero diagonal, 1/(n-1) off the diagonal."""
    n = _integer(n, "the order of T_n", 2)
    return DoublyStochastic.of_grid([[1] * i + [0] + [1] * (n - 1 - i) for i in range(n)], n - 1)


def perm_matrix(p):
    """The 0/1 matrix with entry (i, p(i)) = 1."""
    p = _as_permutation(p)
    n = len(p)
    return DoublyStochastic.of_grid([[int(j == p(i)) for j in range(n)] for i in range(n)], 1)


def direct_sum(a, b):
    """Block-diagonal matrix [a 0; 0 b] of order a.n + b.n."""
    n, m = a.n, b.n
    grid = [[x * b.den for x in row] + [0] * m for row in a.grid]
    grid += [[0] * n + [x * a.den for x in row] for row in b.grid]
    both = isinstance(a, DoublyStochastic) and isinstance(b, DoublyStochastic)
    return (DoublyStochastic if both else RatMatrix).of_grid(grid, a.den * b.den)


def block_j_form(p, parts, q):
    """P (J_{parts[0]} ⊕ ... ⊕ J_{parts[-1]}) Q, exactly.

    P and Q act by (P M Q)[i, j] = M[p(i), q^{-1}(j)].  Parts must be
    positive integers and sum to the common order of p and q.
    """
    p, q = _as_permutation(p), _as_permutation(q)
    parts = [_integer(k, "a block size", 1) for k in parts]
    n = sum(parts)
    if len(p) != n or len(q) != n:
        raise DomainError(
            f"parts sum to {n} but |p| = {len(p)}, |q| = {len(q)}")
    # block[i][j] without building intermediates: block index by offsets
    owner = [b for b, k in enumerate(parts) for _ in range(k)]
    den = lcm(*parts)
    vals = [den // k for k in parts]
    qinv = q.inverse()
    grid = []
    for i in range(n):
        b = owner[p(i)]
        grid.append([vals[b] if b == owner[qinv(j)] else 0 for j in range(n)])
    return DoublyStochastic.of_grid(grid, den)


def random_ds(n, k, seed):
    """Seeded convex combination of k permutation matrices.

    Coefficients are k integers drawn uniformly from [1, 1000], normalized
    by their sum, so entries are exact rationals.  Identical output for a
    given (n, k, seed) on every platform and thread count.
    """
    n, k = _integer(n, "the order n", 1), _integer(k, "the count k", 1)
    rng = SplitMix64(seed)
    counts = [[0] * n for _ in range(n)]
    total = 0
    for _ in range(k):
        perm = Permutation.random(n, rng)
        c = rng.randint(1, 1000)
        total += c
        for i in range(n):
            counts[i][perm(i)] += c
    return DoublyStochastic.of_grid(counts, total)


# ── serialization ─────────────────────────────────────────────────────────

def matrix_payload(m):
    """The JSON object of a matrix, entries as exact fraction strings."""
    text = {x: str(Fraction(x, m.den)) for x in set(chain.from_iterable(m.grid))}
    return {"n": m.n, "rows": [[text[x] for x in row] for row in m.grid]}


def parse_matrix(text):
    """Parse matrix text, JSON ({"n":...,"rows":[[...]]}) or CSV lines of
    fraction strings.  Raises ParseError with a 1-based line/column."""
    try:
        if text.lstrip().startswith("{"):
            return _parse_matrix_json(text)
        return _parse_matrix_csv(text)
    except RecursionError:  # JSON nested deeper than the interpreter follows
        raise ParseError("matrix text nests too deeply") from None


def _parse_row(cells, line):
    """The (p, q) of each of one row's cells; a bad cell is reported at its
    1-based (line, column)."""
    parsed = []
    for j, cell in enumerate(cells, 1):
        try:
            parsed.append(_parse_ratio(str(cell)))
        except ParseError as exc:
            raise ParseError(str(exc), line, j) from None
    return parsed


def _parse_matrix_json(text):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc.msg}", exc.lineno, exc.colno) from None
    except ValueError:  # a number with more digits than the interpreter converts
        raise ParseError("bad JSON: number too long") from None
    if not isinstance(payload, dict) or "rows" not in payload:
        raise ParseError('JSON matrix needs a "rows" field')
    rows = payload["rows"]
    if not isinstance(rows, list) or not rows:
        raise ParseError('"rows" must be a non-empty list of rows')
    n = payload.get("n", len(rows))
    if type(n) is not int:  # JSON's true and false load as bool, an int subclass
        raise ParseError('"n" must be an integer')
    if len(rows) != n:
        raise ParseError(f'"rows" must hold {n} rows, got {len(rows)}')
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} must hold {n} entries", i + 1, 1)
        out.append(_parse_row(row, i + 1))
    return _of_ratios(RatMatrix, out)


def _parse_matrix_csv(text):
    # (file line number, text) of each line not of _BLANKS alone; lines end at
    # "\n" only, and the "\r" of a CRLF ending goes with its cell's blanks
    lines = [(k, line) for k, line in enumerate(text.split("\n"), 1) if line.strip(_BLANKS)]
    if not lines:
        raise ParseError("empty matrix text")
    out = [_parse_row(line.split(","), k) for k, line in lines]
    if any(len(row) != len(out) for row in out):
        raise ParseError(
            f"need a square matrix, got {len(out)} lines of widths "
            f"{sorted({len(r) for r in out})}")
    return _of_ratios(RatMatrix, out)


def read_matrix(source):
    """Read a matrix from a path, an open stream, or "-" for stdin; text
    that is not UTF-8 or a directory path raises ParseError."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        elif source == "-":
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except IsADirectoryError:
        raise ParseError(f"{source!r} is a directory, not a matrix file") from None
    return parse_matrix(text)
