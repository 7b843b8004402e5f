"""Deciding saturation of the Marcus-Ree inequality, exactly.

A doubly stochastic matrix saturates the inequality when its Frobenius
norm squared equals its maximal trace.  In order 2 the saturating
matrices are the two permutation matrices and the flat matrix J_2.  In
order 3 the saturating matrices are exactly the (P, Q) permutation orbits
of six canonical representatives:

  I3       identity
  J3       all entries 1/3
  I1_J2    1 ⊕ J_2
  S        [[0,1/2,1/2],[1/2,1/4,1/4],[1/2,1/4,1/4]]
  T        zero diagonal, 1/2 elsewhere
  R        [[3/5,0,2/5],[0,3/5,2/5],[2/5,2/5,1/5]]

Their orbits hold 49 matrices, built once at import and tabulated by
integer grid (`RatMatrix.grid` over `RatMatrix.den`) beside their
Classification: tag and lex-smallest witness (P, Q), P a Q equal to the
representative.  The classifier and the census (`explore`) hand back these
records, cross-checked in the tests by `permutation_equivalent`, the gap
(`diagsum`) and the weak form (`weakform`).  Non-saturating matrices get
the lex-smallest maximal diagonal from the assignment solver.
"""

import collections
import itertools
from fractions import Fraction

from .ratmat import (DomainError, DoublyStochastic, OrderTooLarge, _perm,
                     all_permutations, validate_ds)
from . import diagsum

_F = Fraction

EQUIVALENCE_CAP = 8

_CANONICAL_ROWS = {
    "I3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "J3": [[_F(1, 3)] * 3] * 3,
    "I1_J2": [[1, 0, 0], [0, _F(1, 2), _F(1, 2)], [0, _F(1, 2), _F(1, 2)]],
    "S": [[0, _F(1, 2), _F(1, 2)],
          [_F(1, 2), _F(1, 4), _F(1, 4)],
          [_F(1, 2), _F(1, 4), _F(1, 4)]],
    "T": [[0, _F(1, 2), _F(1, 2)],
          [_F(1, 2), 0, _F(1, 2)],
          [_F(1, 2), _F(1, 2), 0]],
    "R": [[_F(3, 5), 0, _F(2, 5)],
          [0, _F(3, 5), _F(2, 5)],
          [_F(2, 5), _F(2, 5), _F(1, 5)]],
}

CANONICAL_TAGS = tuple(_CANONICAL_ROWS)


class Classification(collections.namedtuple(
        "Classification", "saturated form witness separator", defaults=(None,) * 3)):
    """Outcome of the order-3 saturation decision.

    saturated implies form and witness are present, with
    perm_matrix(P) @ a @ perm_matrix(Q) == canonical(form).
    Otherwise separator is present: the lex-smallest permutation whose
    diagonal sum attains max_tr(a), which then strictly exceeds the
    Frobenius norm squared.
    """
    __slots__ = ()


_CANONICALS = {tag: DoublyStochastic(rows) for tag, rows in _CANONICAL_ROWS.items()}


def _orbit_table():
    """(den, nine numerators) of each orbit member m -> (m, its Classification),
    witness the lex-first (P, Q) with P m Q == rep: m[i][k] == rep[p^-1(i)][q(k)]."""
    perms = list(all_permutations(3))
    table = {}
    for tag, rep in _CANONICALS.items():
        for p in perms:
            rows = [rep.grid[r] for r in p.inverse()]
            for q in perms:
                grid = [[row[c] for c in q] for row in rows]
                key = (rep.den, *itertools.chain(*grid))
                if key not in table:
                    table[key] = (DoublyStochastic.of_grid(grid, rep.den),
                                  Classification(True, tag, (p, q)))
    return table


_ORBITS = _orbit_table()


def canonical(tag):
    """The exact canonical representative for a tag in CANONICAL_TAGS."""
    if tag not in _CANONICALS:
        raise DomainError(f"unknown canonical form {tag!r}; "
                          f"expected one of {CANONICAL_TAGS}")
    return _CANONICALS[tag]


def permutation_equivalent(a, b):
    """Find (P, Q) with (P a Q) == b exactly, or None.

    Compares the entry multisets on the grids (in lowest terms, equal
    entries mean equal den), then scans row permutations in lex order and
    matches columns by equality, so the witness is deterministic.  Orders
    above EQUIVALENCE_CAP are refused (the scan is factorial in n).
    """
    if a.n != b.n:
        raise DomainError(f"order mismatch: {a.n} vs {b.n}")
    n = a.n
    if n > EQUIVALENCE_CAP:
        raise OrderTooLarge(n, EQUIVALENCE_CAP, "permutation equivalence scan")
    if a.den != b.den or sorted(itertools.chain(*a.grid)) != sorted(itertools.chain(*b.grid)):
        return None
    b_cols = {}
    for j, col in enumerate(zip(*b.grid)):
        b_cols.setdefault(col, []).append(j)
    for p_img in itertools.permutations(range(n)):
        rows_p = [a.grid[k] for k in p_img]
        # column c of (P a) must land at position q(c) in b
        pool = {col: list(positions) for col, positions in b_cols.items()}
        q_img = []
        for c in range(n):
            col = tuple(rows_p[i][c] for i in range(n))
            avail = pool.get(col)
            if not avail:
                break
            q_img.append(avail.pop(0))
        else:
            return _perm(p_img), _perm(q_img)
    return None


def classify3(a):
    """Exact order-3 saturation decision with certificates.

    Orbit members get the table's stored record (tag, (P, Q) witness); other
    input gets a separator, a permutation whose diagonal sum strictly
    exceeds the Frobenius norm squared.  Non-doubly-stochastic input is
    refused (validate_ds raises), since a separator certifies nothing there.
    """
    if a.n != 3:
        raise DomainError(f"classify3 needs order 3, got {a.n}")
    a = validate_ds(a)
    hit = _ORBITS.get((a.den, *a.grid[0], *a.grid[1], *a.grid[2]))
    if hit is not None:
        return hit[1]
    return Classification(False, separator=diagsum.max_trace_assignment(a).argmax)
