"""Value records are namedtuples: field order, defaults, repr, immutability
and hashing are part of the API.  The weak-form surd is not a tuple, so its
orderings come from its own `<`."""

from fractions import Fraction as F

import pytest

from dstoch import (BlockSpec, Classification, EnumerationReport, GapReport,
                    Permutation, ProbeCandidate, ProbeReport, ProductProbe,
                    TraceReport, WeakFormParams, canonical, marcus_ree_gap,
                    max_trace_brute, solve_w)
from dstoch.weakform import _Surd

FIELDS = {
    TraceReport: ("max_value", "argmax", "method"),
    GapReport: ("frob_sq", "max_trace", "gap", "saturated"),
    Classification: ("saturated", "form", "witness", "separator"),
    EnumerationReport: ("denominator", "total_candidates", "ds_count", "saturating"),
    BlockSpec: ("p", "parts", "q"),
    ProductProbe: ("left", "right", "product", "frob_sq", "max_trace", "trace_perm",
                   "identity_holds", "saturates"),
    ProbeCandidate: ("index", "kind", "gap_float", "reconstructed", "verified"),
    ProbeReport: ("n", "samples", "seed", "tol", "candidates"),
    WeakFormParams: ("u", "v", "w", "sign", "exact", "discriminant"),
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_record_fields_immutability_and_hash(cls):
    assert cls._fields == FIELDS[cls]
    values = tuple(range(len(cls._fields)))
    record = cls(*values)
    assert record == values and tuple(record) == values
    assert hash(record) == hash(values) == hash(cls(*values))
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], -1)
    with pytest.raises(AttributeError):
        record.extra = -1  # __slots__ = (): no instance dict
    assert getattr(record, cls._fields[-1]) == values[-1]


def test_classification_defaults():
    assert Classification._field_defaults == {"form": None, "witness": None,
                                              "separator": None}
    p = Permutation([1, 2, 0])
    c = Classification(False, separator=p)
    assert (c.saturated, c.form, c.witness, c.separator) == (False, None, None, p)


def test_record_reprs():
    s = canonical("S")
    assert repr(max_trace_brute(s)) == (
        "TraceReport(max_value=Fraction(5, 4), argmax=Permutation([1, 0, 2]), "
        "method='brute')")
    assert repr(marcus_ree_gap(s)) == (
        "GapReport(frob_sq=Fraction(5, 4), max_trace=Fraction(5, 4), "
        "gap=Fraction(0, 1), saturated=True)")
    assert repr(Classification(False, separator=Permutation([1, 2, 0]))) == (
        "Classification(saturated=False, form=None, witness=None, "
        "separator=Permutation([1, 2, 0]))")
    assert repr(solve_w(0, F(-21, 20), "minus")) == (
        "WeakFormParams(u=Fraction(0, 1), v=Fraction(-21, 20), "
        "w=_Surd(a=Fraction(31, 80), b=Fraction(-1, 8), d=Fraction(77, 200)), "
        "sign='minus', exact=False, discriminant=Fraction(77, 200))")
    assert repr(BlockSpec(Permutation([0, 1]), (2,), Permutation([1, 0]))) == (
        "BlockSpec(p=Permutation([0, 1]), parts=(2,), q=Permutation([1, 0]))")


def test_surd_orderings_agree_with_floats():
    d = F(2)
    values = [F(0), F(1, 2), F(-3, 2), F(7, 5)] + [
        _Surd(a, b, d) for a in (F(0), F(3, 2), F(-3, 2)) for b in (F(1), F(-1), F(1, 3))]
    assert not isinstance(values[-1], tuple)
    as_float = {id(x): float(x.a + x.b * 2 ** 0.5) if isinstance(x, _Surd)
                else float(x) for x in values}
    for x in values:
        for y in values:
            fx, fy = as_float[id(x)], as_float[id(y)]
            if isinstance(x, _Surd) or isinstance(y, _Surd):
                assert (x < y, x > y, x <= y, x >= y) == (fx < fy, fx > fy,
                                                          fx <= fy, fx >= fy), (x, y)


def test_surd_equality_and_hash():
    x, y = _Surd(F(1), F(2), F(3)), _Surd(F(1), F(2), F(3))
    assert x == y and hash(x) == hash(y) and {x, y} == {x}
    assert x != _Surd(F(1), F(-2), F(3)) and x != (F(1), F(2), F(3)) and x != 1
