"""The sparse exact series type: coefficient types and edge orders."""

from fractions import Fraction

import pytest

from foldcat.cfseries import TruncSeries, cf_limit
from foldcat.errors import NonUnitError


def test_constructor_converts_through_fraction():
    s = TruncSeries([0.5, "1/3", 2, 0], 6)
    assert s.coeffs == [Fraction(1, 2), Fraction(1, 3), 2, 0, 0, 0]
    assert s.terms == {0: Fraction(1, 2), 1: Fraction(1, 3), 2: 2}
    assert type(s.terms[2]) is int
    assert s.nonzero_exponents() == [0, 1, 2]


def test_coeffs_is_a_copy():
    s = TruncSeries([1, 2], 3)
    s.coeffs[0] = 7
    assert s.coeffs == [1, 2, 0]
    with pytest.raises(AttributeError):
        s.coeffs = [0, 0, 0]


def test_unit_division_stays_in_ints():
    q = TruncSeries([-1, 3, 0, 5], 12).inverse()
    assert all(type(c) is int for c in q.terms.values())
    assert q * TruncSeries([-1, 3, 0, 5], 12) == TruncSeries([1], 12)


def test_nonunit_division_uses_fractions():
    q = TruncSeries([1], 5) / TruncSeries([2, 1], 5)
    assert q.coeffs == [Fraction((-1) ** k, 2 ** (k + 1)) for k in range(5)]
    with pytest.raises(NonUnitError):
        TruncSeries([1], 5) / TruncSeries([0, 1], 5)


def test_cancellation_leaves_no_zero_terms():
    a = TruncSeries([1, 2, 3], 4)
    assert (a - a).terms == {}
    assert a.add_shifted(a, -1, 1).add_shifted(a, 1, 1) == a
    assert (a * TruncSeries([0, 0, 0, 1], 4)).terms == {3: 1}


def test_order_zero():
    assert cf_limit(iter([(1, 1)] * 3), 0) == TruncSeries([], 0)
    assert TruncSeries([1, 2], 0).inverse() == TruncSeries([], 0)
