"""The shared compare helper of the verification reports."""

from fractions import Fraction

import numpy as np

from foldcat.report import VerifyReport


def _failures(report):
    return [(f.i, f.j, f.expected, f.got) for f in report.failures]


def test_compare_int64_row_major_python_ints():
    expected = np.arange(12, dtype=np.int64).reshape(3, 4)
    got = expected.copy()
    got[2, 0] = -1
    got[0, 3] = 7
    got[1, 1] = 0
    report = VerifyReport("t", 3)
    report.compare(got, expected)
    assert _failures(report) == [(0, 3, 3, 7), (1, 1, 5, 0), (2, 0, 8, -1)]
    for f in report.failures:
        assert all(type(v) is int for v in (f.i, f.j, f.expected, f.got))


def test_compare_object_keeps_exact_values():
    expected = np.array([[1, Fraction(1, 2)], [Fraction(3), 4]], dtype=object)
    got = np.array([[Fraction(1), Fraction(1, 3)], [3, 10 ** 30]],
                   dtype=object)
    report = VerifyReport("t", 2)
    report.compare(got, expected)
    assert _failures(report) == [(0, 1, Fraction(1, 2), Fraction(1, 3)),
                                 (1, 1, 4, 10 ** 30)]
    first, second = report.failures
    assert type(first.expected) is Fraction and type(first.got) is Fraction
    assert type(second.expected) is int and type(second.got) is int
    assert report.as_dict()["failures"][1] == {
        "i": 1, "j": 1, "expected": "4", "got": str(10 ** 30)}


def test_compare_equal_adds_nothing():
    report = VerifyReport("t", 2)
    report.compare(np.eye(2, dtype=np.int64), np.eye(2, dtype=np.int64))
    assert report.ok and report.failures == []
