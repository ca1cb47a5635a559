"""Series engine, continued fractions, Hankel LU, uniqueness search."""

import itertools
import math
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from foldcat import catalanz, cfseries, gf2sign, seq
from foldcat.cfseries import (Mat2, MultiPoly, TruncSeries, cf_limit,
                              cf_limit_example, det_int, hankel_det,
                              hankel_lu_rational, hankel_minors,
                              jacobi_series, mu_series, orth_polys,
                              power_of_two_series, stieltjes_extract,
                              uniqueness_check, uniqueness_search,
                              word_matrix, x_polys)
from foldcat.errors import (InvariantError, NoConvergenceError, NonUnitError,
                            SingularMinorError, SizeGuardError)


# ---------------------------------------------------------------------------
# truncated series

def test_series_geometric_inverse():
    one_minus_x = TruncSeries([1, -1], 10)
    assert one_minus_x.inverse().coeffs == [Fraction(1)] * 10


def test_series_mul_div_round_trip():
    a = TruncSeries([1, 2, 3, 4, 5], 8)
    b = TruncSeries([1, -1, 7, 0, 2], 8)
    assert (a * b) / b == a
    assert a * b == b * a


def test_series_inverse_rejects_zero_constant():
    with pytest.raises(NonUnitError):
        TruncSeries([0, 1], 4).inverse()


def test_series_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncSeries([1], 3) * TruncSeries([1], 4)


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=6),
       st.lists(st.integers(-5, 5), min_size=1, max_size=6))
@settings(max_examples=60)
def test_series_mul_matches_polynomial_product(xs, ys):
    order = 12
    a, b = TruncSeries(xs, order), TruncSeries(ys, order)
    prod = [0] * order
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            if i + j < order:
                prod[i + j] += x * y
    assert (a * b).coeffs == [Fraction(c) for c in prod]


def test_named_series():
    assert mu_series(9).coeffs == [1, 1, 0, 1, 0, 0, 0, 1, 0]
    assert power_of_two_series(9).nonzero_exponents() == [1, 2, 4, 8]


# ---------------------------------------------------------------------------
# multivariate word matrices and the closed forms

def test_multipoly_ring_axioms_small():
    x1 = MultiPoly.var(1)
    x2 = MultiPoly.var(2)
    one = MultiPoly.const(1)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
    assert (one + x1) * (one + x1) == one + x1 + x1 + x1 * x1
    assert x1 - x1 == MultiPoly.const(0)


def test_multipoly_across_variable_counts():
    # a monomial is its exponent tuple cut after the last nonzero exponent,
    # so polynomials built in different numbers of variables still compare
    x1, x2, x3 = (MultiPoly.var(i) for i in (1, 2, 3))
    one = MultiPoly.const(1)
    assert x2 * one == x2 and one * x2 == x2
    assert one + x2 == x2 + one
    assert (one + x2).terms == {(): 1, (0, 1): 1}
    assert x1 * x3 == MultiPoly({(1, 0, 1): 1})
    assert (x3 * x1 * x3).terms == {(1, 0, 2): 1}
    assert x2 * x3 - x3 * x2 == MultiPoly.const(0) == MultiPoly()
    built = ((one + x3) - x3, x2 * one - x2 + one,
             (x1 - one) * (x1 + one) - x1 * x1 + one + one,
             MultiPoly({(): 1}), x_polys(0)[0])
    for poly in built:
        assert poly == one and poly.terms == {(): 1}


def test_multipoly_var_refuses_index_below_one():
    for index in (0, -1):
        with pytest.raises(ValueError, match=f"got {index}$"):
            MultiPoly.var(index)


def test_word_matrix_determinant():
    # each factor [[0, u], [1, 1]] contributes det -u
    for k in (1, 2, 3):
        word = seq.fold_word(k)
        det = word_matrix(word).det()
        want = MultiPoly.const(1)
        for letter in word:
            want = want * (-MultiPoly.var(letter.var_index, letter.sign))
        assert det == want


def _generic_word_matrix(word):
    """The letter-by-letter product of generic 2x2 matrices, eight
    polynomial products per letter: the oracle for word_matrix."""
    def matmul(m, o):
        return Mat2(m.a * o.a + m.b * o.c, m.a * o.b + m.b * o.d,
                    m.c * o.a + m.d * o.c, m.c * o.b + m.d * o.d)

    one, zero = MultiPoly.const(1), MultiPoly.const(0)
    out = Mat2(one, zero, zero, one)
    for letter in word:
        u = MultiPoly.var(letter.var_index, letter.sign)
        out = matmul(out, Mat2(zero, u, one, one))
    return out


@given(st.lists(st.builds(seq.FoldLetter, st.integers(1, cfseries.MAX_VARS),
                          st.sampled_from((-1, 1))), max_size=40))
@example([seq.FoldLetter(1 + i % 3, (-1) ** (i // 2)) for i in range(40)])
@settings(max_examples=60, deadline=None)
def test_word_matrix_matches_generic_product(word):
    assert word_matrix(word) == _generic_word_matrix(word)


def test_word_matrix_refuses_every_out_of_range_index():
    # every letter is checked, not only the largest index: index 0 would
    # otherwise read as another variable
    for bad in (0, -1, -5, cfseries.MAX_VARS + 1):
        for word in ([seq.FoldLetter(bad, 1), seq.FoldLetter(2, 1)],
                     [seq.FoldLetter(2, 1), seq.FoldLetter(bad, -1)]):
            with pytest.raises(SizeGuardError, match=(
                    rf"\[1, {cfseries.MAX_VARS}\], got {bad}$")):
                word_matrix(word)


def test_x_polys_closed_values():
    x1, x1t = x_polys(1)
    assert x1 == MultiPoly({(): 1, (1,): 1})          # 1 + x1
    assert x1t == MultiPoly({(): 1, (1,): -1})        # 1 - x1
    x2, x2t = x_polys(2)
    assert x2 == MultiPoly({(): 1, (1,): 1, (2, 1): 1})
    assert x2t == MultiPoly({(): 1, (1,): 1, (2, 1): -1})


def test_x_polys_guard():
    with pytest.raises(SizeGuardError):
        x_polys(cfseries.MAX_VARS + 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, cfseries.MAX_LEMMA5_LEVEL])
def test_word_matrix_closed_form(n):
    assert cfseries.verify_lemma5(n).ok


def test_lemma5_reports_wrong_word_matrix_entries(monkeypatch):
    # the forward product gets b + 1, the reversed one c - 1; b + 1 also
    # breaks the convergent's d = b + d entry, reported at (1, 1)
    real = cfseries.word_matrix
    calls = []

    def wrong(word):
        got = real(word)
        calls.append(word)
        one = MultiPoly.const(1)
        if len(calls) == 1:
            return got._replace(b=got.b + one)
        return got._replace(c=got.c - one)

    monkeypatch.setattr(cfseries, "word_matrix", wrong)
    report = cfseries.verify_lemma5(2)
    assert calls == [seq.fold_word(2), seq.fold_word(2)[::-1]]
    assert [(f.i, f.j, f.expected, f.got) for f in report.failures] == [
        (0, 1, {(1, 0): -1, (2, 1): -1}, {(1, 0): -1, (2, 1): -1, (0, 0): 1}),
        (1, 0, {(0, 0): 1, (1, 0): 2, (2, 0): 1}, {(1, 0): 2, (2, 0): 1}),
        (1, 1, {(0, 0): 1}, {(0, 0): 2}),
    ]


def test_lemma5_reports_both_convergent_entries_of_a_wrong_d(monkeypatch):
    # d + 1 on the forward product breaks the convergent's b = d and its
    # d = b + d, each reported with its own expected value
    real = cfseries.word_matrix
    calls = []

    def wrong(word):
        got = real(word)
        calls.append(word)
        if len(calls) == 1:
            return got._replace(d=got.d + MultiPoly.const(1))
        return got

    monkeypatch.setattr(cfseries, "word_matrix", wrong)
    report = cfseries.verify_lemma5(2)
    xn = {(0, 0): 1, (1, 0): 1, (2, 1): 1}
    assert [(f.i, f.j, f.expected, f.got) for f in report.failures] == [
        (1, 1, xn, {**xn, (0, 0): 2}),
        (0, 1, xn, {**xn, (0, 0): 2}),
        (1, 1, {(0, 0): 1}, {(0, 0): 2}),
    ]


@pytest.mark.parametrize("k", range(1, cfseries.MAX_LEMMA5_LEVEL + 1))
def test_word_matrix_b_entry_with_every_variable_x(k):
    # every x_i = x: b = 1 - X_k(x, ..., x) = -(x + x^3 + ... + x^(2^k - 1))
    collapsed = {}
    for e, c in word_matrix(seq.fold_word(k)).b.terms.items():
        collapsed[sum(e)] = collapsed.get(sum(e), 0) + c
    assert {deg: c for deg, c in collapsed.items() if c} == \
        {(1 << j) - 1: -1 for j in range(1, k + 1)}


# ---------------------------------------------------------------------------
# continued-fraction limits

def test_cf_limit_catalan_signs():
    # g = x/(1 + g) has coefficients (-1)^(k-1) C_{k-1}
    order = 12
    got = cf_limit(iter([(1, 1)] * 200), order)
    want = [0] + [(-1) ** (k - 1) * catalanz.catalan(k - 1)
                  for k in range(1, order)]
    assert got.coeffs == [Fraction(c) for c in want]


def test_cf_limit_examples_small_orders():
    assert cf_limit_example(1, 40).nonzero_exponents() == [1, 2, 4, 8, 16, 32]
    assert cf_limit_example(2, 30).nonzero_exponents() == [1, 3, 9, 27]
    assert cf_limit_example(3, 30).nonzero_exponents() == [1, 2, 6, 24]


@pytest.mark.parametrize("example", [-1, 0, 4])
def test_invalid_example_is_refused(example):
    # order 1 stabilises after the first numerator, so the example must be
    # checked before that one is drawn
    for order in (1, 40):
        with pytest.raises(ValueError, match=r"^example must be 1, 2 or 3$"):
            cf_limit_example(example, order)
    with pytest.raises(ValueError, match=r"^example must be 1, 2 or 3$"):
        next(cfseries.example_numerators(example))


def test_cf_limit_rejects_constant_numerators():
    with pytest.raises(ValueError):
        cf_limit(iter([(1, 0)]), 4)


def test_cf_limit_no_convergence():
    with pytest.raises(NoConvergenceError):
        cf_limit(iter([]), 4)


def test_example_numerator_streams():
    nums1 = cfseries.example_numerators(1)
    assert next(nums1) == (1, 1)
    for n in range(1, 50):
        sign, exp = next(nums1)
        assert exp == 1 and sign == seq.fold_stream(n).sign
    nums2 = cfseries.example_numerators(2)
    next(nums2)
    exps = {exp for _, exp in (next(nums2) for _ in range(100))}
    assert exps <= {1 + 3 ** (v - 1) for v in range(1, 8)}
    nums3 = cfseries.example_numerators(3)
    next(nums3)
    sign, exp = next(nums3)
    assert exp == 1  # variable 1: 1 + 0 * 1!


def test_convergent_coherence_example1():
    # P_k Q_{k-1} - P_{k-1} Q_k == +- x^k for the all-x substitution
    p_prev, q_prev = [1], [0]
    p_cur, q_cur = [0], [1]
    nums = cfseries.example_numerators(1)
    prod_sign = -1
    for k in range(1, 101):
        sign, exp = next(nums)
        prod_sign *= -sign
        p_new = _shift_add(p_cur, p_prev, sign, exp)
        q_new = _shift_add(q_cur, q_prev, sign, exp)
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_new, q_new
        wron = _poly_sub(_poly_mul(p_cur, q_prev), _poly_mul(p_prev, q_cur))
        want = [0] * k + [prod_sign]
        assert _trim(wron) == _trim(want), k


def _shift_add(cur, prev, sign, exp):
    out = [0] * max(len(cur), len(prev) + exp)
    for i, c in enumerate(cur):
        out[i] += c
    for i, c in enumerate(prev):
        out[i + exp] += sign * c
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return out


def _trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def test_folded_limits_match_sparse_series():
    assert cfseries.verify_thm1((80, 30, 30)).ok


# The dense recurrence with an explicit series inverse that cf_limit used
# before its convergents became sparse maps; kept as the oracle.

def _oracle_poly_inv(q, order):
    if not q or q[0] not in (1, -1):
        raise NonUnitError("constant term must be a unit for integer inversion")
    out = [0] * order
    out[0] = q[0]
    for k in range(1, order):
        acc = 0
        for i in range(1, min(k, len(q) - 1) + 1):
            acc += q[i] * out[k - i]
        out[k] = -q[0] * acc
    return out


def _oracle_series_div(p, q, order):
    inv = _oracle_poly_inv(q, order)
    out = [0] * order
    for i, ca in enumerate(p[:order]):
        if ca:
            for j, cb in enumerate(inv[:order - i]):
                if cb:
                    out[i + j] += ca * cb
    return out


def _oracle_cf_limit(numerators, order):
    p_prev, q_prev = [1], [0]
    p_cur, q_cur = [0], [1]
    expsum = 0
    steps = 0
    for sign, exp in numerators:
        if exp < 1:
            raise ValueError("numerator exponents must be >= 1")
        steps += 1
        if steps > cfseries.CF_STEP_BUDGET:
            break
        p_new = [0] * min(max(len(p_cur), len(p_prev) + exp), order)
        q_new = [0] * min(max(len(q_cur), len(q_prev) + exp), order)
        for arr, cur, prev in ((p_new, p_cur, p_prev), (q_new, q_cur, q_prev)):
            for k, c in enumerate(cur[:order]):
                arr[k] += c
            for k, c in enumerate(prev):
                if k + exp < order:
                    arr[k + exp] += sign * c
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_new, q_new
        expsum += exp
        if expsum >= order:
            cur = _oracle_series_div(p_cur, q_cur, order)
            if cur == _oracle_series_div(p_prev, q_prev, order):
                return TruncSeries(cur, order)
    raise NoConvergenceError(f"no stabilization to order {order}")


def _outcome(call):
    """The value of call(), or the type and arguments of what it raised."""
    try:
        return call()
    except (ValueError, RuntimeError) as exc:
        return type(exc), getattr(exc, "k", None)


@given(st.lists(st.tuples(st.sampled_from((-1, 1)), st.integers(1, 4)),
                max_size=60),
       st.integers(1, 25))
@settings(max_examples=150)
def test_cf_limit_matches_dense_oracle(stream, order):
    assert _outcome(lambda: cf_limit(iter(stream), order)) == \
        _outcome(lambda: _oracle_cf_limit(iter(stream), order))


@pytest.mark.parametrize("example", [1, 2, 3])
def test_cf_limit_examples_match_dense_oracle(example):
    for order in (1, 2, 3, 17, 64, 300):
        want = _oracle_cf_limit(cfseries.example_numerators(example), order)
        assert cf_limit_example(example, order) == want, order


# The sparse recurrence that cf_limit ran before its convergents became
# dense arrays: each step one TruncSeries.add_shifted per convergent.  Kept
# as the oracle of the dense kernel.

def _sparse_cf_limit(numerators, order):
    p_prev, q_prev = TruncSeries([1], order), TruncSeries([], order)
    p_cur, q_cur = TruncSeries([], order), TruncSeries([1], order)
    expsum = 0
    steps = 0
    for sign, exp in numerators:
        if exp < 1:
            raise ValueError("numerator exponents must be >= 1")
        steps += 1
        if steps > cfseries.CF_STEP_BUDGET:
            break
        p_prev, p_cur = p_cur, p_cur.add_shifted(p_prev, sign, exp)
        q_prev, q_cur = q_cur, q_cur.add_shifted(q_prev, sign, exp)
        expsum += exp
        if expsum >= order:
            cur = p_cur / q_cur
            if cur == p_prev / q_prev:
                return cur
    raise NoConvergenceError(f"no stabilization to order {order}")


@st.composite
def _cf_cases(draw):
    order = draw(st.integers(0, 96))
    stream = draw(st.lists(st.tuples(
        st.sampled_from((0, 1, -1, 5, -5, 1 << 70, -(1 << 70))),
        st.integers(1, order + 3)), max_size=120))
    return stream, order


@given(_cf_cases())
@settings(max_examples=300)
def test_cf_limit_matches_sparse_oracle(case):
    stream, order = case
    assert _outcome(lambda: cf_limit(iter(stream), order)) == \
        _outcome(lambda: _sparse_cf_limit(iter(stream), order))


def test_cf_limit_order_zero_with_a_sign_beyond_int64():
    for sign in (1 << 70, -(1 << 70), 1 << 62, -(1 << 63)):
        got = cf_limit(iter([(sign, 1)]), 0)
        assert got == _sparse_cf_limit(iter([(sign, 1)]), 0) \
            == TruncSeries([], 0)


def test_cf_limit_catalan_signs_beyond_int64():
    # the all-plus stream at order 200: |coefficients| reach C_198 > 2^63,
    # so the kernel must leave int64
    order = 200
    got = cf_limit(iter([(1, 1)] * 400), order)
    assert max(abs(c) for c in got.terms.values()) >= 1 << 63
    assert got == _sparse_cf_limit(iter([(1, 1)] * 400), order)
    assert got.coeffs == [0] + [(-1) ** (k - 1) * catalanz.catalan(k - 1)
                                for k in range(1, order)]


@pytest.mark.parametrize("example", [1, 2, 3])
def test_cf_limit_examples_match_sparse_oracle_at_the_limit(example):
    order = cfseries.MAX_CF_ORDER
    assert cf_limit_example(example, order) == \
        _sparse_cf_limit(cfseries.example_numerators(example), order)


# ---------------------------------------------------------------------------
# Jacobi fractions and moment functionals

def test_jacobi_series_catalan():
    a = [1] + [2] * 9
    b = [1] * 9
    got = jacobi_series(a, b, 16)
    assert got.coeffs == [Fraction(catalanz.catalan(n)) for n in range(16)]


def test_jacobi_series_depth_validation():
    with pytest.raises(ValueError):
        jacobi_series([], [], 4)
    with pytest.raises(ValueError):
        jacobi_series([1, 1], [], 4)


def test_jacobi_series_reproduces_mu():
    a = [seq.d(k) for k in range(1, 34)]
    b = [-1] * 33
    got = jacobi_series(a, b, 64)
    assert got == mu_series(64)


# the moment sequences of the paper, as the callables cfseries takes
def _mu_shifted(k):
    return seq.mu(k + 1)


MOMENTS = {"mu_moments": seq.mu, "catalan_moments": catalanz.catalan,
           "mu_shifted_moments": _mu_shifted}


def test_hankel_lu_catalan_golden():
    low, diag = hankel_lu_rational(catalanz.catalan, 3)
    assert [row[:i + 1] for i, row in enumerate(low)] == \
        [[1], [1, 1], [2, 3, 1]]
    assert diag == [1, 1, 1]


def test_hankel_lu_mu_diag():
    low, diag = hankel_lu_rational(seq.mu, 4)
    assert diag == [1, -1, 1, -1]


def test_hankel_lu_reconstructs_matrix():
    for moments in MOMENTS.values():
        n = 8
        low, diag = hankel_lu_rational(moments, n)
        for i in range(n):
            for j in range(n):
                val = sum(low[i][k] * diag[k] * low[j][k] for k in range(n))
                assert val == moments(i + j)


def test_hankel_lu_singular_minor():
    with pytest.raises(SingularMinorError):
        hankel_lu_rational(lambda k: 1, 2)


def test_hankel_lu_guard():
    with pytest.raises(SizeGuardError):
        hankel_lu_rational(seq.mu, cfseries.MAX_LU_SIZE + 1)


def test_stieltjes_catalan_coefficients():
    cf = stieltjes_extract(catalanz.catalan, 10)
    assert cf.a == [1] + [2] * 9
    assert cf.b == [1] * 9


def test_stieltjes_mu_matches_quotient_sequence():
    cf = stieltjes_extract(seq.mu, 16)
    assert cf.a == [seq.d(k) for k in range(1, 17)]
    assert cf.b == [-1] * 15


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_mu_jacobi_verification(n):
    assert cfseries.verify_thm4(n).ok


def test_thm4_det_statement_reads_the_extracted_table(monkeypatch):
    # a wrong a_4 breaks both the a = d statement and det S(5) = s(5)
    real = cfseries.stieltjes_extract

    def wrong_a4(moments, n):
        cf = real(moments, n)
        cf.a[4] += 1
        return cf

    monkeypatch.setattr(cfseries, "stieltjes_extract", wrong_a4)
    failures = [(f.i, f.j, f.expected, f.got)
                for f in cfseries.verify_thm4(12).failures]
    # a_4 = d(5) = 2 read as 3, and det S(5) = s(5) = -1 read as -2
    assert failures[:2] == [(4, 4, 2, 3), (4, 4, -1, -2)]


def test_stieltjes_depth_guard_names_real_limit(monkeypatch):
    # depth n reads the table of H(n + 1), so the minor limit caps the
    # depth one lower; the guard runs before the table
    def no_work(*args, **kwargs):
        raise AssertionError("the table ran for a rejected depth")

    monkeypatch.setattr(cfseries, "_stieltjes", no_work)
    assert cfseries.MAX_JACOBI_DEPTH == cfseries.MAX_DET_SIZE - 1 == 2047
    for n in (0, -3, 2048):
        with pytest.raises(SizeGuardError, match=r"\[1, 2047\]"):
            stieltjes_extract(seq.mu, n)


def test_stieltjes_mu_at_depth_1024():
    cf = stieltjes_extract(seq.mu, 1024)
    assert cf.a == [seq.d(k) for k in range(1, 1025)]
    assert cf.b == [-1] * 1023


def test_stieltjes_takes_a_scaled_first_moment():
    # a and b do not depend on m_0; det H(n) is m_0^n prod b_k^(n-k)
    cf = stieltjes_extract(lambda k: 2 * catalanz.catalan(k), 5)
    assert cf == ([1, 2, 2, 2, 2], [1, 1, 1, 1])
    for n in (1, 3):
        assert stieltjes_extract(lambda k: -seq.mu(k), n) == \
            stieltjes_extract(seq.mu, n)


# The extraction that read a and b from the band of the dense Fraction L of
# hankel_lu_rational and checked L(n) T == L_minus(n) entry by entry; kept
# as the oracle.

def _oracle_stieltjes_extract(moments, n):
    low, _ = hankel_lu_rational(moments, n + 1)
    a, b = [], []
    for i in range(n):
        sub = low[i][i - 1] if i else 0
        a.append(low[i + 1][i] - sub)
        if i:
            sub2 = low[i][i - 2] if i > 1 else 0
            b.append(low[i + 1][i - 1] - sub2 - sub * a[i - 1])
    for i in range(n):
        row = low[i]
        for j in range(n):
            got = row[j] * a[j]
            if j:
                got += row[j - 1]
            if j + 1 < n:
                got += row[j + 1] * b[j]
            if got != low[i + 1][j]:
                raise InvariantError("L(n) T == L_minus(n), T tridiagonal",
                                     (i, j), low[i + 1][j], got)
    return cfseries.JacobiCF(a, b)


def _exact_outcome(call):
    """repr of the value of call(), or the type, message and index of the
    error it raised."""
    try:
        return repr(call())
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc), getattr(exc, "k", None), \
            getattr(exc, "where", None)


@pytest.mark.parametrize("moments", list(MOMENTS.values()), ids=list(MOMENTS))
def test_stieltjes_matches_dense_oracle(moments):
    for n in range(1, 64):
        assert _exact_outcome(lambda: stieltjes_extract(moments, n)) == \
            _exact_outcome(lambda: _oracle_stieltjes_extract(moments, n)), n


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-3, 3),
                                             min_size=2 * n,
                                             max_size=2 * n))))
@settings(max_examples=300)
def test_stieltjes_random_moments_match_dense_oracle(case):
    n, values = case
    moments = [1, *values].__getitem__
    assert _exact_outcome(lambda: stieltjes_extract(moments, n)) == \
        _exact_outcome(lambda: _oracle_stieltjes_extract(moments, n))


# The Fraction L D L^t that hankel_lu_rational ran before it read L and D
# from one Bareiss pass; kept as the oracle.

def _oracle_hankel_ldl(moments, n):
    h = [[Fraction(moments(i + j)) for j in range(n)] for i in range(n)]
    low = [[Fraction(0)] * n for _ in range(n)]
    diag = []
    for j in range(n):
        dj = h[j][j] - sum(low[j][k] * low[j][k] * diag[k] for k in range(j))
        if dj == 0:
            raise SingularMinorError(j)
        diag.append(dj)
        low[j][j] = Fraction(1)
        for i in range(j + 1, n):
            v = h[i][j] - sum(low[i][k] * low[j][k] * diag[k]
                              for k in range(j))
            low[i][j] = v / dj
    return low, diag


@pytest.mark.parametrize("moments", list(MOMENTS.values()), ids=list(MOMENTS))
def test_hankel_lu_matches_fraction_oracle(moments):
    for n in (1, 2, 5, 8, 17, 33):
        assert _outcome(lambda: hankel_lu_rational(moments, n)) == \
            _outcome(lambda: _oracle_hankel_ldl(moments, n)), n


@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-4, 4),
                                             min_size=2 * n - 1,
                                             max_size=2 * n - 1))))
@settings(max_examples=150)
def test_hankel_lu_random_moments_match_fraction_oracle(case):
    n, values = case
    moments = values.__getitem__
    assert _outcome(lambda: hankel_lu_rational(moments, n)) == \
        _outcome(lambda: _oracle_hankel_ldl(moments, n))


def test_hankel_lu_rational_moments_match_fraction_oracle():
    values = [Fraction(3, 2), Fraction(-1, 3), Fraction(5, 4), Fraction(2),
              Fraction(-7, 6), Fraction(1, 9), Fraction(4, 5)]
    moments = values.__getitem__
    assert hankel_lu_rational(moments, 4) == _oracle_hankel_ldl(moments, 4)


def _corrupted_table(monkeypatch, edit):
    """Make _stieltjes yield edit(k, step) for each step k of the table."""
    real = cfseries._stieltjes

    def corrupted(moments, count):
        for k, step in enumerate(real(moments, count)):
            yield edit(k, step)

    monkeypatch.setattr(cfseries, "_stieltjes", corrupted)


def test_stieltjes_check_localises_a_corrupted_entry(monkeypatch):
    # sigma(1, 6) lies off the band; the table builds its later columns from
    # it as if m_7 were one larger, so the expansion is off first at m_7
    def off_band(k, step):
        if k == 1:
            step[2][6 - k] += 1
        return step

    _corrupted_table(monkeypatch, off_band)
    with pytest.raises(InvariantError) as info:
        stieltjes_extract(seq.mu, 8)
    assert info.value.where == 7
    assert (info.value.expected, info.value.got) == (1, 2)


def test_stieltjes_check_catches_a_doubled_pivot(monkeypatch):
    # a doubled D_3 doubles b_3 = D_3/D_2, which step 4 carries, and halves
    # b_4, which step 5 carries; b_3 first weighs on the moment m_6
    scale = {4: 2, 5: Fraction(1, 2)}

    def doubled(k, step):
        pivot, minor, col, a, b = step
        if k == 3:
            pivot, minor = 2 * pivot, 2 * minor
        return pivot, minor, col, a, scale[k] * b if k in scale else b

    _corrupted_table(monkeypatch, doubled)
    with pytest.raises(InvariantError) as info:
        stieltjes_extract(seq.mu, 8)
    assert info.value.where == 6
    assert (info.value.expected, info.value.got) == (0, -1)


def test_stieltjes_check_reaches_the_last_moment(monkeypatch):
    # a_7, which step 8 carries, first weighs on m_15 = m_(2n-1) at n = 8
    def last_a(k, step):
        pivot, minor, col, a, b = step
        return pivot, minor, col, a + 1 if k == 8 else a, b

    _corrupted_table(monkeypatch, last_a)
    with pytest.raises(InvariantError) as info:
        stieltjes_extract(seq.mu, 8)
    assert info.value.where == 15
    assert (info.value.expected, info.value.got) == (1, 0)


def test_stieltjes_check_survives_optimized_mode():
    # python -O strips assert statements; the check must still raise
    script = textwrap.dedent("""
        import sys
        from foldcat import cfseries
        from foldcat.errors import InvariantError
        real = cfseries._stieltjes
        def corrupted(moments, count):
            for k, step in enumerate(real(moments, count)):
                if k == 1:
                    step[2][5] += 1
                yield step
        cfseries._stieltjes = corrupted
        try:
            cfseries.stieltjes_extract(cfseries.seq.mu, 8)
        except InvariantError as exc:
            print(sys.flags.optimize, exc.where, exc.expected, exc.got)
        else:
            print(sys.flags.optimize, "no error")
    """)
    assert _run_python(script, "-O").split() == ["1", "7", "1", "2"]


def _run_python(script, *options):
    """stdout of a fresh interpreter running script with foldcat importable."""
    src = os.path.dirname(os.path.dirname(cfseries.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, *options, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


# ---------------------------------------------------------------------------
# determinants

def test_det_int_small_oracle():
    assert det_int([[3]]) == 3
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[1, 1], [1, 1]]) == 0


@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4),
                min_size=4, max_size=4))
@settings(max_examples=60)
def test_det_int_matches_fraction_elimination(rows):
    want = _det_fraction(rows)
    assert det_int(rows) == want


def _det_fraction(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, n):
            f = a[r][k] / a[k][k]
            for c in range(k, n):
                a[r][c] -= f * a[k][c]
    assert det.denominator == 1
    return det.numerator


def test_hankel_det_sign_formula():
    for n in range(1, 17):
        assert hankel_det(seq.mu, n) == (-1) ** (n * (n - 1) // 2)


def test_det_identities_suite():
    assert cfseries.verify_det_identities(20).ok


def test_det_identities_report_a_wrong_det_once(monkeypatch):
    real = cfseries.hankel_minors

    def wrong_h2(moments, n):
        minors = real(moments, n)
        minors[1] = 5
        return minors

    monkeypatch.setattr(cfseries, "hankel_minors", wrong_h2)
    report = cfseries.verify_det_identities(8)
    assert [(f.expected, f.got) for f in report.failures
            if (f.i, f.j) == (2, 0)] == [(-1, 5)]


def _leading_block(mat, k):
    return [row[:k] for row in mat[:k]]


@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.integers(-4, 4), min_size=2 * n - 1,
                       max_size=2 * n - 1)))
@settings(max_examples=150)
def test_stieltjes_minors_match_det_int(values):
    count = len(values)
    n = (count + 1) // 2
    mat = [values[i:i + n] for i in range(n)]
    steps = list(cfseries._stieltjes(values.__getitem__, count))
    want = [det_int(_leading_block(mat, k)) for k in range(1, n + 1)]
    # one step per order up to and including the first zero minor
    stop = want.index(0) + 1 if 0 in want else n
    assert [minor for _, minor, *_ in steps] == want[:stop]
    # sigma(k, l) Delta_k is the bordered minor det(rows 0..k-1 and l,
    # cols 0..k), for every l = k..count-1-k of column k
    for k, (pivot, _, col, *_) in enumerate(steps):
        delta = want[k - 1] if k else 1
        assert pivot == col[0]
        assert [v * delta for v in col] == \
            [det_int([values[r:r + k + 1] for r in list(range(k)) + [l]])
             for l in range(k, count - k)]


def test_stieltjes_steps_run_only_when_asked():
    values = [1, 2, 4, 3, 5]
    calls = []

    def moments(k):
        calls.append(k)
        return values[k]

    steps = cfseries._stieltjes(moments, 5)
    assert calls == []
    # step k carries a_(k-1) and b_(k-1); a_0 = 2/1, b_0 = m_0
    assert next(steps) == (1, 1, [1, 2, 4, 3, 5], None, None)
    assert next(steps) == (0, 0, [0, -5, -1], 2, 1)   # det H(2) == 0
    with pytest.raises(StopIteration):
        next(steps)
    assert calls == [0, 1, 2, 3, 4]
    assert values == [1, 2, 4, 3, 5]


def test_hankel_minors_singular_leading_block_falls_back():
    # H(2) = [[1, 2], [2, 4]] is singular and det H(3) = -(3 - 8)^2
    values = [1, 2, 4, 3, 5, 7, 6]
    mat = [values[i:i + 4] for i in range(4)]
    want = [det_int(_leading_block(mat, k)) for k in range(1, 5)]
    assert want[:3] == [1, 0, -25] and want[3] != 0
    assert len(list(cfseries._stieltjes(values.__getitem__, 7))) == 2
    assert hankel_minors(values.__getitem__, 4) == want


def test_hankel_minors_guard():
    assert cfseries.MAX_DET_SIZE >= 128
    for n in (0, -3, cfseries.MAX_DET_SIZE + 1):
        with pytest.raises(SizeGuardError,
                           match=rf"\[1, {cfseries.MAX_DET_SIZE}\]"):
            hankel_minors(seq.mu, n)


def test_hankel_minors_refuses_non_int_moments():
    # each would be truncated: int() of a Fraction minor gave [0, 0, 0], and
    # det_int's // floors a float
    cases = [(lambda k: Fraction(1, k + 2), 0, Fraction(1, 2)),
             (lambda k: [1, 1, 0.5, 1, 1][k], 2, 0.5),
             (lambda k: Fraction(k), 0, Fraction(0))]
    for moments, index, value in cases:
        with pytest.raises(ValueError, match=re.escape(
                f"moment {index} must be an int, got {value!r}")):
            hankel_minors(moments, 3)


def test_hankel_minors_at_the_size_limit_match_the_sign_formula():
    n = cfseries.MAX_DET_SIZE
    assert hankel_minors(seq.mu, n) == [(-1) ** (k * (k - 1) // 2)
                                        for k in range(1, n + 1)]


def test_hankel_minors_one_pass_matches_each_det():
    for moments in MOMENTS.values():
        want = [det_int([[moments(i + j) for j in range(n)] for i in range(n)])
                for n in range(1, 25)]
        assert hankel_minors(moments, 24) == want


# ---------------------------------------------------------------------------
# orthogonal polynomials

def test_orth_polys_first_rows():
    rows = orth_polys(8)
    assert rows[0] == [1]
    assert rows[1] == [-1, 1]           # x - 1
    assert rows[2] == [-1, 1, 1]        # x^2 + x - 1
    for row in rows:
        assert set(row) <= {-1, 0, 1}
        assert row[-1] == 1             # monic


def test_orth_polys_norms_are_signs():
    rows = orth_polys(12)
    for k, row in enumerate(rows):
        norm = sum(a * b * seq.mu(i + j) for i, a in enumerate(row)
                   for j, b in enumerate(row))
        assert norm == (-1) ** k


def test_orth_polys_rows_are_signed_inverse_entries():
    # row i of D_s D_a M D_a D_s, each sign taken from seq.s entry by entry
    def sign(i):
        return seq.s(i) * (-1) ** (i % 2)

    for n in range(1, 65):
        mmat = gf2sign.build_tri(gf2sign.M, n)
        want = [[sign(i) * int(mmat[i, k]) * sign(k) for k in range(i + 1)]
                for i in range(n)]
        assert orth_polys(n) == want, n


def test_orth_polys_guard():
    with pytest.raises(SizeGuardError):
        orth_polys(0)


def test_orth_polys_recursion_check_raises(monkeypatch):
    real_d = seq.d
    monkeypatch.setattr(cfseries.seq, "d",
                        lambda n: real_d(n) + (1 if n == 5 else 0))
    with pytest.raises(InvariantError, match="three-term recursion") as info:
        orth_polys(8)
    assert info.value.where == 5


# ---------------------------------------------------------------------------
# uniqueness of the sign pattern

def pattern_sequence(eps, length):
    out = [0] * length
    for k, sign in enumerate(eps):
        if (1 << k) - 1 < length:
            out[(1 << k) - 1] = sign
    return out


def test_uniqueness_check_mu_prefix():
    result = uniqueness_check([seq.mu(n) for n in range(15)])
    assert result.ok
    assert result.eps == [1, 1, 1, 1]


def test_uniqueness_check_twisted_patterns():
    for eps in ([1, -1, 1, -1], [1, 1, -1, 1], [-1, 1, 1, -1]):
        result = uniqueness_check(pattern_sequence(eps, 15))
        assert result.ok
        assert result.eps == eps


def test_uniqueness_check_detects_bad_sequences():
    result = uniqueness_check([1, 1, 1])
    assert not result.ok and result.which == "hankel" and result.fail_index == 2
    result = uniqueness_check([1, 1, 0, 0, 0, 0])
    assert not result.ok
    result = uniqueness_check([1, 0, 1, 0])
    assert not result.ok and result.which == "shifted-hankel"


def test_uniqueness_check_validation():
    with pytest.raises(ValueError):
        uniqueness_check([1])
    with pytest.raises(ValueError):
        uniqueness_check([1, 2, 1])


def test_uniqueness_check_length_guard_rejects_before_any_work(monkeypatch):
    class Admitted(Exception):
        pass

    def no_work(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(cfseries, "_stieltjes", no_work)
    monkeypatch.setattr(cfseries, "det_int", no_work)
    limit = cfseries.MAX_UNIQUE_LEN
    for length in (0, 1, limit + 1, 4 * limit):
        with pytest.raises(SizeGuardError,
                           match=rf"\[2, {limit}\], got {length}$"):
            uniqueness_check([0] * length)
    with pytest.raises(Admitted):
        uniqueness_check([0, 0])


# The uniqueness check as it was before it read its minors from one
# pass per matrix: a fresh det_int per order; kept as the oracle.

def _oracle_uniqueness_check(c):
    length = len(c)
    for n in range(1, (length + 1) // 2 + 1):
        det = det_int([[c[i + j] for j in range(n)] for i in range(n)])
        if det not in (-1, 1):
            return cfseries.UniquenessResult(False, None, n, "hankel")
    for n in range(1, length // 2 + 1):
        det = det_int([[c[i + j + 1] for j in range(n)] for i in range(n)])
        if det not in (-1, 1):
            return cfseries.UniquenessResult(False, None, n, "shifted-hankel")
    eps = []
    for m, v in enumerate(c):
        if (m + 1) & m == 0:
            eps.append(v)
        elif v != 0:
            return cfseries.UniquenessResult(False, None, m, "pattern")
    return cfseries.UniquenessResult(True, eps, None, None)


def test_uniqueness_check_matches_oracle_on_every_short_sequence():
    count = 0
    for length in range(2, 10):
        for c in itertools.product((-1, 0, 1), repeat=length):
            assert uniqueness_check(c) == _oracle_uniqueness_check(c), c
            count += 1
    assert count == 29520


def test_uniqueness_check_matches_oracle_on_perturbed_patterns():
    rng = random.Random(10)
    for length in (2, 3, 7, 8, 16, 31, 33, 64, 100, 128):
        eps = [rng.choice((-1, 1)) for _ in range(8)]
        base = pattern_sequence(eps, length)
        assert uniqueness_check(base) == _oracle_uniqueness_check(base)
        positions = {0, 1, length - 2, length - 1} | \
            {rng.randrange(length) for _ in range(2)}
        for m in sorted(positions):
            v = rng.choice([v for v in (-1, 0, 1) if v != base[m]])
            c = base[:m] + [v] + base[m + 1:]
            assert uniqueness_check(c) == _oracle_uniqueness_check(c), \
                (length, m, v)


def test_uniqueness_check_at_the_length_limit():
    length = cfseries.MAX_UNIQUE_LEN
    rng = random.Random(12)
    eps = [rng.choice((-1, 1)) for _ in range(length.bit_length())]
    c = pattern_sequence(eps, length)
    assert uniqueness_check(c) == (True, eps, None, None)
    # the last entry is the corner of the shifted Hankel of order length/2
    # alone, and changing it moves that minor by +-1 off +-1
    c[-1] = 0 if c[-1] else 1
    assert uniqueness_check(c) == \
        (False, None, length // 2, "shifted-hankel")


def test_uniqueness_check_stops_at_the_first_bad_minor(monkeypatch):
    # a sequence of the longest admitted length whose Hankel minor of
    # order 2 is -2: the table must be left after its second step
    real = cfseries._stieltjes
    steps = []

    def counted(moments, count):
        for step in real(moments, count):
            steps.append(step[1])
            yield step

    monkeypatch.setattr(cfseries, "_stieltjes", counted)
    rng = random.Random(11)
    c = [1, 1, -1] + [rng.choice((-1, 1))
                      for _ in range(cfseries.MAX_UNIQUE_LEN - 3)]
    assert tuple(uniqueness_check(c)) == (False, None, 2, "hankel")
    assert steps == [1, -2]


def test_uniqueness_search_small():
    survivors = uniqueness_search(4)
    want = {tuple(pattern_sequence((a, b, c), 4))
            for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)}
    assert set(survivors) == want
    assert len(survivors) == 8


def test_uniqueness_search_is_the_brute_force_list():
    # every sequence whose completed minors (entry m completes the order
    # m // 2 + 1 minor of the Hankel matrix for even m, of the shifted one
    # for odd m) are all +-1, in the order itertools.product lists them
    for length in range(2, 9):
        want = [c for c in itertools.product((-1, 0, 1), repeat=length)
                if all(det_int([list(c[i + m % 2:i + m % 2 + m // 2 + 1])
                                for i in range(m // 2 + 1)]) in (-1, 1)
                       for m in range(length))]
        assert uniqueness_search(length) == want, length


def test_uniqueness_search_guard():
    with pytest.raises(SizeGuardError):
        uniqueness_search(1)
    with pytest.raises(SizeGuardError):
        uniqueness_search(11)


def test_uniqueness_search_survivor_check_raises(monkeypatch):
    monkeypatch.setattr(cfseries, "uniqueness_check",
                        lambda c: cfseries.UniquenessResult(False, None, 2,
                                                            "pattern"))
    with pytest.raises(InvariantError, match="pattern check"):
        uniqueness_search(4)
