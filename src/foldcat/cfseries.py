"""Formal-series and continued-fraction engine.

Sparse exact truncated power series, sparse multivariate polynomials, 2x2
word-matrix products, the multivariate closed forms behind the folded
continued fraction, Hankel LU over the rationals, Stieltjes/Jacobi
extraction, determinant identities and the Hankel uniqueness checker.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import gf2sign, seq
from .errors import (InvariantError, NoConvergenceError, NonUnitError,
                     SingularMinorError, check_range)
from .report import VerifyReport

MAX_WORD_LEN = 2 * ((1 << 12) - 1)
MAX_VARS = 6
CF_STEP_BUDGET = 10 * MAX_WORD_LEN
MAX_LU_SIZE = 64
# foldcat dets --max 2048, the Stieltjes table of the mu moments: 0.9-1.1 s
# and 30 MB peak RSS on a 2-vCPU Xeon (Python 3.11); the time grows as n^2
MAX_DET_SIZE = 2048
# hankel_minors past a zero minor, one det_int per order: see its docstring
MAX_DET_FALLBACK_SIZE = 64
# depth n reads the table of H(n + 1); foldcat jacobi --depth 2047: 1.0-1.4 s
# and 30.5 MB peak RSS on a 2-vCPU Xeon (Python 3.11)
MAX_JACOBI_DEPTH = MAX_DET_SIZE - 1
# uniqueness_check reads Hankel minors up to the order that MAX_DET_SIZE admits
MAX_UNIQUE_LEN = 2 * MAX_DET_SIZE
# foldcat cf --example 1 --order 10000, the slowest example (time grows as
# order^2): 0.20-0.23 s and 31.4 MB peak RSS on a 2-vCPU Xeon (Python 3.11)
MAX_CF_ORDER = 10000
# verify_lemma5(6), six variables (all that x_polys admits): 13-19 ms and
# 30 MB peak RSS on a 2-vCPU Xeon (Python 3.11)
MAX_LEMMA5_LEVEL = 6
# uniqueness_search(10), 16 survivors: 2 ms and 30 MB peak RSS, same host
MAX_SEARCH_LEN = 10


# ---------------------------------------------------------------------------
# sparse truncated power series with exact coefficients

def _exact(c):
    """c as an int where it is integral, else as a Fraction: through
    Fraction, so that no float or string becomes a coefficient."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _add_shifted_into(out: dict, terms: dict, c, e: int, order: int) -> dict:
    """out += c * x^e * terms below the order, in place, keeping out sparse:
    the one kernel behind +, - and *."""
    if c:
        for k, v in terms.items():
            k += e
            if k < order:
                v = out.get(k, 0) + c * v
                if v:
                    out[k] = v
                else:
                    del out[k]
    return out


class TruncSeries:
    """Power series truncated at a fixed order, held sparse: terms maps
    each exponent below the order to its nonzero int or Fraction."""

    __slots__ = ("order", "terms")

    def __init__(self, coeffs: Sequence, order: int | None = None):
        if order is None:
            order = len(coeffs)
        self.order = order
        self.terms = {k: c for k, c in enumerate(map(_exact, coeffs[:order]))
                      if c}

    @classmethod
    def _of(cls, terms: dict, order: int) -> "TruncSeries":
        out = cls.__new__(cls)
        out.order = order
        out.terms = terms
        return out

    @property
    def coeffs(self) -> list:
        """The dense coefficient list, a fresh copy."""
        return [self.terms.get(k, 0) for k in range(self.order)]

    def _check(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError("truncation orders differ")

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncSeries) and self.order == other.order \
            and self.terms == other.terms

    def add_shifted(self, other: "TruncSeries", c=1, e: int = 0) \
            -> "TruncSeries":
        """self + c * x^e * other."""
        self._check(other)
        return self._of(_add_shifted_into(dict(self.terms), other.terms, c, e,
                                          self.order), self.order)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        return self.add_shifted(other)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self.add_shifted(other, -1)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check(other)
        out: dict = {}
        for e, c in self.terms.items():
            _add_shifted_into(out, other.terms, c, e, self.order)
        return self._of(out, self.order)

    def __truediv__(self, other: "TruncSeries") -> "TruncSeries":
        """Long division over the nonzero terms of other: each quotient
        coefficient is subtracted, times other's tail, from the sparse
        remainder.  A unit constant term keeps int series in ints."""
        self._check(other)
        if not self.order:  # x^0 = 0: every series is zero, and a unit
            return self
        q0 = other.terms.get(0, 0)
        if not q0:
            raise NonUnitError("constant term is zero")
        inv0 = int(q0) if q0 in (1, -1) else 1 / Fraction(q0)
        tail = sorted((e, c) for e, c in other.terms.items() if e)
        rem = dict(self.terms)
        out = {}
        for k in range(self.order):
            c = rem.pop(k, 0)
            if c:
                c *= inv0
                out[k] = c
                for e, qe in tail:
                    if k + e >= self.order:
                        break
                    rem[k + e] = rem.get(k + e, 0) - c * qe
        return self._of(out, self.order)

    def inverse(self) -> "TruncSeries":
        return TruncSeries([1], self.order) / self

    def nonzero_exponents(self) -> list[int]:
        return sorted(self.terms)

    def to_strings(self) -> list[str]:
        return [f"{c.numerator}/{c.denominator}" if c.denominator != 1
                else str(c.numerator) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"TruncSeries({self.coeffs!r})"


def _sparse_series(order: int, exponent: Callable[[int], int]) -> TruncSeries:
    """Sum of x^exponent(k) over k = 0, 1, ... while exponent(k) < order,
    for an increasing exponent."""
    return TruncSeries._of(dict.fromkeys(itertools.takewhile(
        lambda e: e < order, map(exponent, itertools.count())), 1), order)


def mu_series(order: int) -> TruncSeries:
    return _sparse_series(order, lambda k: (1 << k) - 1)


def power_of_two_series(order: int) -> TruncSeries:
    """Sum of x^(2^k), truncated: the limit of example 1."""
    return _sparse_series(order, EXAMPLES[1][1])


# ---------------------------------------------------------------------------
# sparse multivariate polynomials with integer coefficients

class MultiPoly:
    """Polynomial in x1, x2, ...: terms maps a monomial, its exponent tuple
    cut after the last nonzero exponent (1 is (), x2 is (0, 1)), to its
    nonzero int coefficient, so a polynomial has one encoding whatever the
    variables it was built from."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def const(cls, c: int) -> "MultiPoly":
        return cls({(): c})

    @classmethod
    def var(cls, index: int, sign: int = 1) -> "MultiPoly":
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        return cls({(0,) * (index - 1) + (1,): sign})

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        # exponents add position by position, the longer tuple's tail follows
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (*map(add, e1, e2), *(e1[len(e2):] or e2[len(e1):]))
                out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly(out)

    def __repr__(self) -> str:
        return f"MultiPoly({self.terms!r})"


class Mat2(NamedTuple):
    """The 2x2 matrix [[a, b], [c, d]] over any ring with + and *."""

    a: object
    b: object
    c: object
    d: object

    def det(self):
        return self.a * self.d - self.b * self.c


def word_matrix(word: Sequence[seq.FoldLetter]) -> Mat2:
    """Product of [[0, u], [1, 1]] over the letters u = sign * x_var of the
    word, as MultiPoly entries.  One letter takes [[a, b], [c, d]] to
    [[b, a u + b], [d, c u + d]], cf_limit's recurrence C_k = C_(k-1) +
    u_k C_(k-2) from P_(-1) = Q_0 = 1 and P_0 = Q_(-1) = 0: the product is
    [[P_(k-1), P_k], [Q_(k-1), Q_k]], two polynomial products per letter."""
    check_range("word length", len(word), 0, MAX_WORD_LEN)
    for let in word:
        check_range("variable index", let.var_index, 1, MAX_VARS)
    one, zero = MultiPoly.const(1), MultiPoly()
    a, b, c, d = one, zero, zero, one
    for let in word:
        u = MultiPoly.var(let.var_index, let.sign)
        a, b, c, d = b, a * u + b, d, c * u + d
    return Mat2(a, b, c, d)


def x_polys(k: int) -> tuple[MultiPoly, MultiPoly]:
    """X_k = 1 + the sum over j = 1..k of x1^(2^(j-1)) ... x(j-1)^2 xj, the
    closed-form convergent polynomial, and its twin with the j = k term
    negated."""
    check_range("k", k, 0, MAX_VARS)
    terms = [tuple(1 << (j - i) for i in range(1, j + 1))
             for j in range(k + 1)]
    x = MultiPoly(dict.fromkeys(terms, 1))
    return x, (MultiPoly({**x.terms, terms[-1]: -1}) if k else x)


def verify_lemma5(n: int) -> VerifyReport:
    """Closed form of the word-matrix products and the convergent identity."""
    check_range("n", n, 1, MAX_LEMMA5_LEVEL)
    report = VerifyReport("lemma5", n)
    word = seq.fold_word(n)
    xn, xn_t = x_polys(n)
    xprev, _ = x_polys(n - 1)
    sq = xprev * xprev
    one = MultiPoly.const(1)
    got = word_matrix(word)
    # (position in the matrix, (expected, got)): both products, then the
    # partial convergent identity, where prefixing [[0, 1], [1, 1]] gives
    # b' = d and d' = b + d, which must be X_n and 1
    checks = [*enumerate(zip(Mat2(xn_t - sq, one - xn, sq, xn), got)),
              *enumerate(zip(Mat2(xn - sq, one - xn_t, sq, xn_t),
                             word_matrix(word[::-1]))),
              (1, (xn, got.d)), (3, (one, got.b + got.d))]
    for pos, (want, g) in checks:
        if g != want:  # the terms as tuples of all n exponents
            report.add(pos // 2, pos % 2, *(
                {e + (0,) * (n - len(e)): c for e, c in p.terms.items()}
                for p in (want, g)))
    return report


# ---------------------------------------------------------------------------
# continued fractions with monomial numerators (integer coefficients)

# an int64 convergent step is exact while the bound on every entry it
# writes, and its sign, stay below this
_INT64_EXACT = 1 << 62


def _series_of(rows, length: int, order: int) -> list[TruncSeries]:
    """Each of the dense int64 or object rows, cut to its active length, as
    a TruncSeries of Python ints."""
    out = []
    for row in rows[:, :length]:
        nonzero = np.flatnonzero(row)
        out.append(TruncSeries._of(
            dict(zip(nonzero.tolist(), row[nonzero].tolist())), order))
    return out


def cf_limit(numerators: Iterable[tuple[int, int]], order: int) -> TruncSeries:
    """Limit of a1/(1 + a2/(1 + ...)) with monomial numerators.

    numerators yields (sign, exponent) pairs for a_k = sign * x^exponent
    (exponent >= 1 so the agreement order of consecutive convergents
    grows).  The convergents P_k, Q_k are kept dense and truncated at the
    order, as one (2, order) block per convergent in three rotating
    buffers; P_k = P_(k-1) + a_k P_(k-2) and the same for Q_k.  A block is
    zero past its active length, which only grows.  Stabilization is
    declared when two consecutive convergents agree to the truncation
    order, which is checked by explicit division of their TruncSeries.

    Exactness: no float is used.  The buffers are int64 only while the
    tracked bound B_k = B_(k-1) + |sign| B_(k-2) on the entries of each
    new convergent stays below 2^62.  When it reaches 2^62 it is reset
    from the exact maxima of the last two convergents; if it still reaches
    2^62, or |sign| does, the buffers become object arrays of Python ints
    for the rest of the run.
    """
    bufs = np.zeros((3, 2, order), dtype=np.int64)
    prev, cur, spare = 0, 1, 2
    bufs[prev, 0, :1] = 1  # P_-1 = 1, Q_-1 = 0
    bufs[cur, 1, :1] = 1   # P_0 = 0, Q_0 = 1
    len_prev = len_cur = min(1, order)
    bound_prev = bound_cur = 1
    expsum = 0
    steps = 0
    for sign, exp in numerators:
        if exp < 1:
            raise ValueError("numerator exponents must be >= 1")
        steps += 1
        if steps > CF_STEP_BUDGET:
            break
        mag = abs(sign)
        bound = bound_cur + mag * bound_prev
        if bufs.dtype != object and max(bound, mag) >= _INT64_EXACT:
            bound_cur, bound_prev = (
                int(np.abs(bufs[i, :, :length]).max(initial=0))
                for i, length in ((cur, len_cur), (prev, len_prev)))
            bound = bound_cur + mag * bound_prev
            if max(bound, mag) >= _INT64_EXACT:
                bufs = bufs.astype(object)
        top = min(order, len_prev + exp)
        new = bufs[spare]
        new[:, :len_cur] = bufs[cur, :, :len_cur]
        if exp < top:
            dst, src = new[:, exp:top], bufs[prev, :, :top - exp]
            if sign == 1:  # the common signs add in place, with no temporary
                dst += src
            elif sign == -1:
                dst -= src
            else:
                dst += sign * src
            len_prev, len_cur = len_cur, max(len_cur, top)
        else:
            len_prev = len_cur
        prev, cur, spare = cur, spare, prev
        bound_prev, bound_cur = bound_cur, bound
        expsum += exp
        if expsum >= order:
            p_cur, q_cur = _series_of(bufs[cur], len_cur, order)
            p_prev, q_prev = _series_of(bufs[prev], len_prev, order)
            got = p_cur / q_cur
            if got == p_prev / q_prev:
                return got
    raise NoConvergenceError(
        f"no stabilization to order {order} within {steps} steps")


# example -> (the exponent e(v) that replaces x_v by x^e(v), the k-th
# exponent of the series that the folded fraction then converges to)
EXAMPLES = {
    1: (lambda v: 1, lambda k: 1 << k),
    2: (lambda v: 1 + 3 ** (v - 1), lambda k: 3 ** k),
    3: (lambda v: 1 + (v - 1) * math.factorial(v),
        lambda k: math.factorial(k + 1)),
}


def example_numerators(example: int) -> Iterator[tuple[int, int]]:
    """a_1 = x, then the folded word letters under the example substitution."""
    if example not in EXAMPLES:
        raise ValueError("example must be 1, 2 or 3")
    exponent = EXAMPLES[example][0]
    yield (1, 1)
    for n in itertools.count(1):
        var, sign = seq.fold_stream(n)
        yield (sign, exponent(var))


def cf_limit_example(example: int, order: int) -> TruncSeries:
    check_range("order", order, 1, MAX_CF_ORDER)
    return cf_limit(example_numerators(example), order)


def jacobi_series(a: Sequence, b: Sequence, order: int) -> TruncSeries:
    """Series of the Jacobi fraction 1/(1 - a0 x - b1 x^2/(1 - a1 x - ...)).

    a = (a0, a1, ...), b = (b1, b2, ...); the convergent of depth len(a),
    which reads b1..b_(len(a)-1), is expanded to the truncation order.
    """
    if not a or len(b) < len(a) - 1:
        raise ValueError("need a nonempty a and len(b) >= len(a) - 1")
    p_prev, q_prev = TruncSeries([1], order), TruncSeries([], order)
    p_cur, q_cur = TruncSeries([], order), TruncSeries([1], order)
    for k in range(len(a)):
        # next = (1 - a_k x) cur + num prev, num = -b_k x^2, or 1 at k = 0
        minus_a = -_exact(a[k])
        num, e = (-_exact(b[k - 1]), 2) if k else (1, 0)
        p_cur, p_prev = (p_cur.add_shifted(p_cur, minus_a, 1)
                         .add_shifted(p_prev, num, e)), p_cur
        q_cur, q_prev = (q_cur.add_shifted(q_cur, minus_a, 1)
                         .add_shifted(q_prev, num, e)), q_cur
    return p_cur / q_cur


# ---------------------------------------------------------------------------
# Hankel LU and Stieltjes extraction

# a moment sequence, the linear form <x^i, x^j> = moments(i + j): seq.mu,
# catalanz.catalan or any callable k -> int or Fraction
Moments = Callable[[int], int | Fraction]


def _ratio(p, q):
    """p / q exactly: an int where q divides the int p, else a Fraction."""
    if type(p) is int and type(q) is int:
        quo, rem = divmod(p, q)
        return Fraction(p, q) if rem else quo
    return Fraction(p, q)


def _stieltjes(moments: Moments, count: int) -> Iterator[tuple]:
    """The Stieltjes table of the first count moments, one column per step.

    Chebyshev's algorithm (Gautschi 2004, sec. 2.1.7): sigma(k, l) =
    <x^l, p_k> for the monic orthogonal polynomials p_k, so by uniqueness
    of H = L D L^t, sigma(k, l) = L[l][k] D_k and sigma(k, l) det H(k) is
    the bordered minor det(rows 0..k-1 and l, columns 0..k).  Step k yields
    the pivot D_k = sigma(k, k), the minor det H(k+1) = D_0 ... D_k, the
    column sigma(k, l), l = k..count-1-k, and the a_(k-1), b_(k-1) that
    made it (None at step 0).  From p_(k+1) = (x - a_k) p_k - b_k p_(k-1),
    column k+1 is sigma(k, l+1) - a_k sigma(k, l) - b_k sigma(k-1, l),
    a_k = sigma(k, k+1)/D_k - sigma(k-1, k)/D_(k-1) and b_k = D_k/D_(k-1)
    (b_0 = m_0).  Each step runs only when it is asked for, and a zero
    pivot is the last step yielded.
    """
    col = [moments(k) for k in range(count)]
    prev = [0] * count                     # sigma(-1, l)
    pivot_prev, ratio_prev, minor, a, b = 1, 0, 1, None, None
    while col:
        pivot = col[0]
        minor *= pivot
        yield pivot, minor, col, a, b
        if pivot == 0 or len(col) < 3:
            return
        ratio = _ratio(col[1], pivot)
        a, b = ratio - ratio_prev, _ratio(pivot, pivot_prev)
        prev, col = col, [col[i + 1] - a * col[i] - b * prev[i + 1]
                          for i in range(1, len(col) - 1)]
        pivot_prev, ratio_prev = pivot, ratio


def hankel_lu_rational(moments: Moments,
                       n: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Exact L D L^t factorization of the n-th Hankel matrix.

    Returns unipotent lower-triangular L (dense row lists) and the
    diagonal D; raises SingularMinorError on a vanishing leading minor.
    Both are read from the Stieltjes table: D_k = sigma(k, k) and
    L[l][k] = sigma(k, l) / D_k.
    """
    check_range("size", n, 1, MAX_LU_SIZE)
    low = [[Fraction(0)] * n for _ in range(n)]
    diag: list[Fraction] = []
    for k, (pivot, _, col, *_) in enumerate(_stieltjes(moments, 2 * n - 1)):
        if pivot == 0:
            raise SingularMinorError(k)
        diag.append(Fraction(pivot))
        for l, v in enumerate(col[:n - k], start=k):
            low[l][k] = Fraction(v, pivot)
    return low, diag


class JacobiCF(NamedTuple):
    a: list[Fraction]
    b: list[Fraction]


def stieltjes_extract(moments: Moments, n: int) -> JacobiCF:
    """The Jacobi fraction m_0/(1 - a_0 x - b_1 x^2/(1 - a_1 x - ...)) of
    depth n, read off the Stieltjes table of H(n + 1).

    Steps 1..n of the table carry a_0..a_(n-1) and b_0 = m_0, b_1..b_(n-1);
    step n is taken so that a zero pivot D_n raises SingularMinorError(n).
    The table assumes its own recursion, so its coefficients are checked
    against the moments: the fraction of depth n agrees with the moment
    series through x^(2n-1) (Flajolet 1980), and those 2n moments fix a and
    b.  So m_0 jacobi_series(a, b, 2n) must reproduce m_0..m_(2n-1), and the
    first moment that differs raises InvariantError at its index.
    """
    check_range("depth", n, 1, MAX_JACOBI_DEPTH)
    a, b = [], []
    for k, (pivot, *_, a_k, b_k) in enumerate(_stieltjes(moments, 2 * n + 1)):
        if pivot == 0:
            raise SingularMinorError(k)
        if k:
            a.append(Fraction(a_k))
            b.append(Fraction(b_k))
    m0, b = b[0], b[1:]
    for l, c in enumerate(jacobi_series(a, b, 2 * n).coeffs):
        if m0 * c != moments(l):
            raise InvariantError("m_0 J(a, b) == sum of m_l x^l", l,
                                 moments(l), m0 * c)
    return JacobiCF(a, b)


def verify_thm4(n: int) -> VerifyReport:
    """Jacobi coefficients of the mu moments: a matches d, b is -1."""
    report = VerifyReport("thm4", n)
    cf = stieltjes_extract(seq.mu, n)
    for k in range(1, n + 1):
        if cf.a[k - 1] != seq.d(k):
            report.add(k - 1, k - 1, seq.d(k), cf.a[k - 1])
    for k in range(1, n):
        if cf.b[k - 1] != -1:
            report.add(k, k - 1, -1, cf.b[k - 1])
    # det S(k), by the three-term recursion of the extracted a, b, is s(k)
    det_prev2, det_prev = 1, cf.a[0]
    if det_prev != seq.s(1):
        report.add(0, 0, seq.s(1), det_prev)
    for k in range(2, n + 1):
        det_k = cf.a[k - 1] * det_prev - cf.b[k - 2] * det_prev2
        if det_k != seq.s(k):
            report.add(k - 1, k - 1, seq.s(k), det_k)
        det_prev2, det_prev = det_prev, det_k
    return report


def det_int(mat: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss with row pivoting)."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def hankel_minors(moments: Moments, n: int) -> list[int]:
    """det H(1), ..., det H(n) of int moments (else ValueError): the
    Stieltjes table up to its first zero minor, then det_int for each larger
    order, so n is then held to MAX_DET_FALLBACK_SIZE = 64: with seeded +-1
    moments and m_0 = 0, 64 takes 0.3-0.45 s and 128 6 s on a 2-vCPU Xeon."""
    check_range("size", n, 1, MAX_DET_SIZE)
    values = [moments(k) for k in range(2 * n - 1)]
    for k, v in enumerate(values):  # int() and // would truncate the rest
        if not isinstance(v, int):
            raise ValueError(f"moment {k} must be an int, got {v!r}")
    # int() is exact: the minors of an integer Hankel matrix are integers
    minors = [int(minor) for _, minor, *_ in
              _stieltjes(values.__getitem__, 2 * n - 1)]
    if len(minors) < n:
        check_range(f"size past the zero minor of order {len(minors)}", n,
                    1, MAX_DET_FALLBACK_SIZE)
    return minors + [det_int([values[i:i + k] for i in range(k)])
                     for k in range(len(minors) + 1, n + 1)]


def hankel_det(moments: Moments, n: int) -> int:
    return hankel_minors(moments, n)[-1]


def verify_det_identities(n_max: int) -> VerifyReport:
    """det H(n) of the mu Hankel: sign formula and the mirror symmetry."""
    report = VerifyReport("dets", n_max)
    dets = dict(enumerate(hankel_minors(seq.mu, n_max), start=1))
    for n, val in dets.items():
        want = (-1) ** (n * (n - 1) // 2)
        if val != want:
            report.add(n, 0, want, val)
    for k in range(1, n_max.bit_length()):
        p = 1 << k
        for a in range(min(p, n_max - p + 1)):
            lhs = dets[p + a]
            rhs = (-1) ** a * dets[p - a]
            if lhs != rhs:
                report.add(p + a, p - a, rhs, lhs)
    return report


def three_term_break(rows: Sequence[list], a: Sequence,
                     b: Sequence) -> tuple[int, list] | None:
    """The first i >= 1 at which the coefficient list rows[i] (constant term
    first) is not p_i = (x - a_(i-1)) p_(i-1) - b_(i-1) p_(i-2), with
    p_(-1) = 0, as (i, the list the recursion gives); None when every row
    obeys it.  A row is compared as a whole list, so one of another length
    breaks the recursion."""
    prev: list = []
    for i, (cur, row) in enumerate(zip(rows, rows[1:])):
        # x p_i, p_i and p_(i-1), each padded to the i + 2 terms of p_(i+1)
        want = [x - a[i] * c - b[i] * p
                for x, c, p in zip([0, *cur], [*cur, 0], [*prev, 0, 0])]
        if want != row:
            return i + 1, want
        prev = cur
    return None


def orth_polys(n: int) -> list[list[int]]:
    """Coefficient rows of the formal orthogonal polynomials for mu.

    Row i comes from the signed inverse D_s D_a M D_a D_s; verifies the
    pairwise orthogonality, nonzero norms and the three-term recursion
    Q_{k+1} = (x - d(k+1)) Q_k + Q_{k-1} with Q_0 = 1, Q_1 = x - 1.
    """
    check_range("size", n, 1, MAX_LU_SIZE)
    signs = (gf2sign.sign_diag("s", n) * gf2sign.sign_diag("a", n)).tolist()
    mmat = gf2sign.build_tri(gf2sign.M, n).tolist()
    rows = [[signs[i] * mmat[i][k] * signs[k] for k in range(i + 1)]
            for i in range(n)]
    for i in range(n):
        for j in range(i + 1):
            pairing = sum(a * b * seq.mu(k + m)
                          for k, a in enumerate(rows[i]) if a
                          for m, b in enumerate(rows[j]) if b)
            if i == j and pairing == 0:
                raise InvariantError("nonzero norm of the orthogonal "
                                     "polynomial", (i, i), "nonzero", 0)
            if i != j and pairing != 0:
                raise InvariantError("orthogonality of the polynomials",
                                     (i, j), 0, pairing)
    broken = three_term_break(rows, [seq.d(i) for i in range(1, n)],
                              [-1] * n)
    if broken is not None:
        i, want = broken
        raise InvariantError("three-term recursion", i, want, rows[i])
    return rows


# ---------------------------------------------------------------------------
# uniqueness of the power-of-two sign pattern

class UniquenessResult(NamedTuple):
    ok: bool
    eps: list[int] | None
    fail_index: int | None
    which: str | None


def uniqueness_check(c: Sequence[int]) -> UniquenessResult:
    """Hankel/shifted-Hankel determinant test and pattern recovery.

    If every computable det is +-1, recovers eps_k = c[2^k - 1] and
    requires every other entry to vanish; otherwise reports the first
    violated determinant or off-pattern entry.  The minors of each matrix
    come from its Stieltjes table, which stops at the first one that is not
    +-1.  The length must be in [2, MAX_UNIQUE_LEN]: foldcat unique --check
    with a passing sequence of 4096 entries, two tables of order 2048, took
    1.6-1.8 s and 30 MB peak RSS on a 2-vCPU Xeon (Python 3.11).
    """
    length = len(c)
    check_range("length", length, 2, MAX_UNIQUE_LEN)
    if any(v not in (-1, 0, 1) for v in c):
        raise ValueError("entries must lie in {-1, 0, +1}")
    c = list(c)
    for shift, which in ((0, "hankel"), (1, "shifted-hankel")):
        table = _stieltjes(c[shift:].__getitem__, length - shift)
        for order, (_, minor, *_) in enumerate(table, start=1):
            if minor not in (-1, 1):
                return UniquenessResult(False, None, order, which)
    eps = []
    for m, v in enumerate(c):
        if seq.mu(m):  # m = 2^k - 1
            eps.append(v)
        elif v != 0:
            return UniquenessResult(False, None, m, "pattern")
    return UniquenessResult(True, eps, None, None)


def uniqueness_search(length: int) -> list[tuple[int, ...]]:
    """All length-n sequences over {-1,0,1} passing the determinant test,
    in lexicographic order.

    Entry m completes one minor, of order m // 2 + 1, of the Hankel matrix
    (even m) or the shifted Hankel matrix (odd m); each step extends every
    surviving prefix by -1, 0 and 1 and keeps those whose new minor is +-1.
    Every survivor must match the +-power-of-two pattern via
    uniqueness_check, or InvariantError is raised.
    """
    check_range("length", length, 2, MAX_SEARCH_LEN)
    survivors: list[tuple[int, ...]] = [()]
    for m in range(length):
        shift, n = m % 2, m // 2 + 1
        extended = [prefix + (v,) for prefix in survivors for v in (-1, 0, 1)]
        survivors = [c for c in extended
                     if det_int([list(c[i + shift:i + shift + n])
                                 for i in range(n)]) in (-1, 1)]
    for cand in survivors:
        result = uniqueness_check(cand)
        if not result.ok:
            raise InvariantError(f"{result.which} check of survivor {cand}",
                                 result.fail_index, "pass", "fail")
    return survivors


# ---------------------------------------------------------------------------
# bundled verifications used by the CLI

# the orders to which verify_thm1 checks examples 1, 2 and 3
THM1_ORDERS = (600, 250, 750)


def verify_thm1(orders: tuple[int, int, int] = THM1_ORDERS) -> VerifyReport:
    """Examples 1-3: the folded fraction reproduces its sparse series."""
    report = VerifyReport("thm1", max(orders))
    for example, order in enumerate(orders, start=1):
        got = cf_limit_example(example, order)
        want = _sparse_series(order, EXAMPLES[example][1])
        if got != want:
            report.add(example, 0, want.nonzero_exponents(),
                       got.nonzero_exponents())
    return report
