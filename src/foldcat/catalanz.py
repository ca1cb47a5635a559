"""Integer-level Catalan objects: triangle, matrices, exp/log identities.

All arithmetic is arbitrary precision (python ints, Fractions for the
nilpotent exp/log); matrices are numpy object arrays of python ints or
Fractions, and every product is an exact sum of python-number products.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from operator import add, mul

import numpy as np

from . import cfseries
from .errors import InvariantError, check_range
from .report import VerifyReport

MAX_CATALAN_INDEX = 10 ** 4
MAX_MATRIX_SIZE = 128
# verify_catalan_lu and build_catalan_matrix; see verify_catalan_lu's budget
MAX_CATALAN_LU_SIZE = 512
MAX_GF_ORDER = 1 << 16

LZ = "LZ"
LTILDEZ = "LTILDEZ"
MZ = "MZ"
MTILDEZ = "MTILDEZ"
H_CAT = "H_CAT"
H_CAT_SHIFT = "H_CAT_SHIFT"


def catalan(n: int) -> int:
    """C(2n, n) / (n + 1), exact."""
    check_range("index", n, 0, MAX_CATALAN_INDEX)
    return math.comb(2 * n, n) // (n + 1)


def _pascal_rows(top: int) -> Iterator[list[int]]:
    """Pascal rows m = 0..top, one at a time: row[k] = C(m, k)."""
    row = [1]
    for _ in range(top):
        yield row
        row = [1, *map(add, row, row[1:]), 1]
    yield row


def _from_rows(rows: list[list], n: int) -> np.ndarray:
    """n x n object matrix whose row i starts with rows[i], zero after it."""
    out = np.zeros((n, n), dtype=object)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def build_catalan_matrix(kind: str, n: int) -> np.ndarray:
    """Integer matrix of the given kind at size n (numpy object array)."""
    check_range("size", n, 1, MAX_CATALAN_LU_SIZE)
    if kind in (H_CAT, H_CAT_SHIFT):
        shift = int(kind == H_CAT_SHIFT)
        cats = [catalan(k + shift) for k in range(2 * n - 1)]
        return np.array([cats[i:i + n] for i in range(n)], dtype=object)
    if kind not in (LZ, LTILDEZ, MZ, MTILDEZ):
        raise ValueError(f"unknown kind {kind!r}")
    odd = int(kind in (LTILDEZ, MTILDEZ))
    out = np.zeros((n, n), dtype=object)
    for m, row in enumerate(_pascal_rows(2 * n - 2 + odd)):
        if kind in (LZ, LTILDEZ):
            # row i is C(m, t) - C(m, t-1) at t = i - j, for m = 2i + odd
            i, rest = divmod(m - odd, 2)
            if rest == 0 and i >= 0:
                out[i, :i + 1] = [row[t] - row[t - 1]
                                  for t in range(i, 0, -1)] + [1]
        else:
            # C(m, 2j + odd) lands at (i, j) with i + j + odd == m, j <= i < n
            for j in range(max(0, m - odd - n + 1), (m - odd) // 2 + 1):
                out[m - odd - j, j] = row[2 * j + odd]
    return out


def catalan_triangle(rows: int) -> list[list[int]]:
    """The staggered ballot-number triangle, one list per printed row.

    Entry (r, c) with c = r mod 2, r mod 2 + 2, ... is the sum of its
    upper-left and upper-right neighbours.  Even rows give the Catalan L
    matrix rows, odd rows the shifted variant.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    dense = {(0, 0): 1}
    out = [[1]]
    for r in range(1, rows):
        row = []
        for c in range(r % 2, r + 1, 2):
            v = dense.get((r - 1, c - 1), 0) + dense.get((r - 1, c + 1), 0)
            dense[(r, c)] = v
            row.append(v)
        out.append(row)
    return out


def _identity(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=object)
    np.fill_diagonal(out, 1)
    return out


def _alt_conj(mat: np.ndarray) -> np.ndarray:
    """D_a mat D_a with the alternating sign diagonal."""
    n = mat.shape[0]
    sv = np.array([(-1) ** (i % 2) for i in range(n)], dtype=object)
    return sv[:, None] * mat * sv[None, :]


def _first_nonzero(mat: np.ndarray, lo: int, hi: int):
    """First (i, j) in row-major order with lo <= j - i <= hi and
    mat[i, j] != 0, or None."""
    for i, row in enumerate(mat.tolist()):
        for j in range(max(0, i + lo), min(len(row), i + hi + 1)):
            if row[j] != 0:
                return i, j
    return None


def _factors(n: int) -> tuple[np.ndarray, ...]:
    """L, M, L~ and M~ at size n.

    A factor with a nonzero above its diagonal is refused, because the
    triangle-aware products never read that part.
    """
    mats = tuple(build_catalan_matrix(kind, n)
                 for kind in (LZ, MZ, LTILDEZ, MTILDEZ))
    for mat in mats:
        above = _first_nonzero(mat, 1, n)
        if above is not None:
            raise InvariantError("lower-triangular factor", above, 0,
                                 mat[above])
    return mats


def _lower_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for lower-triangular a and b: entries i >= j, summed over j..i."""
    n = a.shape[0]
    cols = [b[j:, j].tolist() for j in range(n)]
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        row = a[i, :i + 1].tolist()
        # row[j:] holds k = j..i and cols[j] k = j..n-1; map stops at k = i
        out[i, :i + 1] = [sum(map(mul, row[j:], cols[j]))
                          for j in range(i + 1)]
    return out


def _lower_gram(low: np.ndarray) -> np.ndarray:
    """low @ low.T for a lower-triangular low: the lower half, mirrored."""
    n = low.shape[0]
    rows = [low[i, :i + 1].tolist() for i in range(n)]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        # map stops at the shorter row, so the sum runs over k <= j
        half = [sum(map(mul, rows[i], rows[j])) for j in range(i + 1)]
        out[i, :i + 1] = half
        out[:i + 1, i] = half
    return out


def _power_series(nil: np.ndarray, coeffs: list[int],
                  denom: int) -> np.ndarray:
    """sum_k coeffs[k] / denom * nil^k for a strictly lower nil, exact.

    nil^n is zero, so only coeffs[0..n-1] count.  A rational nil is first
    scaled to the integer matrix g = d * nil by the lcm d of its
    denominators; coeffs[k] then absorbs d^(n-1-k) and denom d^(n-1).  The
    integer polynomial in g is evaluated by Paterson and Stockmeyer: the
    powers g^2..g^s with s = isqrt(n - 1), then Horner in g^s over blocks
    of s coefficients, about 2 sqrt(n) products in place of n - 1.  Every
    entry is divided by denom once, at the end.
    """
    n = nil.shape[0]
    if n == 0:
        return np.empty((0, 0), dtype=object)
    entries = [Fraction(v) for v in nil.flat]
    d = math.lcm(*(v.denominator for v in entries))
    g = np.array([v.numerator * (d // v.denominator) for v in entries],
                 dtype=object).reshape(n, n)
    top = n - 1
    coeffs = [coeffs[k] * d ** (top - k) for k in range(n)]
    denom *= d ** top
    s = max(1, math.isqrt(top))
    powers = [_identity(n), g]
    while len(powers) <= s:
        powers.append(_lower_matmul(powers[-1], g))
    acc = None
    for start in range(top - top % s, -1, -s):
        block = sum(coeffs[k] * powers[k - start]
                    for k in range(start, min(start + s, n)))
        acc = block if acc is None else _lower_matmul(acc, powers[s]) + block
    return np.array([Fraction(v, denom) for v in acc.flat],
                    dtype=object).reshape(n, n)


def _subdiag_exp(sub: list, n: int) -> np.ndarray:
    """exp of the n x n matrix that is sub on its first subdiagonal and zero
    elsewhere, by the closed form E[i, j] = sub[j] ... sub[i-1] / (i - j)!."""
    fact = [math.factorial(k) for k in range(n)]
    out = np.full((n, n), Fraction(0), dtype=object)
    for j in range(n):
        out[j, j] = Fraction(1)
        prod = 1
        for i in range(j + 1, n):
            prod *= sub[i - 1]
            out[i, j] = Fraction(prod, fact[i - j])
    return out


def subdiag_matrix(values: list[int] | list[Fraction], n: int) -> np.ndarray:
    """Strictly lower matrix with the given first-subdiagonal entries."""
    out = np.zeros((n, n), dtype=object)
    for i, v in enumerate(values[:n - 1]):
        out[i + 1, i] = v
    return out


def nilpotent_exp(g: np.ndarray) -> np.ndarray:
    """exp of a strictly lower-triangular matrix, exact over the rationals.

    Sizes 0..MAX_MATRIX_SIZE are admitted.  An input whose nonzeros all lie
    on the first subdiagonal takes the O(n^2) closed form; any other is the
    power series sum_k g^k / k! with integer coefficients (n-1)!/k!.
    Budget at n = 128 on a 2-vCPU Xeon: the series on the striped log of
    M L takes 1.2 s and 9 MB of peak memory; the closed form 0.03 s.
    """
    n = g.shape[0]
    check_range("size", n, 0, MAX_MATRIX_SIZE)
    if _first_nonzero(g, 0, n) is not None:
        raise ValueError("input must be strictly lower-triangular")
    if _first_nonzero(g, -n, -2) is None:
        return _subdiag_exp(np.diagonal(g, -1).tolist(), n)
    f = math.factorial(n - 1)
    return _power_series(g, [f // math.factorial(k) for k in range(n)], f)


def nilpotent_log(u: np.ndarray) -> np.ndarray:
    """log of a unipotent lower-triangular matrix, exact over the rationals.

    Sizes 0..MAX_MATRIX_SIZE are admitted.  The log is the power series
    sum_k (-1)^(k+1) N^k / k in N = u - I, with integer coefficients
    +-lcm(1..n-1)/k.  Budget at n = 128 on a 2-vCPU Xeon: 2.5 s and 13 MB
    of peak memory for log(M L), most of it the powers N^2..N^11 held for
    the Paterson-Stockmeyer evaluation.
    """
    n = u.shape[0]
    check_range("size", n, 0, MAX_MATRIX_SIZE)
    nil = u - _identity(n)
    if _first_nonzero(nil, 0, n) is not None:
        raise ValueError("input must be unipotent lower-triangular")
    lcm = math.lcm(*range(1, n))
    coeffs = [0] + [(lcm // k) * (-1) ** (k + 1) for k in range(1, n)]
    return _power_series(nil, coeffs, lcm)


def _lu_certificates(low: np.ndarray, h: np.ndarray,
                     m: np.ndarray) -> tuple[bool, bool]:
    """Whether h == low low^t and whether low (D_a m D_a) == I, decided
    exactly in O(n^2) from one Stieltjes table, without either product.

    Premise: low and m are lower-triangular.  The moments m_0..m_(2n-2) are
    read off the first row and the last column of h, and n steps of
    cfseries._stieltjes are run on them.  Unless every pivot D_k is 1 and
    column k of the table is low[k:, k], neither identity is certified.

    h == low low^t: the table is the L and D of H = L D L^t for those
    moments, which is unique, so with D = I and L = low, h is low low^t
    exactly when every entry h[i, j] is m_(i+j).

    low P == I for P = D_a m D_a: the steps give a_k and b_k, and P must be
    lower unipotent with rows p_(i+1) = (x - a_i) p_i - b_i p_(i-1) for
    i <= n-2, that is P X = J P on rows 0..n-2, with X the shift by x and J
    the Jacobi matrix of a and b.  The table's column recursion, with a_k
    the value that leaves nothing above its diagonal, is X low = low J on
    the same rows.  So Q = P low is lower unipotent and QJ = JQ on rows
    0..n-2.  Row i of that gives row i+1 of Q from rows i and i-1, and
    Q[0] = e_0, so Q is I, which obeys the same; hence low P = I.  As
    P[i][j] = (-1)^(i+j) m[i][j], p_i(x) is (-1)^i q_i(-x) for the rows q_i
    of m, so P's rows obey the recursion with a exactly when m's obey it
    with -a.  m's row 0 must be [1]; the recursion keeps each later
    diagonal entry 1.
    """
    n = low.shape[0]
    moments = [*h[0].tolist(), *h[1:, -1].tolist()]
    a, b = [], []
    for k, (pivot, _, col, a_k, b_k) in enumerate(
            cfseries._stieltjes(moments.__getitem__, 2 * n - 1)):
        if pivot != 1 or col[:n - k] != low[k:, k].tolist():
            return False, False
        if k:
            a.append(-a_k)
            b.append(b_k)
    hankel = all(row == moments[i:i + n] for i, row in enumerate(h.tolist()))
    rows = [m[i, :i + 1].tolist() for i in range(n)]
    return hankel, (rows[0] == [1]
                    and cfseries.three_term_break(rows, a, b) is None)


def verify_catalan_lu(n: int) -> VerifyReport:
    """H == L L^t, shifted H == L~ L~^t, and both inverses via D_a M D_a.

    _lu_certificates decides each identity from the Stieltjes table of its
    Hankel matrix in O(n^2); only an identity it does not certify pays for
    its O(n^3) product, whose entries then localise the failures, in the
    order and form of a product-only run.  When a factor L is not the table,
    both products of its pair run.  Budget at n = 512, the guard's limit, on
    a 2-vCPU Xeon (peak RSS of a fresh interpreter): a passing run takes
    0.7-1.2 s and 89 MB; one flipped entry in L pays its pair's two
    products, 25 s and 116 MB, and flipped entries in both L and L~ pay all
    four, 45 s and 118 MB.
    """
    check_range("size", n, 1, MAX_CATALAN_LU_SIZE)
    report = VerifyReport("catalan-lu", n)
    lmat, mmat, lt, mt = _factors(n)
    pairs = []
    for low, m, kind in ((lmat, mmat, H_CAT), (lt, mt, H_CAT_SHIFT)):
        h = build_catalan_matrix(kind, n)
        pairs.append((low, m, h, *_lu_certificates(low, h, m)))
    for low, _, h, gram_ok, _ in pairs:
        if not gram_ok:
            report.compare(_lower_gram(low), h)
    ident = _identity(n)
    for low, m, _, _, inverse_ok in pairs:
        if not inverse_ok:
            report.compare(_lower_matmul(low, _alt_conj(m)), ident)
    return report


def verify_exp_products(n: int) -> VerifyReport:
    """LM and (shifted) LM closed forms and exponential forms."""
    check_range("size", n, 1, MAX_MATRIX_SIZE)
    report = VerifyReport("exp-products", n)
    lmat, mmat, lt, mt = _factors(n)
    lm = _lower_matmul(lmat, mmat)
    ltmt = _lower_matmul(lt, mt)
    fact = [math.factorial(k) for k in range(2 * n)]
    report.compare(lm, _from_rows(
        [[fact[2 * i] * fact[j] // (fact[i] * fact[2 * j] * fact[i - j])
          for j in range(i + 1)] for i in range(n)], n))
    report.compare(lm, nilpotent_exp(
        subdiag_matrix([4 * j + 2 for j in range(n)], n)))
    report.compare(ltmt, _from_rows(
        [[4 ** (i - j) * c for j, c in enumerate(row)]
         for i, row in enumerate(_pascal_rows(n - 1))], n))
    report.compare(ltmt, nilpotent_exp(
        subdiag_matrix([4 * j + 4 for j in range(n)], n)))
    return report


def _stripes(n: int, offset: int) -> np.ndarray:
    """4j + offset where i - j is odd and positive, zero elsewhere."""
    return _from_rows([[4 * j + offset if (i - j) % 2 else 0
                        for j in range(i + 1)] for i in range(n)], n)


def _is_exp(s: np.ndarray, u: np.ndarray) -> bool:
    """Whether u == exp(s), decided exactly without forming exp(s), n >= 1.

    Premise: s is strictly lower-triangular with no zero on its first
    subdiagonal and u is lower-triangular; False when it does not hold.
    Under it the vectors s^k e0, k < n, are a triangular basis, so a u that
    commutes with s is the polynomial in s fixed by its first column.  Hence
    u == exp(s) exactly when s u == u s and u e0 == exp(s) e0; the column
    is compared scaled by (n-1)!, as sum_k (n-1)!/k! s^k e0 in ints.
    """
    n = s.shape[0]
    if (_first_nonzero(s, 0, n) is not None or not all(np.diagonal(s, -1))
            or _first_nonzero(u, 1, n) is not None):
        return False
    if (_lower_matmul(s, u) != _lower_matmul(u, s)).any():
        return False
    rows = s.tolist()
    f = coef = math.factorial(n - 1)
    col = [1] + [0] * (n - 1)
    acc = [f] + [0] * (n - 1)
    for k in range(1, n):
        coef //= k
        # s^k e0 is zero above row k, so row i sums over j = k-1..i-1
        col = [0] * k + [sum(map(mul, rows[i][k - 1:i], col[k - 1:i]))
                         for i in range(k, n)]
        acc = [a + coef * c for a, c in zip(acc, col)]
    return acc == [f * v for v in u[:, 0]]


def check_log_conjecture(n: int) -> VerifyReport:
    """log(ML) and log(M~L~) against the striped 4j+2 / 4j+4 patterns.

    Each product u passes when _is_exp certifies exp(stripes) == u, which
    holds exactly when log(u) == stripes.  Only a product the certificate
    rejects pays for nilpotent_log, whose entries then localise the
    failures.  Budget at n = 128, the guard's limit, on a 2-vCPU Xeon:
    0.5 s and 5 MB of peak memory for a passing run.
    """
    check_range("size", n, 1, MAX_MATRIX_SIZE)
    report = VerifyReport("log-conjecture", n, conjecture=True)
    lmat, mmat, lt, mt = _factors(n)
    for u, stripes in ((_lower_matmul(mmat, lmat), _stripes(n, 2)),
                       (_lower_matmul(mt, lt), _stripes(n, 4))):
        if not _is_exp(stripes, u):
            report.compare(nilpotent_log(u), stripes)
    return report


def catalan_gf_mod2(order: int) -> list[int]:
    """Coefficients of the Catalan series mod 2 via c = 1 + x c^2 on bits.

    Squaring mod 2 doubles exponents, so the iteration stays sparse; the
    fixed point truncated at the given order is returned as a bit list.
    """
    check_range("order", order, 1, MAX_GF_ORDER)
    mask = (1 << order) - 1
    c = 1
    while True:
        sq = 0
        bits = c
        while bits:
            low = bits & -bits
            sq |= 1 << (2 * low.bit_length() - 2)
            bits ^= low
        nxt = (1 | (sq << 1)) & mask
        if nxt == c:
            break
        c = nxt
    # bit k of c is character k of its binary string read from the end
    return list(map(int, bin(c)[:1:-1].ljust(order, "0")))
