"""Integer-level Catalan objects: triangle, matrices, exp/log identities.

All arithmetic is arbitrary precision (python ints, Fractions for the
nilpotent exp/log); matrices are numpy object arrays of python ints or
Fractions, and every product is an exact sum of python-number products.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from fractions import Fraction
from operator import mul

import numpy as np

from .errors import InvariantError, check_range
from .report import VerifyReport

MAX_CATALAN_INDEX = 10 ** 4
MAX_MATRIX_SIZE = 128
# verify_catalan_lu and build_catalan_matrix; see verify_catalan_lu's budget
MAX_CATALAN_LU_SIZE = 512
# rows 2i and 2i + 1 are the L and L~ rows of build_catalan_matrix at size
# MAX_CATALAN_LU_SIZE; catalan_triangle(1024): 0.05-0.07 s, and peak RSS from
# 28 MB after import to 56 MB (resource.getrusage around the call, in-process)
# on a 2-vCPU Xeon (Python 3.11); the returned lists grow as rows^2
MAX_TRIANGLE_ROWS = 2 * MAX_CATALAN_LU_SIZE
MAX_GF_ORDER = 1 << 16

LZ = "LZ"
LTILDEZ = "LTILDEZ"
MZ = "MZ"
MTILDEZ = "MTILDEZ"
H_CAT = "H_CAT"
H_CAT_SHIFT = "H_CAT_SHIFT"
# a_0 of the Jacobi diagonal a = (a_0, 2, 2, ...) of the Catalan moments
# (the pair L, M) and of the shifted ones (L~, M~); every b_k is 1
_A0 = {LZ: 1, MZ: 1, LTILDEZ: 2, MTILDEZ: 2}


def catalan(n: int) -> int:
    """C(2n, n) / (n + 1), exact."""
    check_range("index", n, 0, MAX_CATALAN_INDEX)
    return math.comb(2 * n, n) // (n + 1)


def _from_rows(rows: Iterable[list], n: int) -> np.ndarray:
    """n x n object matrix whose row i starts with the i-th list of rows,
    zero after it."""
    out = np.zeros((n, n), dtype=object)
    for i, row in enumerate(rows):
        out[i, :len(row)] = row
    return out


def _times_jacobi(row: list, a: list) -> list:
    """row J, one entry longer than row, for the Jacobi matrix J with a on
    its diagonal and 1 on both of its neighbours."""
    return [p + x * c + q for p, x, c, q in
            zip([0, *row], a, [*row, 0], [*row[1:], 0, 0])]


def _factor_rows(kind: str, count: int) -> Iterator[list]:
    """Rows 0..count-1 of L, L~, M or M~, row i as its i + 1 entries.

    With a = (a_0, 2, 2, ...) the Jacobi diagonal of the moments (_A0) and
    J its Jacobi matrix, row i + 1 of L or L~ is row i times J, from row
    0 = e_0 (the ballot recursion); the rows of M or M~ are m_0 = 1 and
    m_(r+1) = (y + a_r) m_r - m_(r-1) with m_(-1) = 0, the Morgan-Voyce
    polynomials ((2 + y) m_r - m_(r-1) with m_(-1) = 1 for M, 0 for M~).
    """
    a = [_A0[kind]] + [2] * (count - 1)
    prev, cur = [], [1]
    yield cur
    for r in range(count - 1):
        if kind in (LZ, LTILDEZ):
            prev, cur = cur, _times_jacobi(cur, a)
        else:
            prev, cur = cur, [p + a[r] * c - q for p, c, q in
                              zip([0, *cur], [*cur, 0], [*prev, 0, 0])]
        yield cur


def _is_factor(mat: np.ndarray, kind: str) -> bool:
    """Whether the lower triangle of mat is _factor_rows(kind, n)."""
    return all(mat[i, :i + 1].tolist() == row
               for i, row in enumerate(_factor_rows(kind, mat.shape[0])))


def build_catalan_matrix(kind: str, n: int) -> np.ndarray:
    """Integer matrix of the given kind at size n (numpy object array):
    the Catalan Hankel matrices, or L, L~, M and M~ from _factor_rows."""
    check_range("size", n, 1, MAX_CATALAN_LU_SIZE)
    if kind in (H_CAT, H_CAT_SHIFT):
        shift = int(kind == H_CAT_SHIFT)
        cats = [catalan(k + shift) for k in range(2 * n - 1)]
        return np.array([cats[i:i + n] for i in range(n)], dtype=object)
    if kind not in _A0:
        raise ValueError(f"unknown kind {kind!r}")
    return _from_rows(_factor_rows(kind, n), n)


def catalan_triangle(rows: int) -> list[list[int]]:
    """The staggered ballot-number triangle, one list per printed row.

    Entry (r, c) with c = r mod 2, r mod 2 + 2, ... is the sum of its
    upper-left and upper-right neighbours.  Row 2i is row i of L and row
    2i + 1 row i of L~, so the rows are those of _factor_rows, interleaved.
    """
    check_range("rows", rows, 1, MAX_TRIANGLE_ROWS)
    half = -(-rows // 2)
    pairs = zip(_factor_rows(LZ, half), _factor_rows(LTILDEZ, half))
    return [row for pair in pairs for row in pair][:rows]


def _identity(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=object)
    np.fill_diagonal(out, 1)
    return out


def _alt_conj(mat: np.ndarray) -> np.ndarray:
    """D_a mat D_a with the alternating sign diagonal."""
    n = mat.shape[0]
    sv = np.array([(-1) ** (i % 2) for i in range(n)], dtype=object)
    return sv[:, None] * mat * sv[None, :]


def _factors(n: int) -> tuple[np.ndarray, ...]:
    """L, M, L~ and M~ at size n.

    A factor with a nonzero above its diagonal is refused, because the
    triangle-aware products never read that part.
    """
    mats = tuple(build_catalan_matrix(kind, n)
                 for kind in (LZ, MZ, LTILDEZ, MTILDEZ))
    upper = np.triu_indices(n, 1)
    for mat in mats:
        if mat[upper].any():
            i, j = map(int, np.argwhere(np.triu(mat, 1))[0])
            raise InvariantError("lower-triangular factor", (i, j), 0,
                                 mat[i, j])
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
    if np.triu(g).any():
        raise ValueError("input must be strictly lower-triangular")
    if not np.tril(g, -2).any():
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
    if np.triu(nil).any():
        raise ValueError("input must be unipotent lower-triangular")
    lcm = math.lcm(*range(1, n))
    coeffs = [0] + [(lcm // k) * (-1) ** (k + 1) for k in range(1, n)]
    return _power_series(nil, coeffs, lcm)


def _is_gram(low: np.ndarray, h: np.ndarray) -> bool:
    """Whether h == low low^t, in O(n^2) without the product, for a low
    that passes _is_factor.

    J, the Jacobi matrix of low's a with 1 beside the diagonal, is
    symmetric, and l_(i+1) = l_i J for i <= n-2.  So entry (i+1, j) of
    G = low low^t is l_i J l_j^t = entry (i, j+1): G is the Hankel matrix
    of its first row, low[:, 0], and its last column, l_i . l_(n-1).
    """
    n = low.shape[0]
    last = low[-1].tolist()
    values = [*low[:, 0].tolist(),
              *(sum(map(mul, low[i, :i + 1].tolist(), last))
                for i in range(1, n))]
    return all(row == values[i:i + n] for i, row in enumerate(h.tolist()))


def verify_catalan_lu(n: int) -> VerifyReport:
    """H == L L^t, shifted H == L~ L~^t, and both inverses via D_a M D_a.

    Each identity is decided in O(n^2) from the factor checks; only one
    that is not certified pays for its O(n^3) product, whose entries then
    localise the failures, in the order and form of a product-only run.
    H == L L^t is certified by _is_gram when L passes _is_factor.
    L (D_a M D_a) == I is certified when L and M both pass _is_factor: then
    P = D_a M D_a is lower unipotent with rows p_i(x) = (-1)^i m_i(-x), so
    p_(i+1) = (x - a_i) p_i - p_(i-1), that is P X = J P on rows 0..n-2,
    with X the shift by x and J the Jacobi matrix of a; and l_(i+1) = l_i J
    is X L = L J on the same rows.  So Q = P L is lower unipotent and
    Q J = J Q on rows 0..n-2.  Row i of that gives row i+1 of Q from rows
    i and i-1, and Q_0 = e_0, so Q is I, which obeys the same; hence
    L P = I.  Budget at n = 512, the guard's limit, on a 2-vCPU Xeon (peak
    RSS of a fresh interpreter): a passing run takes 0.75-0.99 s and 90 MB;
    one flipped entry in L pays its pair's two products, 23 s and 117 MB,
    and flipped entries in both L and L~ pay all four, 43 s and 118 MB.
    """
    check_range("size", n, 1, MAX_CATALAN_LU_SIZE)
    report = VerifyReport("catalan-lu", n)
    lmat, mmat, lt, mt = _factors(n)
    pairs = []
    for low, m, (low_kind, m_kind), h_kind in (
            (lmat, mmat, (LZ, MZ), H_CAT),
            (lt, mt, (LTILDEZ, MTILDEZ), H_CAT_SHIFT)):
        h = build_catalan_matrix(h_kind, n)
        low_ok = _is_factor(low, low_kind)
        pairs.append((low, m, h, low_ok and _is_gram(low, h),
                      low_ok and _is_factor(m, m_kind)))
    for low, _, h, gram_ok, _ in pairs:
        if not gram_ok:
            report.compare(_lower_gram(low), h)
    ident = _identity(n)
    for low, m, _, _, inverse_ok in pairs:
        if not inverse_ok:
            report.compare(_lower_matmul(low, _alt_conj(m)), ident)
    return report


def _catalan_product(low: np.ndarray, m: np.ndarray, kinds: tuple[str, str],
                     low_first: bool) -> np.ndarray:
    """low m (low_first) or m low, equal to what _lower_matmul forms, in
    O(n^2) when low and m pass _is_factor for their kinds.

    Premise: low and m are lower-triangular.  With a = (a0, 2, 2, ...) the
    pair's Jacobi diagonal (_A0), J its Jacobi matrix (1 beside the
    diagonal), Z the shift y p and e_0 the first unit row, the rows of the
    factors obey l_0 = e_0, l_(i+1) = l_i J (so Z low = low J) and m_0 = 1,
    m_(i+1) = (y + a_i) m_i - m_(i-1) with m_(-1) = 0 (so
    J m = diag(2a) m + m Z), each for i <= n-2.  Under them the rows of
    the product are:
    P = low m has P_0 = e_0 and P_(i+1) = l_i J m = P_i (4I + Z)
    - (4 - 2 a0) low[i, 0] e_0; U = m low has U_0 = e_0 and
    U_(i+1) = m_i Z low + a_i U_i - U_(i-1) = U_i (J + a_i I) - U_(i-1).
    Row i + 1 of either reads rows of the factors up to i + 1 < n only, so
    the rows so made are the n x n product exactly.  A factor that fails
    _is_factor leaves the product to _lower_matmul.
    """
    if not (_is_factor(low, kinds[0]) and _is_factor(m, kinds[1])):
        return _lower_matmul(low, m) if low_first else _lower_matmul(m, low)
    n = low.shape[0]
    a = [_A0[kinds[0]]] + [2] * (n - 1)
    first = low[:, 0].tolist()
    prev, rows = [], [[1]]
    for i in range(n - 1):
        cur = rows[-1]
        if low_first:
            nxt = [4 * c + p for c, p in zip([*cur, 0], [0, *cur])]
            nxt[0] -= (4 - 2 * a[0]) * first[i]
        else:
            nxt = [v + a[i] * c - p for v, c, p in
                   zip(_times_jacobi(cur, a), [*cur, 0], [*prev, 0, 0])]
        prev = cur
        rows.append(nxt)
    return _from_rows(rows, n)


def verify_exp_products(n: int) -> VerifyReport:
    """LM and (shifted) LM closed forms and exponential forms.

    Each product is made row by row by _catalan_product, in O(n^2) when its
    factors pass _is_factor and by _lower_matmul otherwise, and is
    compared with its closed form and with nilpotent_exp of its
    subdiagonal, so a report is the same as a product-only run's.  Budget
    at n = 128, the guard's limit, on a 2-vCPU Xeon (peak RSS of a fresh
    interpreter): a passing run takes 0.10-0.14 s and 34 MB; one flipped
    entry in L pays its pair's product, 0.13-0.20 s and 34 MB.
    """
    check_range("size", n, 1, MAX_MATRIX_SIZE)
    report = VerifyReport("exp-products", n)
    lmat, mmat, lt, mt = _factors(n)
    lm = _catalan_product(lmat, mmat, (LZ, MZ), low_first=True)
    ltmt = _catalan_product(lt, mt, (LTILDEZ, MTILDEZ), low_first=True)
    fact = [math.factorial(k) for k in range(2 * n)]
    report.compare(lm, _from_rows(
        [[fact[2 * i] * fact[j] // (fact[i] * fact[2 * j] * fact[i - j])
          for j in range(i + 1)] for i in range(n)], n))
    report.compare(lm, nilpotent_exp(
        subdiag_matrix([4 * j + 2 for j in range(n)], n)))
    report.compare(ltmt, _from_rows(
        [[4 ** (i - j) * math.comb(i, j) for j in range(i + 1)]
         for i in range(n)], n))
    report.compare(ltmt, nilpotent_exp(
        subdiag_matrix([4 * j + 4 for j in range(n)], n)))
    return report


def _stripe_rows(d: list) -> list[list]:
    """Rows of N (I - N^2)^-1 diag(d), N the down-shift: d[j] where i - j is
    odd and positive, zero elsewhere."""
    n = len(d)
    return [[d[j] if j < i and (i - j) % 2 else 0 for j in range(n)]
            for i in range(n)]


def _stripes(n: int, offset: int) -> np.ndarray:
    """4j + offset where i - j is odd and positive, zero elsewhere."""
    return np.array(_stripe_rows([4 * j + offset for j in range(n)]),
                    dtype=object)


def _stripe_left(d: list, v: list) -> list:
    """s v for s = _stripe_rows(d): entry i is d_(i-1) v_(i-1) plus entry
    i - 2, a running sum with step 2."""
    out = [0, 0]
    for x, y in zip(d, v[:-1]):
        out.append(out[-2] + x * y)
    return out[1:]


def _stripe_right(v: list, d: list) -> list:
    """v s for s = _stripe_rows(d): entry j is d_j times the sum of v_k over
    k = j + 1, j + 3, ..., a running sum with step 2 from the right."""
    sums = [0, 0]
    for x in reversed(v[1:]):
        sums.append(sums[-2] + x)
    return [x * t for x, t in zip(d, reversed(sums))]


def _is_exp(s: np.ndarray, u: np.ndarray) -> bool:
    """Whether u == exp(s), decided exactly in O(n^2) without forming
    exp(s) or any matrix product, n >= 1.

    Premise: s is the stripe form N (I - N^2)^-1 diag(d), with d read off
    its first subdiagonal and no d_j zero; False when it does not hold.
    Under it the vectors s^k e0, k < n, are a triangular basis, so a u that
    commutes with s is the polynomial in s fixed by its first column.  Hence
    u == exp(s) exactly when s u == u s and u e0 == exp(s) e0.  Row i of
    s u is d_(i-1) u_(i-1) plus row i - 2 of s u, and each row of u s is
    _stripe_right of the row of u.  The column is compared scaled by
    (n-1)!, as sum_k (n-1)!/k! s^k e0 in ints, each power one _stripe_left.
    """
    n = s.shape[0]
    d = [*np.diagonal(s, -1).tolist(), 1]  # d_(n-1) scales no entry
    if not all(d) or s.tolist() != _stripe_rows(d):
        return False
    rows = u.tolist()
    su = [[0] * n] * 2  # rows -1 and 0 of s u
    for x, row in zip(d, rows[:-1]):
        su.append([p + x * v for p, v in zip(su[-2], row)])
    if su[1:] != [_stripe_right(row, d) for row in rows]:
        return False
    f = coef = math.factorial(n - 1)
    col = [1] + [0] * (n - 1)
    acc = [f] + [0] * (n - 1)
    for k in range(1, n):
        coef //= k
        col = _stripe_left(d, col)
        acc = [a + coef * c for a, c in zip(acc, col)]
    return acc == [f * row[0] for row in rows]


def check_log_conjecture(n: int) -> VerifyReport:
    """log(ML) and log(M~L~) against the striped 4j+2 / 4j+4 patterns.

    Each product u comes from _catalan_product and passes when _is_exp
    certifies exp(stripes) == u, which holds exactly when
    log(u) == stripes; a passing run forms no matrix product.  Only a
    product the certificate rejects pays for nilpotent_log, whose entries
    then localise the failures.  Budget at n = 128, the guard's limit, on a
    2-vCPU Xeon (peak RSS of a fresh interpreter): a passing run takes
    0.05-0.07 s and 33 MB; one flipped entry in L pays its pair's product
    and one nilpotent_log, 2.0-3.0 s and 45 MB.
    """
    check_range("size", n, 1, MAX_MATRIX_SIZE)
    report = VerifyReport("log-conjecture", n, conjecture=True)
    lmat, mmat, lt, mt = _factors(n)
    for low, m, kinds, offset in ((lmat, mmat, (LZ, MZ), 2),
                                  (lt, mt, (LTILDEZ, MTILDEZ), 4)):
        u = _catalan_product(low, m, kinds, low_first=False)
        stripes = _stripes(n, offset)
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
