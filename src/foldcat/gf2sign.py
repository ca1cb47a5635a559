"""The {0,1} triangular matrices, sign diagonals and block recursions.

Builds L, M, their shifted variants, the strictly-lower shifts, the sign
diagonals, and the 0/1 Hankel matrices, and checks the factorization and
inverse identities between them with exact integer arithmetic.
Matrices are numpy int arrays, 0-indexed.  The Gram and inverse identities
are first decided by O(n^2) certificates; the products, for the identities
without one and for those whose certificate fails, are checked one row block
at a time, their operands held as packed bits.
"""

from __future__ import annotations

import itertools
from functools import partial

import numpy as np

from .binom2 import binom_mod2_grid
from .errors import SizeGuardError, check_range
from .report import VerifyReport

MAX_SIZE = 1 << 14
MAX_BLOCK_STEPS = 12
# ml-lm checks LM against one chain of at most 2^(MAX_BLOCK_STEPS + 1), the
# next power of two at or above its size
MAX_ML_LM_SIZE = 2 << MAX_BLOCK_STEPS
# babab checks the chains up to the largest power of two at or below its size
MAX_BABAB_SIZE = (4 << MAX_BLOCK_STEPS) - 1

# triangular kinds
L = "L"
M = "M"
LTILDE = "LTILDE"
MTILDE = "MTILDE"
LTILDE0 = "LTILDE0"
MTILDE0 = "MTILDE0"
A_STRICT = "A_STRICT"

# block recursion rules
L_RULE = "L_RULE"
M_RULE = "M_RULE"
LTILDE0_RULE = "LTILDE0_RULE"
MTILDE0_RULE = "MTILDE0_RULE"
LM_RULE = "LM_RULE"

# Hankel sources
MU_SHIFT0 = "MU_SHIFT0"
MU_SHIFT1 = "MU_SHIFT1"


# entries of one row block: the block of a matrix built at a time, and the
# (row block x columns) scratch arrays of the product kernel
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(n_rows: int, n_cols: int):
    """(start, stop) of the row blocks of an n_rows x n_cols array."""
    step = max(1, _BLOCK_ENTRIES // max(n_cols, 1))
    for start in range(0, n_rows, step):
        yield start, min(start + step, n_rows)


def _tri_block(kind: str, n: int, start: int, stop: int,
               transpose: bool = False) -> np.ndarray:
    """Rows start..stop of the n x n matrix of the given kind, or of its
    transpose, as int8."""
    # int32 holds 2n + 2 for every admitted n, at half the traffic of int64
    rows = np.arange(start, stop, dtype=np.int32)[:, None]
    cols = np.arange(n, dtype=np.int32)[None, :]
    return _tri_entries(kind, *((cols, rows) if transpose else (rows, cols)))


def _tri_entries(kind: str, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Entries (i, j) of the matrix of the given kind, for broadcasting
    index arrays, as int8: the one formula per kind."""
    if kind in (LTILDE0, MTILDE0):  # row i is row i - 1 of the unshifted
        kind, i = (LTILDE if kind == LTILDE0 else MTILDE), i - 1
    if kind == L:
        return binom_mod2_grid(2 * i + 1, i - j)
    if kind == M:
        return binom_mod2_grid(i + j, 2 * j)
    if kind == LTILDE:
        return binom_mod2_grid(2 * i + 2, i - j)
    if kind == MTILDE:
        return binom_mod2_grid(i + j + 1, 2 * j + 1)
    if kind == A_STRICT:
        return (i > j).astype(np.int8)
    raise ValueError(f"unknown kind {kind!r}")


def build_tri(kind: str, n: int) -> np.ndarray:
    """Triangular matrix of the given kind at size n, entries in {0,1}."""
    check_range("size", n, 1, MAX_SIZE)
    out = np.empty((n, n), dtype=np.int8)
    for start, stop in _row_blocks(n, n):
        out[start:stop] = _tri_block(kind, n, start, stop)
    return out


_SEEDS = {
    L_RULE: [[1, 0], [1, 1]],
    M_RULE: [[1, 0], [1, 1]],
    LTILDE0_RULE: [[0, 0], [1, 0]],
    MTILDE0_RULE: [[0, 0], [1, 0]],
    LM_RULE: [[1, 0], [2, 1]],
}

# A doubling step maps [[a, 0], [b, a]], with a and b of size h, to a 4 x 4
# block matrix whose top-left and bottom-right 2 x 2 blocks repeat it and
# whose top-right ones are zero.  Only the bottom-left 2 x 2 blocks depend on
# the family: each is (factor, q), factor times a (q = 0) or b (q = 1).
_L_BLOCKS = (((0, 0), (1, 1)), ((1, 1), (1, 0)))
_M_BLOCKS = (((1, 0), (1, 1)), ((1, 1), (0, 0)))
_LOWER_LEFT = {
    L_RULE: _L_BLOCKS,
    M_RULE: _M_BLOCKS,
    LTILDE0_RULE: _L_BLOCKS,
    MTILDE0_RULE: _M_BLOCKS,
    LM_RULE: (((2, 0), (1, 1)), ((2, 1), (2, 0))),
}


def babab_expand(rule: str, steps: int) -> np.ndarray:
    """Iterate the block doubling map; step k yields size 2^(k+1).

    The chain grows in place in one buffer, and each step keeps the previous
    matrix as its leading block, so the leading 2^(k+1) x 2^(k+1) block of
    the result is the matrix after step k.  Entries are 0/1, except in LM,
    where they are 0 or powers of two up to 2^(steps+1); the dtype is the
    narrowest signed one that holds them.
    """
    if rule not in _SEEDS:
        raise ValueError(f"unknown rule {rule!r}")
    check_range("steps", steps, 0, MAX_BLOCK_STEPS)
    n = 2 << steps
    largest = n if rule == LM_RULE else 1
    out = np.zeros((n, n), dtype=np.min_scalar_type(-largest - 1))
    out[:2, :2] = _SEEDS[rule]
    for k in range(1, steps + 1):
        h, size = 1 << (k - 1), 1 << k
        new = out[size:2 * size]
        new[:, size:2 * size] = out[:size, :size]
        for r, row in enumerate(_LOWER_LEFT[rule]):
            for c, (factor, q) in enumerate(row):
                if factor:
                    np.multiply(out[q * h:(q + 1) * h, :h], factor,
                                out=new[r * h:(r + 1) * h, c * h:(c + 1) * h])
    return out


def _hankel_window(coeffs, shift: int, n: int, start: int, stop: int | None,
                   dtype) -> np.ndarray:
    """Rows start..stop (all by default) of the n x n Hankel matrix whose
    (i, j) entry is coeffs[k] where i + j + shift = 2^k - 1, and 0 elsewhere;
    coeffs may be infinite, and indices past its end read as 0."""
    check_range("size", n, 1, MAX_SIZE)
    stop = n if stop is None else stop
    # vals[m] is the entry on the antidiagonal i + j = start + m
    vals = np.zeros(stop - start + n - 1, dtype=dtype)
    for k, c in enumerate(coeffs):
        m = (1 << k) - 1 - shift - start
        if m >= len(vals):
            break
        if m >= 0:
            vals[m] = c
    i = np.arange(stop - start)[:, None]
    j = np.arange(n)[None, :]
    return vals[i + j]


def hankel_bits(source: str, n: int, start: int = 0,
                stop: int | None = None) -> np.ndarray:
    """Rows start..stop (all by default) of the n x n Hankel matrix of mu
    (shift 0) or of its shift by one, as int8."""
    shifts = {MU_SHIFT0: 0, MU_SHIFT1: 1}
    if source not in shifts:
        raise ValueError(f"unknown source {source!r}")
    # mu(m) = 1 where m + 1 is a power of two
    return _hankel_window(itertools.repeat(1), shifts[source], n, start, stop,
                          np.int8)


def _parity_sign(bits: np.ndarray) -> np.ndarray:
    """(-1)^popcount, elementwise, as int64."""
    return 1 - 2 * (np.bitwise_count(bits) & 1).astype(np.int64)


def sign_diag(kind: str, n: int) -> np.ndarray:
    """Diagonal of the named sign matrix as a 1-D int vector."""
    check_range("size", n, 1, MAX_SIZE)
    i = np.arange(n, dtype=np.int64)
    if kind == "s":  # (-1)^b0(i), b0 counting the "10" factors of i
        return _parity_sign((i >> 1) & ~i)
    if kind == "a":
        return 1 - 2 * (i & 1)
    if kind == "e":
        return 1 - (i & 1)
    if kind == "o":
        return i & 1
    lowest_zero = ~i & (i + 1)
    if kind == "stilde":  # -1 iff the bit above the lowest zero bit is set
        return _parity_sign(i & (lowest_zero << 1))
    if kind == "ttilde":  # s(i >> (t + 1)), t the trailing one bits of i
        m = i // (lowest_zero << 1)
        return _parity_sign((m >> 1) & ~m)
    raise ValueError(f"unknown sign kind {kind!r}")


def _pack(bits: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as uint64 words, word-major: shape (words, rows)."""
    rows, k = bits.shape
    packed = np.zeros((rows, -(-k // 64) * 8), dtype=np.uint8)
    packed[:, :(k + 7) // 8] = np.packbits(bits, axis=1)
    return np.ascontiguousarray(packed.view(np.uint64).T)


def _planes(a: np.ndarray):
    """Yield (weight, 0/1 plane) pairs, one at a time, with a == sum of
    weight * plane; weights are +-2^p."""
    lo, hi = int(a.min(initial=0)), int(a.max(initial=0))
    if a.shape[1] * max(hi, -lo) > np.iinfo(np.int64).max:
        raise ValueError("the product could overflow int64")
    # the narrowest signed dtype holding +-max|a| keeps the temporaries small
    a = a.astype(np.min_scalar_type(-max(hi, -lo) - 1), copy=False)
    for sign, top in ((1, hi), (-1, -lo)):
        if top <= 0:
            continue
        mag = a if sign > 0 else np.negative(a)
        side = mag > 0 if lo < 0 < hi else None
        for p in range(top.bit_length()):
            plane = ((mag >> p) & 1).astype(np.bool_)
            yield sign << p, plane if side is None else plane & side


def _spans(cols: np.ndarray) -> list[tuple[int, int]]:
    """(lo, hi) per word of cols: columns lo..hi hold all of its nonzero
    entries (lo == hi when there are none)."""
    spans = []
    for word in cols:
        nonzero = np.flatnonzero(word)
        spans.append((int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size
                     else (0, 0))
    return spans


def _accumulate(passes: list, n_rows: int, n_cols: int):
    """Yield (start, block) for the row blocks, in order, of the int64
    n_rows x n_cols matrix whose (i, j) entry is the sum over the
    (weight, rows, cols) passes of weight * popcount(rows[:, i] & cols[:, j]),
    where rows and cols are word-major packed bit vectors.

    Word w of a pass is ANDed only over the span of columns where
    cols[w] is nonzero: j < 64 (w + 1) for a lower-triangular right operand.
    """
    spans = {id(cols): _spans(cols) for _, _, cols in passes}
    blocks = list(_row_blocks(n_rows, n_cols))
    if not blocks:
        return
    step = blocks[0][1]
    both = np.empty(step * n_cols, dtype=np.uint64)
    count = np.empty(step * n_cols, dtype=np.uint8)
    # a sum of popcounts is at most the inner dimension
    words = passes[0][1].shape[0] if passes else 0
    total = np.empty((step, n_cols), dtype=np.min_scalar_type(words * 64))
    for start, stop in blocks:
        m = stop - start
        out = np.zeros((m, n_cols), dtype=np.int64)
        for weight, rows, cols in passes:
            span = spans[id(cols)]
            block = rows[:, start:stop]
            total[:m] = 0
            # words that are zero in every row of the block add nothing:
            # about half of them for a triangular operand, nearly all for a
            # diagonal one
            for w in np.flatnonzero(block.any(axis=1)):
                lo, hi = span[w]
                if lo == hi:
                    continue
                size = m * (hi - lo)
                anded = both[:size].reshape(m, hi - lo)
                counted = count[:size].reshape(m, hi - lo)
                np.bitwise_and(block[w, :, None], cols[w, lo:hi], out=anded)
                np.bitwise_count(anded, out=counted)
                part = total[:m, lo:hi]
                np.add(part, counted, out=part)
            out += np.int64(weight) * total[:m]
        yield start, out


def _weighted(planes, w: np.ndarray | None, cols: np.ndarray) -> list:
    """The passes of (sum of weight * plane) . diag(w) . b, from the packed
    (weight, plane rows) pairs and the packed columns of b: each plane ANDed
    with the packed masks of w > 0 and w < 0 (w None: all ones)."""
    if w is None:
        return [(weight, rows, cols) for weight, rows in planes]
    # shape (words, 1): one mask word broadcast over all rows
    masks = [(sign, _pack(side[None, :])) for sign, side
             in ((1, w > 0), (-1, w < 0)) if side.any()]
    return [(weight * sign, rows & mask, cols) for weight, rows in planes
            for sign, mask in masks]


def signed_product(a: np.ndarray, w: np.ndarray | None,
                   b: np.ndarray) -> np.ndarray:
    """Exact integer product a . diag(w) . b, as int64.

    b is a 0/1 matrix, a a small integer matrix, and w a vector over
    {-1, 0, 1} (None for all ones).  The columns of b are packed into
    uint64 words; a is split by sign and bit into 0/1 planes, whose packed
    rows are ANDed with the packed masks of w > 0 and w < 0.  Each entry is
    the sum of sign * 2^p * popcount(row & mask & column): integers only.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {b.shape}")
    if a.dtype.kind not in "biu" or b.dtype.kind not in "biu":
        raise ValueError("operands must be integer matrices")
    bits = b.astype(np.bool_)
    if (bits != b).any():
        raise ValueError("the right operand must be a 0/1 matrix")
    if w is not None:
        w = np.asarray(w)
        if w.shape != (a.shape[1],) or w.dtype.kind not in "biu":
            raise ValueError(f"weights must be an integer vector of length "
                             f"{a.shape[1]}")
        if w.min(initial=0) < -1 or w.max(initial=0) > 1:
            raise ValueError("weights must lie in {-1, 0, 1}")
    planes = ((weight, _pack(plane)) for weight, plane in _planes(a))
    passes = _weighted(planes, w, _pack(bits.T))
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    for start, block in _accumulate(passes, a.shape[0], b.shape[1]):
        out[start:start + len(block)] = block
    return out


# The verifiers below stream: each product is made one row block at a time
# and compared with an expected block made for those rows alone.  Operands
# are packed straight from the formulas, and an integer product that feeds a
# further product is kept as packed bit planes, so that no n x n int64 array
# exists.


def _packed(kind: str, n: int, transpose: bool = False) -> np.ndarray:
    """The rows of the n x n matrix of the given kind (its columns with
    transpose), packed word-major, shape (words, n); built in row blocks."""
    out = np.empty((-(-n // 64), n), dtype=np.uint64)
    for start, stop in _row_blocks(n, n):
        out[:, start:stop] = _pack(_tri_block(kind, n, start, stop,
                                              transpose))
    return out


def _product(rows: np.ndarray, w: np.ndarray | None, cols: np.ndarray,
             n: int):
    """Row blocks of the n x n product a . diag(w) . b of 0/1 matrices,
    from the packed rows of a and the packed columns of b."""
    return _accumulate(_weighted([(1, rows)], w, cols), n, n)


def _packed_planes(blocks, n: int) -> dict:
    """{weight: packed rows} of the 0/1 planes of the n x n integer matrix
    streamed as row blocks, which is the sum of weight * plane."""
    planes = {}
    for start, block in blocks:
        for weight, plane in _planes(block):
            if weight not in planes:
                planes[weight] = np.zeros((-(-n // 64), n), dtype=np.uint64)
            planes[weight][:, start:start + len(block)] = _pack(plane)
    return planes


def _diag_rows(v: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Rows start..stop of diag(v), as int64."""
    out = np.zeros((stop - start, len(v)), dtype=np.int64)
    k = np.arange(stop - start)
    out[k, start + k] = v[start:stop]
    return out


# Certificates: a statement is first decided in O(n^2) with no product, and
# only a statement whose certificate fails takes its product, so every report
# is the product's.  F = D_c T D_c, for the 0/1 triangle T of a kind and the
# conjugating signs c, is certified as the moment matrix of a Jacobi matrix J
# (Flajolet 1980, Viennot 1983): row 0 of F is e_0 and each row is the one
# above it times J, l_(i+1) = l_i J.  J is tridiagonal, with ones above the
# diagonal, a_k on it and b_k below it.


def _signed_rows(kind: str, n: int, left: np.ndarray, right: np.ndarray,
                 above: int):
    """Yield (start, rows) over the row blocks of D_left T D_right, T the
    n x n matrix of the kind, as int8: rows holds the `above` rows before
    the block (zero before row 0), then the block."""
    left, right = left.astype(np.int8), right.astype(np.int8)
    prev = np.zeros((above, n), dtype=np.int8)
    for start, stop in _row_blocks(n, n):
        block = left[start:stop, None] * _tri_block(kind, n, start, stop)
        rows = np.concatenate((prev, block * right))
        yield start, rows
        prev = rows[len(rows) - above:]


def _jacobi(kind: str, n: int, conj: np.ndarray,
            weights: np.ndarray | None = None):
    """(a, b, F[:, 0], F . weights) if F = D_c T D_c is the moment matrix
    of J, else None (F . weights is None without weights).

    J is read off the first three diagonals of F, from the kind's formula:
    a_k = F[k+1, k] - F[k, k-1] for k <= n - 2 and
    b_(k+1) = F[k+2, k] - F[k+1, k-1] - a_k F[k+1, k] for k <= n - 3, the
    other entries of a and b zero.  Then one pass over F's row blocks checks
    that F[0] = e_0 and F[i+1] = F[i] J for i <= n - 2, in int8 once
    |a| <= 2 and |b| <= 1 bound every sum by 4.  Entries of J past these
    never meet a nonzero entry of F: the rows this accepts are lower
    triangular, row by row from e_0.
    """
    def below(d):  # F[k + d, k]
        k = np.arange(max(n - d, 0))
        return conj[d:] * conj[:len(k)] * _tri_entries(kind, k + d, k)

    sub1, sub2 = below(1), below(2)
    a = np.zeros(n, dtype=np.int64)
    b = np.zeros(n, dtype=np.int64)
    a[:n - 1] = np.diff(sub1, prepend=0)
    b[1:n - 1] = np.diff(sub2, prepend=0) - a[:len(sub2)] * sub1[:len(sub2)]
    if np.abs(a).max() > 2 or np.abs(b).max() > 1:
        return None
    a8, b8 = a.astype(np.int8), b[1:].astype(np.int8)
    first = np.empty(n, dtype=np.int8)
    dot = None if weights is None else np.empty(n, dtype=np.int64)
    for start, rows in _signed_rows(kind, n, conj, conj, 1):
        block = rows[1:]
        if start == 0 and (block[0, 1:].any() or block[0, 0] != 1):
            return None
        # the rows of rows[:-1] J, against the rows after them
        step = rows[:-1] * a8
        step[:, 1:] += rows[:-1, :-1]
        step[:, :-1] += rows[:-1, 1:] * b8
        skip = 1 if start == 0 else 0  # row 0 follows no row
        if (step[skip:] != block[skip:]).any():
            return None
        first[start:start + len(block)] = block[:, 0]
        if weights is not None:
            dot[start:start + len(block)] = block @ weights
    return a, b, first, dot


def _is_inverse(jacobi, kind: str, n: int, conj: np.ndarray,
                pivots: np.ndarray) -> bool:
    """Whether T D_p U == D_p, for the (a, b, ...) of _jacobi(T, n, c) (None:
    False), U the matrix of the kind and p = +-1 the pivots, in one pass
    over the row blocks of V = D_p D_c U D_c.

    It checks V[0] = p_0 e_0 and V[k+1] + a_k V[k] + b_k V[k-1] = V[k] X_p
    for k <= n - 2, where V[-1] = 0 and (V[k] X_p)_j = p_(j-1) p_j V[k, j-1];
    the left sides are J V's rows.  Then W = F V has W[0] = p_0 e_0 and
    W[i+1] = F[i] J V = W[i] X_p, as F[i] reads rows <= n - 2 of J V, so
    W = D_p and T D_p U = D_c W D_c = D_p.  The sums stay within 4, as in
    _jacobi, so int8 holds them.  As D_p^2 = I, D_p U D_p is then the
    two-sided inverse of T, and U D_p T = D_p too.
    """
    if jacobi is None:
        return False
    # a_k and b_k at index k + 1: the coefficients of the row after row k
    a8 = np.concatenate(([0], jacobi[0][:-1])).astype(np.int8)[:, None]
    b8 = np.concatenate(([0], jacobi[1][:-1])).astype(np.int8)[:, None]
    twist = (pivots[:-1] * pivots[1:]).astype(np.int8)
    for start, rows in _signed_rows(kind, n, pivots * conj, conj, 2):
        block, cur, prev = rows[2:], rows[1:-1], rows[:-2]
        if start == 0 and (block[0, 1:].any() or block[0, 0] != pivots[0]):
            return False
        stop = start + len(block)
        lhs = block + a8[start:stop] * cur + b8[start:stop] * prev
        rhs = np.zeros_like(cur)
        rhs[:, 1:] = cur[:, :-1] * twist
        skip = 1 if start == 0 else 0
        if (lhs[skip:] != rhs[skip:]).any():
            return False
    return True


def _check_gram(report: VerifyReport, kind: str, pivots: np.ndarray,
                conj: np.ndarray, hankel):
    """Compare G = D_c T D_p T^t D_c, T the matrix of the kind, p the pivots
    and c the conjugating signs, with the Hankel rows hankel(start, stop);
    return _jacobi's (a, b, ...) for F = D_c T D_c, or None.

    The certificate: with F the moment matrix of J and b_(k+1) p_k = p_(k+1)
    for k <= n - 3, J D_p is symmetric where F's rows reach it, so
    G = F D_p F^t is Hankel: G[i+1, j] = F[i] J D_p F[j]^t = G[i, j+1].  It
    then equals the Hankel target when its first column, F[:, 0] p_0, and
    its last column, F (p o l_(n-1)), equal the target's first and last rows
    (which are its first and last columns).  If that fails, G is formed from the packed rows of T, one row block at a
    time, and compared.
    """
    n = len(pivots)
    last = conj[n - 1] * _tri_block(kind, n, n - 1, n)[0] * conj
    jacobi = _jacobi(kind, n, conj, pivots * last)
    if jacobi is not None:
        b, first, dot = jacobi[1:]
        symmetric = b[1:n - 1] * pivots[:n - 2] == pivots[1:n - 1]
        if symmetric.all() and (first * pivots[0] == hankel(0, 1)[0]).all() \
                and (dot == hankel(n - 1, n)[0]).all():
            return jacobi
    rows = _packed(kind, n)
    for start, core in _product(rows, pivots, rows, n):
        stop = start + len(core)
        report.compare(conj[start:stop, None] * core * conj[None, :],
                       hankel(start, stop), start)
    return jacobi


def verify_thm2(n: int) -> VerifyReport:
    """D_s L D_a L^t D_s == Hankel(mu).

    At the limit, MAX_SIZE = 16384: 0.8-1.1 s and 33 MB child peak RSS
    through the CLI on a 2-vCPU Xeon, like the budgets below, and 17-18 s
    and 130 MB if the certificate fails and the product is formed.
    """
    check_range("size", n, 1, MAX_SIZE)
    report = VerifyReport("thm2", n)
    _check_gram(report, L, sign_diag("a", n), sign_diag("s", n),
                partial(hankel_bits, MU_SHIFT0, n))
    return report


def verify_thm3(n: int) -> VerifyReport:
    """L D_a M == D_a, and the signed inverse P (D_s L D_s) == identity.

    At the limit, MAX_SIZE = 16384: 1.9-2.7 s and 32 MB; 29 s and 161 MB
    with the products.
    """
    check_range("size", n, 1, MAX_SIZE)
    report = VerifyReport("thm3", n)
    sv = sign_diag("s", n)
    av = sign_diag("a", n)
    # L D_a M = D_a gives M D_a L = D_a, which is the second identity
    if _is_inverse(_jacobi(L, n, sv), M, n, sv, av):
        return report
    for start, got in _product(_packed(L, n), av, _packed(M, n, True), n):
        report.compare(got, _diag_rows(av, start, start + len(got)), start)
    # P = D_s D_a M D_a D_s, so P (D_s L D_s) = D_s D_a M D_a L D_s, as
    # D_s D_s = I
    ones = np.ones(n, dtype=np.int64)
    for start, prod in _product(_packed(M, n), av, _packed(L, n, True), n):
        stop = start + len(prod)
        got = (sv * av)[start:stop, None] * prod * sv[None, :]
        report.compare(got, _diag_rows(ones, start, stop), start)
    return report


def verify_prop_mdl(n: int) -> VerifyReport:
    """M D_e L == A + D_e and M D_o L == A + D_o.

    At the limit, MAX_SIZE = 16384: 16 s and 131 MB.
    """
    check_range("size", n, 1, MAX_SIZE)
    report = VerifyReport("mdl", n)
    mrows, lcols = _packed(M, n), _packed(L, n, True)
    for kind in ("e", "o"):
        mask = sign_diag(kind, n)
        for start, got in _product(mrows, mask, lcols, n):
            stop = start + len(got)
            want = _tri_block(A_STRICT, n, start, stop) \
                + _diag_rows(mask, start, stop)
            report.compare(got, want, start)
    return report


def verify_prop_ml_lm(n: int) -> VerifyReport:
    """ML entry pattern 0/1/2, LM block recursion, and both inverses.

    At the limit, MAX_ML_LM_SIZE = 8192: 3.4-4.1 s and 193 MB, of which the
    int16 LM chain is 128 MB; 17 s with the inverses' products.
    """
    check_range("size", n, 1, MAX_ML_LM_SIZE)
    report = VerifyReport("ml-lm", n)
    lmat = _packed(L, n), _packed(L, n, True)  # (rows, columns)
    mmat = _packed(M, n), _packed(M, n, True)
    av = sign_diag("a", n)
    j = np.arange(n)[None, :]
    for start, got in _product(mmat[0], None, lmat[1], n):
        i = np.arange(start, start + len(got))[:, None]
        report.compare(got, np.where(i < j, 0, np.where(i == j, 1, 2)),
                       start)
    steps = max(0, (max(n - 1, 1)).bit_length() - 1)
    chain = babab_expand(LM_RULE, steps)
    for start, got in _product(lmat[0], None, mmat[1], n):
        report.compare(got, chain[start:start + len(got), :n], start)
    del chain
    # ML D_a ML D_a == M (L D_a M) L D_a and LM D_a LM D_a == L (M D_a L) M D_a
    # are I once L D_a M = D_a, as then M D_a L = D_a too (thm3)
    sv = sign_diag("s", n)
    if _is_inverse(_jacobi(L, n, sv), M, n, sv, av):
        return report
    # otherwise both are multiplied out, left . inner . right D_a; the rows
    # of inner^t = left^t D_a right^t are the columns of inner, so its
    # packed planes serve as the right factor of left . inner
    ones = np.ones(n, dtype=np.int64)
    for (left_rows, left_cols), (right_rows, right_cols) in ((mmat, lmat),
                                                             (lmat, mmat)):
        inner = _packed_planes(_product(left_cols, av, right_rows, n), n)
        outer = _packed_planes(_accumulate(
            [(weight, left_rows, cols) for weight, cols in inner.items()],
            n, n), n)
        del inner
        for start, got in _accumulate(
                [(weight, rows, right_cols) for weight, rows in outer.items()],
                n, n):
            report.compare(got * av[None, :],
                           _diag_rows(ones, start, start + len(got)), start)
    return report


def verify_thm5(n: int) -> VerifyReport:
    """Shifted-Hankel factorization, its inverses, and the interleavings.

    At the limit, MAX_SIZE = 16384: 7.2-8.1 s and 33 MB, nearly all of it
    the parity and interleaving checks; 55 s and 227 MB with the products.
    """
    check_range("size", n, 1, MAX_SIZE)
    report = VerifyReport("thm5", n)
    sv, tv = sign_diag("stilde", n), sign_diag("ttilde", n)
    jacobi = _check_gram(report, LTILDE, sv, tv,
                         partial(hankel_bits, MU_SHIFT1, n))
    # L~ D_s~ M~ = D_s~ gives M~ D_s~ L~ = D_s~
    if not _is_inverse(jacobi, MTILDE, n, tv, sv):
        for kinds in ((LTILDE, MTILDE), (MTILDE, LTILDE)):
            for start, got in _product(_packed(kinds[0], n), sv,
                                       _packed(kinds[1], n, True), n):
                report.compare(got, _diag_rows(sv, start, start + len(got)),
                               start)
    # parity vanishing and interleaving recursions
    j = np.arange(n)[None, :]
    for start, stop in _row_blocks(n, n):
        i = np.arange(start, stop)[:, None]
        lt = _tri_block(LTILDE, n, start, stop)
        report.compare(lt * ((i - j) % 2 == 1), np.zeros_like(lt), start)
    # rows and columns of the kind at size n taken with step 2 from offset,
    # against the leading block of want_kind at want_size
    h = n // 2
    for kind, offset, want_kind, want_size in (
            (LTILDE, 0, L, h), (MTILDE, 0, M, h),
            (LTILDE, 1, LTILDE, n), (MTILDE, 1, MTILDE, n)):
        for start, stop in _row_blocks(h, 2 * n):
            got = _tri_block(kind, n, 2 * start + offset,
                             2 * stop + offset - 1)[::2, offset:2 * h:2]
            want = _tri_block(want_kind, want_size, start, stop)[:, :h]
            report.compare(got, want, start)
    return report


_CHAINS = ((L_RULE, L), (M_RULE, M), (LTILDE0_RULE, LTILDE0),
           (MTILDE0_RULE, MTILDE0))


def verify_babab(n: int) -> VerifyReport:
    """Every block-recursion chain equals its formula-built matrix.

    Each chain is grown once, to the largest power of two top <= n, and
    compared once, row block by row block, with its formula matrix built at
    top.  The level of size 2, 4, ..., top is the leading size x size block
    of both, so its failures are read from that one comparison: those with
    i, j < size.  Failures are reported level by level, and chain by chain
    within a level.  At the limit, MAX_BABAB_SIZE = 16383 (top 8192): 1.8 s
    and 158 MB.
    """
    check_range("size", n, 1, MAX_BABAB_SIZE)
    report = VerifyReport("babab", n)
    if n < 2:
        return report
    top = 1 << (n.bit_length() - 1)
    steps = top.bit_length() - 2
    found = []  # each chain's failures at top, in row-major order
    for rule, kind in _CHAINS:
        want = build_tri(kind, top)
        chain = babab_expand(rule, steps)
        part = VerifyReport("babab", n)
        for start, stop in _row_blocks(top, top):
            part.compare(chain[start:stop], want[start:stop], start)
        found.append(part.failures)
        del want, chain
    for size in (2 << k for k in range(steps + 1)):
        for failures in found:
            report.failures.extend(f for f in failures
                                   if f.i < size and f.j < size)
    return report


def general_eps_diag(eps: list[int], n: int) -> np.ndarray:
    """Conjugating diagonal for the sign-twisted Hankel factorization.

    d_m is the product, over set bits j of m, of c_j where c_0 = eps[1]
    and c_j = eps[j] * eps[j+1] for j >= 1.
    """
    check_range("size", n, 1, MAX_SIZE)
    if not eps or eps[0] != 1:
        raise ValueError("eps[0] must be +1 (negate D_a to handle -1)")
    if any(e not in (-1, 1) for e in eps):
        raise ValueError("eps entries must be +-1")
    if (1 << (len(eps) - 1)) < n:
        raise SizeGuardError(f"eps of length {len(eps)} covers sizes up to "
                             f"{1 << (len(eps) - 1)}, got size {n}")
    c = [eps[1] if len(eps) > 1 else 1]
    for j in range(1, len(eps) - 1):
        c.append(eps[j] * eps[j + 1])
    # every c_j is +-1, so d_m is -1 to the number of set bits j of m
    # with c_j = -1; m < n has no bit j >= n.bit_length()
    negative = sum(1 << j for j, cj in enumerate(c[:n.bit_length()])
                   if cj < 0)
    return _parity_sign(np.arange(n, dtype=np.int64) & negative)


def signed_hankel(eps: list[int], n: int, start: int = 0,
                  stop: int | None = None) -> np.ndarray:
    """Rows start..stop (all by default) of the n x n Hankel matrix of the
    series with coefficient eps[k] at index 2^k - 1."""
    return _hankel_window(eps, 0, n, start, stop, np.int64)


def verify_eps(eps: list[int], n: int) -> VerifyReport:
    """Conjugated factorization reproduces the sign-twisted Hankel matrix:
    D_(s d) L D_a L^t D_(s d) == Hankel(eps), d = general_eps_diag(eps, n)."""
    report = VerifyReport("eps", n)
    conj = general_eps_diag(eps, n) * sign_diag("s", n)
    _check_gram(report, L, sign_diag("a", n), conj,
                partial(signed_hankel, eps, n))
    return report
