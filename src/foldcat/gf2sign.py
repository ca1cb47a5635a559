"""The {0,1} triangular matrices, sign diagonals and block recursions.

Builds L, M, their shifted variants, the strictly-lower shifts, the sign
diagonals, and the 0/1 Hankel matrices, and checks the factorization and
inverse identities between them with exact integer arithmetic.
All matrices are dense numpy int arrays, 0-indexed.
"""

from __future__ import annotations

import numpy as np

from . import seq
from .binom2 import binom_mod2_grid
from .errors import SizeGuardError
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


def _check_size(n: int, limit: int = MAX_SIZE) -> None:
    if not 1 <= n <= limit:
        raise SizeGuardError(f"size must be in [1, {limit}], got {n}")


def build_tri(kind: str, n: int) -> np.ndarray:
    """Triangular matrix of the given kind at size n, entries in {0,1}."""
    _check_size(n)
    i = np.arange(n, dtype=np.int64)[:, None]
    j = np.arange(n, dtype=np.int64)[None, :]
    if kind == L:
        return binom_mod2_grid(2 * i + 1, i - j)
    if kind == M:
        return binom_mod2_grid(i + j, 2 * j)
    if kind == LTILDE:
        return binom_mod2_grid(2 * i + 2, i - j)
    if kind == MTILDE:
        return binom_mod2_grid(i + j + 1, 2 * j + 1)
    if kind in (LTILDE0, MTILDE0):
        base = build_tri(LTILDE if kind == LTILDE0 else MTILDE, n)
        out = np.zeros_like(base)
        out[1:] = base[:-1]
        return out
    if kind == A_STRICT:
        return (i > j).astype(np.int8)
    raise ValueError(f"unknown kind {kind!r}")


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
    if not 0 <= steps <= MAX_BLOCK_STEPS:
        raise SizeGuardError(f"steps must be in [0, {MAX_BLOCK_STEPS}]")
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


def hankel_bits(source: str, n: int) -> np.ndarray:
    """Hankel matrix of mu (shift 0) or of its shift by one."""
    _check_size(n)
    shift = {MU_SHIFT0: 0, MU_SHIFT1: 1}[source]
    m = np.arange(shift, 2 * n - 1 + shift, dtype=np.int64)
    vals = (((m + 1) & m) == 0).astype(np.int8)  # mu(m): m + 1 a power of two
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return vals[i + j]


def sign_diag(kind: str, n: int) -> np.ndarray:
    """Diagonal of the named sign matrix as a 1-D int vector."""
    _check_size(n)
    i = np.arange(n, dtype=np.int64)
    if kind == "s":  # (-1)^b0(i), b0 counting the "10" factors of i
        b0 = np.bitwise_count((i >> 1) & ~i)
        return 1 - 2 * (b0 & 1).astype(np.int64)
    if kind == "a":
        return 1 - 2 * (i & 1)
    if kind == "e":
        return 1 - (i & 1)
    if kind == "o":
        return i & 1
    if kind == "stilde":  # -1 iff the bit above the lowest zero bit is set
        lowest_zero = ~i & (i + 1)
        return 1 - 2 * ((i & (lowest_zero << 1)) != 0).astype(np.int64)
    if kind == "ttilde":
        return np.array([seq.t_tilde(k) for k in range(n)], dtype=np.int64)
    raise ValueError(f"unknown sign kind {kind!r}")


# entries of the (row block x columns) scratch arrays in signed_product
_BLOCK_ENTRIES = 1 << 16


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


def _accumulate(out: np.ndarray, passes: list, cols: np.ndarray) -> None:
    """out[i, j] += weight * popcount(rows[:, i] & cols[:, j]) for every
    (weight, rows) pass, where rows and cols are word-major packed bit
    vectors; done over row blocks to bound the scratch arrays."""
    words, n_j = cols.shape
    n_i = out.shape[0]
    step = max(1, min(n_i, _BLOCK_ENTRIES // max(n_j, 1)))
    both = np.empty((step, n_j), dtype=np.uint64)
    count = np.empty((step, n_j), dtype=np.uint8)
    # a sum of popcounts is at most the inner dimension
    total = np.empty((step, n_j), dtype=np.min_scalar_type(words * 64))
    for i in range(0, n_i, step):
        m = min(step, n_i - i)
        for weight, rows in passes:
            total[:m] = 0
            # words that are zero in every row of the block add nothing:
            # about half of them for a triangular operand, nearly all for a
            # diagonal one
            for w in np.flatnonzero(rows[:, i:i + m].any(axis=1)):
                np.bitwise_and(rows[w, i:i + m, None], cols[w], out=both[:m])
                np.bitwise_count(both[:m], out=count[:m])
                np.add(total[:m], count[:m], out=total[:m])
            out[i:i + m] += np.int64(weight) * total[:m]


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
    cols = _pack(bits.T)
    if w is None:
        masks = [(1, None)]
    else:
        w = np.asarray(w)
        if w.shape != (a.shape[1],) or w.dtype.kind not in "biu":
            raise ValueError(f"weights must be an integer vector of length "
                             f"{a.shape[1]}")
        if w.min(initial=0) < -1 or w.max(initial=0) > 1:
            raise ValueError("weights must lie in {-1, 0, 1}")
        # shape (words, 1): one mask word broadcast over all rows
        masks = [(sign, _pack(side[None, :])) for sign, side
                 in ((1, w > 0), (-1, w < 0)) if side.any()]
    passes = []
    for weight, plane in _planes(a):
        rows = _pack(plane)
        passes += [(weight * sign, rows if mask is None else rows & mask)
                   for sign, mask in masks]
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    _accumulate(out, passes, cols)
    return out


def _five_factor(n: int) -> np.ndarray:
    """D_s L D_a L^t D_s, exact."""
    lmat = build_tri(L, n)
    sv = sign_diag("s", n)
    core = signed_product(lmat, sign_diag("a", n), lmat.T)
    return sv[:, None] * core * sv[None, :]


def verify_thm2(n: int) -> VerifyReport:
    """D_s L D_a L^t D_s == Hankel(mu)."""
    _check_size(n, 4096)
    report = VerifyReport("thm2", n)
    report.compare(_five_factor(n), hankel_bits(MU_SHIFT0, n))
    return report


def verify_thm3(n: int) -> VerifyReport:
    """L D_a M == D_a, and the signed inverse P (D_s L D_s) == identity."""
    _check_size(n)
    report = VerifyReport("thm3", n)
    lmat = build_tri(L, n)
    mmat = build_tri(M, n)
    sv = sign_diag("s", n)
    av = sign_diag("a", n)
    report.compare(signed_product(lmat, av, mmat), np.diag(av))
    # P = D_s D_a M D_a D_s, so P (D_s L D_s) = D_s D_a M D_(a s s) L D_s
    got = (sv * av)[:, None] * signed_product(mmat, av * sv * sv, lmat)
    report.compare(got * sv[None, :], np.eye(n, dtype=np.int64))
    return report


def verify_prop_mdl(n: int) -> VerifyReport:
    """M D_e L == A + D_e and M D_o L == A + D_o."""
    _check_size(n)
    report = VerifyReport("mdl", n)
    lmat = build_tri(L, n)
    mmat = build_tri(M, n)
    a_strict = build_tri(A_STRICT, n)
    for kind in ("e", "o"):
        mask = sign_diag(kind, n)
        report.compare(signed_product(mmat, mask, lmat),
                       a_strict + np.diag(mask))
    return report


def verify_prop_ml_lm(n: int) -> VerifyReport:
    """ML entry pattern 0/1/2, LM block recursion, and both inverses."""
    _check_size(n, MAX_ML_LM_SIZE)
    report = VerifyReport("ml-lm", n)
    lmat = build_tri(L, n)
    mmat = build_tri(M, n)
    av = sign_diag("a", n)
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    report.compare(signed_product(mmat, None, lmat),
                   np.where(i < j, 0, np.where(i == j, 1, 2)))
    steps = max(0, (max(n - 1, 1)).bit_length() - 1)
    report.compare(signed_product(lmat, None, mmat),
                   babab_expand(LM_RULE, steps)[:n, :n])
    # ML D_a ML D_a == M (L D_a M) L D_a and LM D_a LM D_a == L (M D_a L) M D_a
    # as integer matrices; multiplied out so every right factor is 0/1, and
    # left . inner taken as (inner^t left^t)^t
    ident = np.eye(n, dtype=np.int64)
    for left, right in ((mmat, lmat), (lmat, mmat)):
        inner = signed_product(right, av, left)
        outer = signed_product(inner.T, None, left.T).T
        report.compare(signed_product(outer, None, right) * av[None, :],
                       ident)
    return report


def verify_thm5(n: int) -> VerifyReport:
    """Shifted-Hankel factorization, its inverses, and the interleavings."""
    _check_size(n)
    report = VerifyReport("thm5", n)
    lt = build_tri(LTILDE, n)
    mt = build_tri(MTILDE, n)
    sv = sign_diag("stilde", n)
    tv = sign_diag("ttilde", n)
    core = signed_product(lt, sv, lt.T)
    report.compare(tv[:, None] * core * tv[None, :],
                   hankel_bits(MU_SHIFT1, n))
    dstilde = np.diag(sv)
    report.compare(signed_product(lt, sv, mt), dstilde)
    report.compare(signed_product(mt, sv, lt), dstilde)
    # parity vanishing and interleaving recursions
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    odd_parity = (i - j) % 2 == 1
    report.compare(lt * odd_parity, np.zeros_like(lt))
    h = n // 2
    if h >= 1:
        lmat = build_tri(L, h)
        mmat = build_tri(M, h)
        report.compare(lt[0:2 * h:2, 0:2 * h:2], lmat)
        report.compare(mt[0:2 * h:2, 0:2 * h:2], mmat)
        report.compare(lt[1:2 * h:2, 1:2 * h:2], lt[:h, :h])
        report.compare(mt[1:2 * h:2, 1:2 * h:2], mt[:h, :h])
    return report


_CHAINS = ((L_RULE, L), (M_RULE, M), (LTILDE0_RULE, LTILDE0),
           (MTILDE0_RULE, MTILDE0))


def verify_babab(n: int) -> VerifyReport:
    """Every block-recursion chain equals its formula-built matrix.

    Each chain is grown once, to the largest power of two top <= n, and each
    formula matrix is built once, at top; the level of size 2, 4, ..., top
    compares their leading size x size blocks.
    """
    _check_size(n, MAX_BABAB_SIZE)
    report = VerifyReport("babab", n)
    if n < 2:
        return report
    top = 1 << (n.bit_length() - 1)
    steps = top.bit_length() - 2
    # formula matrices first: the int64 temporaries of build_tri set the
    # peak memory, so they should not stack on top of the chains
    wants = [build_tri(kind, top) for _, kind in _CHAINS]
    chains = [(babab_expand(rule, steps), want)
              for (rule, _), want in zip(_CHAINS, wants)]
    size = 2
    while size <= top:
        for got, want in chains:
            report.compare(got[:size, :size], want[:size, :size])
        size *= 2
    return report


def general_eps_diag(eps: list[int], n: int) -> np.ndarray:
    """Conjugating diagonal for the sign-twisted Hankel factorization.

    d_m is the product, over set bits j of m, of c_j where c_0 = eps[1]
    and c_j = eps[j] * eps[j+1] for j >= 1.
    """
    _check_size(n)
    if not eps or eps[0] != 1:
        raise ValueError("eps[0] must be +1 (negate D_a to handle -1)")
    if any(e not in (-1, 1) for e in eps):
        raise ValueError("eps entries must be +-1")
    if (1 << (len(eps) - 1)) < n:
        raise SizeGuardError("eps too short: need 2^(len(eps)-1) >= size")
    c = [eps[1] if len(eps) > 1 else 1]
    for j in range(1, len(eps) - 1):
        c.append(eps[j] * eps[j + 1])
    out = np.ones(n, dtype=np.int64)
    for m in range(1, n):
        sign = 1
        bits = m
        j = 0
        while bits:
            if bits & 1:
                sign *= c[j]
            bits >>= 1
            j += 1
        out[m] = sign
    return out


def signed_hankel(eps: list[int], n: int) -> np.ndarray:
    """Hankel matrix of the series with coefficient eps[k] at index 2^k - 1."""
    _check_size(n)
    vals = np.zeros(2 * n - 1, dtype=np.int64)
    k = 0
    while (1 << k) - 1 < 2 * n - 1:
        if k < len(eps):
            vals[(1 << k) - 1] = eps[k]
        k += 1
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return vals[i + j]


def verify_eps(eps: list[int], n: int) -> VerifyReport:
    """Conjugated factorization reproduces the sign-twisted Hankel matrix."""
    report = VerifyReport("eps", n)
    dvec = general_eps_diag(eps, n)
    got = dvec[:, None] * _five_factor(n) * dvec[None, :]
    report.compare(got, signed_hankel(eps, n))
    return report
