"""Binomial coefficients modulo 2 and binary carry counts.

Everything here is bit arithmetic: C(n,k) mod 2 is 1 exactly when the
binary digits of k form a submask of those of n, and the 2-adic valuation
of C(a+b,a) equals the number of carries when adding a and b in base 2.
"""

from __future__ import annotations

import numpy as np

# the parity of the n-th Catalan number, 1 iff n + 1 is a power of two
from .seq import mu as catalan_is_odd  # noqa: F401


def binom_mod2(n: int, k: int) -> int:
    """C(n, k) mod 2, total in k (0 outside 0 <= k <= n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return 1 if (n & k) == k else 0


def binom_mod2_grid(n: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Vectorized binom_mod2 on integer arrays (broadcasting allowed).

    Signed integer arrays keep their dtype, so that narrow index grids
    stay narrow; anything else is taken as int64.
    """
    n = np.asarray(n)
    k = np.asarray(k)
    if n.dtype.kind != "i" or k.dtype.kind != "i":
        n, k = n.astype(np.int64), k.astype(np.int64)
    valid = (k >= 0) & (k <= n)
    return (valid & ((n & k) == k)).astype(np.int8)


def carry_count(a: int, b: int) -> int:
    """Number of carries when adding a and b in base 2.

    The carry-in bit vector of a binary addition is (a+b) ^ a ^ b, so the
    carry count is its popcount.  Equals v2(C(a+b, a)) by Kummer.
    """
    if a < 0 or b < 0:
        raise ValueError("arguments must be nonnegative")
    return ((a + b) ^ a ^ b).bit_count()
