"""Recursively defined sign sequences and folding words.

Houses the sequence s (with s(-1) = 0), its zero-block count b0, the
power-of-two indicator mu, the shifted-Hankel signs s~ and t~, the
Jacobi coefficients d, the sign sequence of the all-variables-equal
continued fraction, and the folding words W_k / their letter stream.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .errors import InvariantError, check_range

# foldcat word --level 20, 2 * (2^20 - 1) letters: 0.3-0.5 s and 54 MB
# child peak RSS in every format on a 2-vCPU Xeon (Python 3.11)
MAX_WORD_LEVEL = 20
# fold_stream(2^64), a letter of W_64: a closed form in the 2-adic valuation
# of the pair index, under 1 us at any admitted index on a 2-vCPU Xeon
# (Python 3.11)
MAX_WORD_INDEX = 1 << 64


class FoldLetter(NamedTuple):
    var_index: int
    sign: int


def b0(n: int) -> int:
    """Number of "10" factors in the binary expansion of n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return ((n >> 1) & ~n).bit_count()


@lru_cache(maxsize=None)
def s(n: int) -> int:
    """s(-1)=0, s(0)=1, s(2i)=(-1)^i s(i), s(2i+1)=s(i)."""
    if n < -1:
        raise ValueError("n must be >= -1")
    if n == -1:
        return 0
    if n == 0:
        return 1
    i, r = divmod(n, 2)
    if r:
        return s(i)
    return s(i) if i % 2 == 0 else -s(i)


def mu(n: int) -> int:
    """1 iff n+1 is a power of two (parity of the n-th Catalan number)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return 1 if (n + 1) & n == 0 else 0


@lru_cache(maxsize=None)
def s_tilde(n: int) -> int:
    """s~(2i) = (-1)^i, s~(2i+1) = s~(i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    i, r = divmod(n, 2)
    if r:
        return s_tilde(i)
    return 1 if i % 2 == 0 else -1


@lru_cache(maxsize=None)
def t_tilde(n: int) -> int:
    """t~(0)=1, t~(2i+1)=t~(i), t~(4i)=(-1)^i t~(2i), t~(4i+2)=t~(2i)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    if n % 2:
        return t_tilde(n // 2)
    if n % 4 == 0:
        i = n // 4
        return t_tilde(n // 2) if i % 2 == 0 else -t_tilde(n // 2)
    return t_tilde(n // 2 - 1)  # n = 4i+2 recurses to index 2i


def d(n: int) -> int:
    """(s(n) - s(n-2)) / s(n-1), exact integer division; defined for n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = s(n) - s(n - 2)
    den = s(n - 1)
    if den == 0:
        raise InvariantError("s(n-1) nonzero", n - 1, "nonzero", den)
    q, r = divmod(num, den)
    if r:
        raise InvariantError("remainder of (s(n) - s(n-2)) / s(n-1)", n, 0, r)
    return q


def example1_sign(n: int) -> int:
    """Sign of the n-th numerator when every variable is set to x: the sign
    of the n-th letter of the folded word."""
    return fold_stream(n).sign


def word_length(k: int) -> int:
    return 2 * ((1 << k) - 1)


def fold_word(k: int) -> list[FoldLetter]:
    """The word W_k: W_1 = (-x1) x1, W_k = W_{k-1} xk (-xk) reverse(W_{k-1})."""
    check_range("word level", k, 1, MAX_WORD_LEVEL)
    word = [FoldLetter(1, -1), FoldLetter(1, 1)]
    for level in range(2, k + 1):
        half = len(word)
        word += [FoldLetter(level, 1), FoldLetter(level, -1)]
        word += word[half - 1::-1]
    return word


def fold_stream(n: int) -> FoldLetter:
    """The n-th letter of the infinite word, without materializing any W_k.

    The letters come in pairs: with j = ceil(n/2) = 2^a (2b + 1), pair j is
    x_(a+1) with sign (-1)^(b + [a = 0]), then the same variable with the
    opposite sign.
    """
    check_range("index", n, 1, MAX_WORD_INDEX)
    j = (n + 1) // 2
    a = (j & -j).bit_length() - 1
    b = j >> (a + 1)
    first = -1 if (b + (a == 0)) % 2 else 1
    return FoldLetter(a + 1, first if n % 2 else -first)
