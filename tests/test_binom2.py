"""Bitwise binomial arithmetic against big-integer oracles."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from foldcat import seq
from foldcat.binom2 import (binom_mod2, binom_mod2_grid, carry_count,
                            catalan_is_odd)


def v2(x: int) -> int:
    return (x & -x).bit_length() - 1


def test_binom_mod2_exhaustive_small():
    for n in range(64):
        for k in range(64):
            want = math.comb(n, k) % 2 if k <= n else 0
            assert binom_mod2(n, k) == want


def test_binom_mod2_out_of_range_is_zero():
    assert binom_mod2(5, -1) == 0
    assert binom_mod2(5, 6) == 0
    with pytest.raises(ValueError):
        binom_mod2(-1, 0)


def test_grid_matches_scalar():
    n = np.arange(48)[:, None]
    k = np.arange(48)[None, :]
    grid = binom_mod2_grid(n, k)
    for i in range(48):
        for j in range(48):
            assert grid[i, j] == binom_mod2(i, j)


def test_grid_handles_negative_k():
    i = np.arange(6)[:, None]
    j = np.arange(6)[None, :]
    grid = binom_mod2_grid(2 * i + 1, i - j)
    for a in range(6):
        for b in range(6):
            assert grid[a, b] == binom_mod2(2 * a + 1, a - b)


def test_grid_keeps_narrow_signed_dtypes_and_widens_the_rest():
    i = np.arange(0, 40000, 331, dtype=np.int32)[:, None]
    j = np.arange(0, 40000, 467, dtype=np.int32)[None, :]
    narrow = binom_mod2_grid(i + j + 1, 2 * j + 1)
    wide = binom_mod2_grid((i + j + 1).astype(np.int64),
                           (2 * j + 1).astype(np.int64))
    assert narrow.dtype == wide.dtype == np.int8
    assert (narrow == wide).all() and narrow.any()
    # python ints past int32 are taken as int64
    assert binom_mod2_grid([(1 << 40) + 5, (1 << 33) - 1],
                           [5, 1 << 32]).tolist() == [1, 1]
    assert binom_mod2_grid(np.array([6], dtype=np.uint8), [2]).tolist() == [1]


@given(st.integers(0, 1 << 20), st.integers(0, 1 << 20))
def test_pascal_rule_mod2(n, k):
    lhs = binom_mod2(n + 1, k)
    rhs = binom_mod2(n, k) ^ binom_mod2(n, k - 1)
    assert lhs == rhs


@given(st.integers(0, 1 << 20), st.integers(0, 1 << 20))
def test_digit_splitting(n, k):
    # C(2n, 2k), C(2n+1, 2k), C(2n+1, 2k+1) all reduce to C(n, k) mod 2,
    # and C(2n, 2k+1) is even.
    base = binom_mod2(n, k)
    assert binom_mod2(2 * n, 2 * k) == base
    assert binom_mod2(2 * n + 1, 2 * k) == base
    assert binom_mod2(2 * n + 1, 2 * k + 1) == base
    assert binom_mod2(2 * n, 2 * k + 1) == 0


def test_carry_count_small_oracle():
    for a in range(40):
        for b in range(40):
            if a == b == 0:
                assert carry_count(a, b) == 0
                continue
            assert carry_count(a, b) == v2(math.comb(a + b, a))


@settings(deadline=None)
@given(st.integers(0, 1 << 12), st.integers(0, 1 << 12))
def test_carry_count_kummer(a, b):
    want = v2(math.comb(a + b, a)) if a + b else 0
    assert carry_count(a, b) == want


def test_carry_count_rejects_negative():
    with pytest.raises(ValueError):
        carry_count(-1, 1)


def test_catalan_parity_is_mu():
    # one definition: the Catalan parity is the power-of-two indicator
    assert catalan_is_odd is seq.mu


def test_catalan_parity_oracle():
    for n in range(400):
        cat = math.comb(2 * n, n) // (n + 1)
        assert catalan_is_odd(n) == cat % 2


def test_catalan_parity_random_large():
    rng = random.Random(4242)
    for _ in range(50):
        n = rng.randrange(1 << 12)
        cat = math.comb(2 * n, n) // (n + 1)
        assert catalan_is_odd(n) == cat % 2
