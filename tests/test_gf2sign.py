"""0/1 triangular matrices, sign diagonals, Hankel factorizations."""

import functools
import math

import numpy as np
import pytest

from foldcat import binom2, gf2sign, seq
from foldcat.errors import SizeGuardError
from foldcat.report import VerifyReport

# the 8x8 lower-triangular matrix with entries C(2i+1, i-j) mod 2
L8 = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 0, 0, 0, 0],
    [0, 0, 0, 1, 1, 0, 0, 0],
    [0, 0, 1, 1, 1, 1, 0, 0],
    [0, 1, 1, 0, 0, 1, 1, 0],
    [1, 1, 1, 1, 1, 1, 1, 1],
]


def comb2(n, k):
    if k < 0 or k > n:
        return 0
    return math.comb(n, k) % 2


def test_l8_golden():
    assert gf2sign.build_tri(gf2sign.L, 8).tolist() == L8


def test_build_tri_entry_oracles():
    n = 16
    mats = {
        gf2sign.L: lambda i, j: comb2(2 * i + 1, i - j),
        gf2sign.M: lambda i, j: comb2(i + j, 2 * j),
        gf2sign.LTILDE: lambda i, j: comb2(2 * i + 2, i - j),
        gf2sign.MTILDE: lambda i, j: comb2(i + j + 1, 2 * j + 1),
    }
    for kind, entry in mats.items():
        mat = gf2sign.build_tri(kind, n)
        for i in range(n):
            for j in range(n):
                assert mat[i, j] == entry(i, j), (kind, i, j)


def test_last_rows_at_max_size_match_the_formulas():
    # the row blocks index in int32: 2i + 2 and i + j + 1 must not wrap
    n = gf2sign.MAX_SIZE
    formulas = {
        gf2sign.L: lambda i, j: binom2.binom_mod2(2 * i + 1, i - j),
        gf2sign.M: lambda i, j: binom2.binom_mod2(i + j, 2 * j),
        gf2sign.LTILDE: lambda i, j: binom2.binom_mod2(2 * i + 2, i - j),
        gf2sign.MTILDE: lambda i, j: binom2.binom_mod2(i + j + 1, 2 * j + 1),
    }
    for kind, entry in formulas.items():
        for transpose in (False, True):
            rows = gf2sign._tri_block(kind, n, n - 2, n, transpose)
            for r in range(2):
                for c in range(n):
                    i, j = (c, n - 2 + r) if transpose else (n - 2 + r, c)
                    assert rows[r, c] == entry(i, j), (kind, i, j)


def test_shifted_kinds_drop_first_row():
    n = 12
    for kind, base in ((gf2sign.LTILDE0, gf2sign.LTILDE),
                       (gf2sign.MTILDE0, gf2sign.MTILDE)):
        shifted = gf2sign.build_tri(kind, n)
        full = gf2sign.build_tri(base, n)
        assert not shifted[0].any()
        assert (shifted[1:] == full[:-1]).all()


def test_a_strict_is_strictly_lower_ones():
    mat = gf2sign.build_tri(gf2sign.A_STRICT, 6)
    for i in range(6):
        for j in range(6):
            assert mat[i, j] == (1 if i > j else 0)


def test_build_tri_guards():
    with pytest.raises(SizeGuardError):
        gf2sign.build_tri(gf2sign.L, 0)
    with pytest.raises(ValueError):
        gf2sign.build_tri("bogus", 4)


@pytest.mark.parametrize("builder", [gf2sign.build_tri, gf2sign.sign_diag,
                                     gf2sign.hankel_bits])
def test_unknown_name_raises_value_error(builder):
    with pytest.raises(ValueError, match=r"unknown .*'bogus'"):
        builder("bogus", 4)


def test_hankel_bits_structure():
    n = 20
    for source, shift in ((gf2sign.MU_SHIFT0, 0), (gf2sign.MU_SHIFT1, 1)):
        h = gf2sign.hankel_bits(source, n)
        for i in range(n):
            for j in range(n):
                assert h[i, j] == seq.mu(i + j + shift)
        # row 0 and the last column hold every index below 2 * 2049 - 1
        h = gf2sign.hankel_bits(source, 2049)
        vals = np.concatenate([h[0], h[1:, -1]])
        assert vals.tolist() == [seq.mu(m + shift) for m in range(4097)]


def test_sign_diag_values():
    n = 4096
    assert gf2sign.sign_diag("s", n).tolist() == [seq.s(i) for i in range(n)]
    assert gf2sign.sign_diag("a", n).tolist() == \
        [(-1) ** (i % 2) for i in range(n)]
    assert gf2sign.sign_diag("e", n).tolist() == [1 - i % 2 for i in range(n)]
    assert gf2sign.sign_diag("o", n).tolist() == [i % 2 for i in range(n)]
    assert gf2sign.sign_diag("stilde", n).tolist() == \
        [seq.s_tilde(i) for i in range(n)]
    assert gf2sign.sign_diag("ttilde", gf2sign.MAX_SIZE).tolist() == \
        [seq.t_tilde(i) for i in range(gf2sign.MAX_SIZE)]


def product_oracle(a, w, b):
    """a . diag(w) . b with numpy's int64 matmul."""
    weights = np.ones(a.shape[1], dtype=np.int64) if w is None else w
    return (np.asarray(a, dtype=np.int64) * weights[None, :]) \
        @ np.asarray(b, dtype=np.int64)


KERNEL_SIZES = [1, 2, 7, 63, 64, 65, 127, 128, 129, 200]


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_signed_product_matches_oracle(n):
    rng = np.random.default_rng(n)
    b = rng.integers(0, 2, (n, n), dtype=np.int8)
    lefts = [rng.integers(0, 2, (n, n), dtype=np.int8),
             rng.integers(-3, 4, (n, n)),
             rng.integers(-128, 128, (n, n), dtype=np.int8),
             rng.integers(0, 2, (n, n)).astype(bool)]
    weights = [None, rng.integers(-1, 2, n), rng.integers(0, 2, n)]
    for a in lefts:
        for w in weights:
            got = gf2sign.signed_product(a, w, b)
            assert got.dtype == np.int64
            assert (got == product_oracle(a, w, b)).all()


@pytest.mark.parametrize("n", KERNEL_SIZES)
def test_signed_product_extreme_operands(n):
    ones = np.ones((n, n), dtype=np.int8)
    zeros = np.zeros((n, n), dtype=np.int8)
    assert (gf2sign.signed_product(ones, None, ones) == n).all()
    minus = -np.ones(n, dtype=np.int64)
    assert (gf2sign.signed_product(ones, minus, ones) == -n).all()
    assert not gf2sign.signed_product(zeros, minus, ones).any()
    assert not gf2sign.signed_product(ones, None, zeros).any()
    assert not gf2sign.signed_product(ones, 0 * minus, ones).any()


def test_signed_product_rectangular():
    rng = np.random.default_rng(7)
    a = rng.integers(-5, 6, (3, 130))
    b = rng.integers(0, 2, (130, 70), dtype=np.int8)
    w = rng.integers(-1, 2, 130)
    assert (gf2sign.signed_product(a, w, b) == product_oracle(a, w, b)).all()
    assert gf2sign.signed_product(a[:, :0], w[:0], b[:0]).tolist() == \
        [[0] * 70] * 3
    assert gf2sign.signed_product(a[:0], w, b).shape == (0, 70)
    assert gf2sign.signed_product(a, w, b[:, :0]).shape == (3, 0)


def test_signed_product_rejects_mismatch():
    eye2 = np.eye(2, dtype=np.int8)
    with pytest.raises(ValueError):
        gf2sign.signed_product(eye2, None, np.eye(3, dtype=np.int8))
    with pytest.raises(ValueError):
        gf2sign.signed_product(eye2, np.ones(3, dtype=np.int8), eye2)
    with pytest.raises(ValueError):  # right operand not 0/1
        gf2sign.signed_product(eye2, None, 2 * eye2)
    with pytest.raises(ValueError):  # weight outside {-1, 0, 1}
        gf2sign.signed_product(eye2, np.array([1, 2]), eye2)
    with pytest.raises(ValueError):  # no floats in the product path
        gf2sign.signed_product(np.eye(2), None, eye2)


def test_signed_product_rejects_int64_overflow():
    big = np.full((1, 2), 1 << 62, dtype=np.int64)
    with pytest.raises(ValueError):
        gf2sign.signed_product(big, None, np.ones((2, 1), dtype=np.int8))


def test_flipped_entry_is_reported_where_it_lands(monkeypatch):
    # flipping L[5, 0] from 0 to 1 adds a_0 M[0] = e_0 to row 5 of L D_a M,
    # so the first identity of thm3 fails at (5, 0) alone, and the second
    # only in column 0
    monkeypatch.setattr(gf2sign, "_tri_block",
                        flip_entries({gf2sign.L: (5, 0)}, None))
    report = gf2sign.verify_thm3(16)
    assert not report.ok
    first = report.failures[0]
    assert (first.i, first.j, first.expected, first.got) == (5, 0, 0, 1)
    assert all(f.j == 0 for f in report.failures)
    assert not gf2sign.verify_prop_ml_lm(16).ok


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
def test_hankel_factorization_all_sizes(n):
    assert gf2sign.verify_thm2(n).ok


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
def test_inverse_identities_all_sizes(n):
    assert gf2sign.verify_thm3(n).ok


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
def test_mdl_patterns_all_sizes(n):
    assert gf2sign.verify_prop_mdl(n).ok


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
def test_ml_lm_patterns_all_sizes(n):
    assert gf2sign.verify_prop_ml_lm(n).ok


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
def test_shifted_factorization_all_sizes(n):
    assert gf2sign.verify_thm5(n).ok


def test_block_recursion_chains():
    assert gf2sign.verify_babab(128).ok


def test_babab_seed_and_growth():
    for rule in (gf2sign.L_RULE, gf2sign.M_RULE, gf2sign.LTILDE0_RULE,
                 gf2sign.MTILDE0_RULE, gf2sign.LM_RULE):
        assert gf2sign.babab_expand(rule, 0).shape == (2, 2)
        assert gf2sign.babab_expand(rule, 3).shape == (16, 16)
    with pytest.raises(SizeGuardError):
        gf2sign.babab_expand(gf2sign.L_RULE, gf2sign.MAX_BLOCK_STEPS + 1)
    with pytest.raises(ValueError):
        gf2sign.babab_expand("bogus", 1)


def test_ml_lm_guard_precedes_products(monkeypatch):
    def no_build(*args):
        raise AssertionError("built a matrix before the size guard")

    monkeypatch.setattr(gf2sign, "build_tri", no_build)
    monkeypatch.setattr(gf2sign, "_tri_block", no_build)
    with pytest.raises(SizeGuardError, match="8192"):
        gf2sign.verify_prop_ml_lm(8193)


def test_babab_guard_names_real_limit_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("built a matrix before the size guard")

    monkeypatch.setattr(gf2sign, "babab_expand", no_work)
    monkeypatch.setattr(gf2sign, "build_tri", no_work)
    limit = gf2sign.MAX_BABAB_SIZE
    assert limit == (4 << gf2sign.MAX_BLOCK_STEPS) - 1
    for n in (0, limit + 1, gf2sign.MAX_SIZE):
        with pytest.raises(SizeGuardError, match=rf"\[1, {limit}\]"):
            gf2sign.verify_babab(n)


def test_babab_largest_size_needs_only_admitted_steps(monkeypatch):
    # the largest admitted size asks for MAX_BLOCK_STEPS doublings and builds
    # the formula matrices at the top level alone, one chain at a time;
    # stubs stand in for the 8192 x 8192 matrices
    built, grown = [], []
    monkeypatch.setattr(gf2sign, "build_tri",
                        lambda kind, n: built.append((kind, n)))

    def expand(rule, steps):
        grown.append((rule, steps))
        raise RuntimeError("stop")

    monkeypatch.setattr(gf2sign, "babab_expand", expand)
    with pytest.raises(RuntimeError, match="stop"):
        gf2sign.verify_babab(gf2sign.MAX_BABAB_SIZE)
    assert built == [(gf2sign.L, 8192)]
    assert grown == [(gf2sign.L_RULE, gf2sign.MAX_BLOCK_STEPS)]


# The block-doubling chain and the per-level verifier as they were before the
# chains grew in one buffer: every np.block step in int64, every level
# rebuilt from the seed.  Kept as the reference the new code must match.
@functools.lru_cache(maxsize=None)
def block_oracle_expand(rule, steps):
    cur = np.array(gf2sign._SEEDS[rule], dtype=np.int64)
    for _ in range(steps):
        h = cur.shape[0] // 2
        a, b = cur[:h, :h], cur[h:, :h]
        z = np.zeros_like(a)
        if rule in (gf2sign.L_RULE, gf2sign.LTILDE0_RULE):
            cur = np.block([[a, z, z, z], [b, a, z, z],
                            [z, b, a, z], [b, a, b, a]])
        elif rule in (gf2sign.M_RULE, gf2sign.MTILDE0_RULE):
            cur = np.block([[a, z, z, z], [b, a, z, z],
                            [a, b, a, z], [b, z, b, a]])
        else:
            cur = np.block([[a, z, z, z], [b, a, z, z],
                            [2 * a, b, a, z], [2 * b, 2 * a, b, a]])
    return cur


def per_level_oracle_babab(n):
    report = VerifyReport("babab", n)
    size, steps = 2, 0
    while size <= n:
        for rule, kind in gf2sign._CHAINS:
            report.compare(block_oracle_expand(rule, steps),
                           gf2sign.build_tri(kind, size))
        size *= 2
        steps += 1
    return report


ALL_RULES = (gf2sign.L_RULE, gf2sign.M_RULE, gf2sign.LTILDE0_RULE,
             gf2sign.MTILDE0_RULE, gf2sign.LM_RULE)


def test_babab_expand_matches_block_oracle():
    for rule in ALL_RULES:
        for steps in range(10):
            got = gf2sign.babab_expand(rule, steps)
            want = block_oracle_expand(rule, steps)
            assert got.shape == want.shape and (got == want).all(), \
                (rule, steps)
            # LM holds 2^(steps+1), which needs int16 from steps = 6 on
            wide = rule == gf2sign.LM_RULE and steps >= 6
            assert got.dtype == (np.int16 if wide else np.int8)


def flip_entries(entries, sizes):
    """A row-block builder (gf2sign._tri_block) that flips entries[kind] of
    each given kind in the matrices of the given sizes (None: every size),
    in the rows it is asked for and in the transposed rows alike, so that
    build_tri and the packed operands both see the flip."""
    block = gf2sign._tri_block

    def faulty(kind, n, start, stop, transpose=False):
        rows = block(kind, n, start, stop, transpose)
        if kind in entries and max(entries[kind]) < n and \
                (sizes is None or n in sizes):
            i, j = entries[kind][::-1] if transpose else entries[kind]
            if start <= i < stop:
                rows[i - start, j] ^= 1
        return rows
    return faulty


FLIPS = {
    "none": ({}, None),
    "every size": ({gf2sign.L: (5, 2)}, None),
    "size 8": ({gf2sign.L: (5, 2)}, {8}),
    # failures in two chains show the order of levels and rules
    "L and M, every size": ({gf2sign.L: (5, 2), gf2sign.M: (6, 3)}, None),
}


@pytest.mark.parametrize("flip", FLIPS)
def test_babab_reports_match_oracle(monkeypatch, flip):
    monkeypatch.setattr(gf2sign, "_tri_block", flip_entries(*FLIPS[flip]))
    for n in range(1, 301):
        want = per_level_oracle_babab(n).as_dict()
        got = gf2sign.verify_babab(n).as_dict()
        if flip == "size 8" and n >= 16:
            # the chains are compared with formula matrices built at the top
            # level alone, so a build that disagrees with itself at size 8
            # is seen only while the top level is 8
            assert got == VerifyReport("babab", n).as_dict()
            assert [(f["i"], f["j"]) for f in want["failures"]] == [(5, 2)]
        else:
            assert got == want, n
    if flip == "every size":  # one failure at each level 8, 16, 32, 64
        failures = gf2sign.verify_babab(64).failures
        assert [(f.i, f.j, f.expected, f.got) for f in failures] == \
            [(5, 2, 0, 1)] * 4


# every size in the clean case; under a flip, every size to 64 and the
# sizes around the larger powers of two
@pytest.mark.parametrize("flip, sizes", [
    ("none", range(1, 301)),
    ("every size", [*range(1, 65), 100, 127, 128, 129, 255, 256, 257, 300]),
    ("size 8", range(1, 17)),
])
def test_ml_lm_reports_match_oracle(monkeypatch, flip, sizes):
    # the streamed verifier against the dense one with the np.block chain
    monkeypatch.setattr(gf2sign, "_tri_block", flip_entries(*FLIPS[flip]))
    expand = gf2sign.babab_expand
    for n in sizes:
        got = gf2sign.verify_prop_ml_lm(n).as_dict()
        monkeypatch.setattr(gf2sign, "babab_expand", block_oracle_expand)
        assert got == dense_ml_lm(n).as_dict(), n
        monkeypatch.setattr(gf2sign, "babab_expand", expand)


@pytest.mark.parametrize("rule", ALL_RULES)
def test_swapped_layout_quadrant_is_caught(monkeypatch, rule):
    # the four blocks that the layout table sets, swapped in pairs
    (b00, b01), (b10, b11) = gf2sign._LOWER_LEFT[rule]
    for mutated in (((b01, b00), (b10, b11)), ((b00, b01), (b11, b10)),
                    ((b10, b01), (b00, b11))):
        if mutated == gf2sign._LOWER_LEFT[rule]:
            continue
        monkeypatch.setitem(gf2sign._LOWER_LEFT, rule, mutated)
        assert not (gf2sign.babab_expand(rule, 3)
                    == block_oracle_expand(rule, 3)).all(), mutated
        if rule == gf2sign.LM_RULE:
            assert not gf2sign.verify_prop_ml_lm(16).ok
        else:
            assert not gf2sign.verify_babab(16).ok


def test_lm_block_recursion_matches_product():
    for steps in range(6):
        n = 2 << steps
        lmat = gf2sign.build_tri(gf2sign.L, n).astype(np.int64)
        mmat = gf2sign.build_tri(gf2sign.M, n).astype(np.int64)
        assert (gf2sign.babab_expand(gf2sign.LM_RULE, steps)
                == lmat @ mmat).all()


def test_eps_diag_trivial_vector_gives_mu_case():
    eps = [1] * 8
    n = 64
    assert gf2sign.general_eps_diag(eps, n).tolist() == [1] * n
    assert (gf2sign.signed_hankel(eps, n)
            == gf2sign.hankel_bits(gf2sign.MU_SHIFT0, n)).all()
    assert gf2sign.verify_eps(eps, n).ok


def test_eps_diag_antidiagonal_telescoping():
    # on the antidiagonal i + j = 2^k - 1 the diagonal product is eps[k]
    eps = [1, -1, 1, -1, -1, 1, 1]
    n = 32
    dvec = gf2sign.general_eps_diag(eps, n)
    for k in range(1, 6):
        target = (1 << k) - 1
        for i in range(min(n, target + 1)):
            j = target - i
            if j < n:
                assert dvec[i] * dvec[j] == eps[k]


@pytest.mark.parametrize("eps", [
    [1, -1], [1, -1, 1], [1, 1, -1, -1], [1, -1, -1, 1, -1],
    [1, 1, 1, -1, 1, -1], [1, -1, 1, 1, -1, 1, -1],
])
def test_eps_twisted_factorization(eps):
    n = min(64, 1 << (len(eps) - 1))
    assert gf2sign.verify_eps(eps, n).ok


def eps_diag_oracle(eps, n):
    """general_eps_diag as a loop over the bits of each m."""
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


def test_eps_diag_matches_bit_loop():
    rng = np.random.default_rng(8)
    for n in range(1, 301):
        shortest = (n - 1).bit_length() + 1  # 2^(len - 1) >= n
        for length in (shortest, shortest + 1, shortest + 4, 80):
            eps = [1] + rng.choice([-1, 1], length - 1).tolist()
            got = gf2sign.general_eps_diag(eps, n)
            assert got.dtype == np.int64
            assert got.tolist() == eps_diag_oracle(eps, n).tolist(), eps


def test_eps_diag_input_validation():
    with pytest.raises(ValueError):
        gf2sign.general_eps_diag([-1, 1], 1)
    with pytest.raises(ValueError):
        gf2sign.general_eps_diag([1, 2], 1)
    with pytest.raises(SizeGuardError):
        gf2sign.general_eps_diag([1, 1], 16)


def test_eps_guard_names_length_cover_and_size():
    with pytest.raises(SizeGuardError) as info:
        gf2sign.general_eps_diag([1, 1], 3)
    assert str(info.value) == "eps of length 2 covers sizes up to 2, got size 3"


# The product verifiers as they were before they streamed: dense int8
# operands from build_tri, dense int64 products from signed_product and
# dense expected matrices.  Kept as the reference the streamed verifiers
# must match, report for report.
def dense_five_factor(n):
    lmat = gf2sign.build_tri(gf2sign.L, n)
    sv = gf2sign.sign_diag("s", n)
    core = gf2sign.signed_product(lmat, gf2sign.sign_diag("a", n), lmat.T)
    return sv[:, None] * core * sv[None, :]


def dense_thm2(n):
    report = VerifyReport("thm2", n)
    report.compare(dense_five_factor(n),
                   gf2sign.hankel_bits(gf2sign.MU_SHIFT0, n))
    return report


def dense_thm3(n):
    report = VerifyReport("thm3", n)
    lmat = gf2sign.build_tri(gf2sign.L, n)
    mmat = gf2sign.build_tri(gf2sign.M, n)
    sv = gf2sign.sign_diag("s", n)
    av = gf2sign.sign_diag("a", n)
    report.compare(gf2sign.signed_product(lmat, av, mmat), np.diag(av))
    got = (sv * av)[:, None] * gf2sign.signed_product(mmat, av * sv * sv,
                                                      lmat)
    report.compare(got * sv[None, :], np.eye(n, dtype=np.int64))
    return report


def dense_mdl(n):
    report = VerifyReport("mdl", n)
    lmat = gf2sign.build_tri(gf2sign.L, n)
    mmat = gf2sign.build_tri(gf2sign.M, n)
    a_strict = gf2sign.build_tri(gf2sign.A_STRICT, n)
    for kind in ("e", "o"):
        mask = gf2sign.sign_diag(kind, n)
        report.compare(gf2sign.signed_product(mmat, mask, lmat),
                       a_strict + np.diag(mask))
    return report


def dense_ml_lm(n):
    report = VerifyReport("ml-lm", n)
    lmat = gf2sign.build_tri(gf2sign.L, n)
    mmat = gf2sign.build_tri(gf2sign.M, n)
    av = gf2sign.sign_diag("a", n)
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    report.compare(gf2sign.signed_product(mmat, None, lmat),
                   np.where(i < j, 0, np.where(i == j, 1, 2)))
    steps = max(0, (max(n - 1, 1)).bit_length() - 1)
    report.compare(gf2sign.signed_product(lmat, None, mmat),
                   gf2sign.babab_expand(gf2sign.LM_RULE, steps)[:n, :n])
    ident = np.eye(n, dtype=np.int64)
    for left, right in ((mmat, lmat), (lmat, mmat)):
        inner = gf2sign.signed_product(right, av, left)
        outer = gf2sign.signed_product(inner.T, None, left.T).T
        report.compare(gf2sign.signed_product(outer, None, right)
                       * av[None, :], ident)
    return report


def dense_thm5(n):
    report = VerifyReport("thm5", n)
    lt = gf2sign.build_tri(gf2sign.LTILDE, n)
    mt = gf2sign.build_tri(gf2sign.MTILDE, n)
    sv = gf2sign.sign_diag("stilde", n)
    tv = gf2sign.sign_diag("ttilde", n)
    core = gf2sign.signed_product(lt, sv, lt.T)
    report.compare(tv[:, None] * core * tv[None, :],
                   gf2sign.hankel_bits(gf2sign.MU_SHIFT1, n))
    dstilde = np.diag(sv)
    report.compare(gf2sign.signed_product(lt, sv, mt), dstilde)
    report.compare(gf2sign.signed_product(mt, sv, lt), dstilde)
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    report.compare(lt * ((i - j) % 2 == 1), np.zeros_like(lt))
    h = n // 2
    if h >= 1:
        lmat = gf2sign.build_tri(gf2sign.L, h)
        mmat = gf2sign.build_tri(gf2sign.M, h)
        report.compare(lt[0:2 * h:2, 0:2 * h:2], lmat)
        report.compare(mt[0:2 * h:2, 0:2 * h:2], mmat)
        report.compare(lt[1:2 * h:2, 1:2 * h:2], lt[:h, :h])
        report.compare(mt[1:2 * h:2, 1:2 * h:2], mt[:h, :h])
    return report


def dense_eps(eps, n):
    report = VerifyReport("eps", n)
    dvec = gf2sign.general_eps_diag(eps, n)
    got = dvec[:, None] * dense_five_factor(n) * dvec[None, :]
    report.compare(got, gf2sign.signed_hankel(eps, n))
    return report


def eps_draws(n, count):
    """count eps words long enough for size n, drawn from a seed fixed by n."""
    rng = np.random.default_rng(n)
    return [[1] + rng.choice([-1, 1], n.bit_length()).tolist()
            for _ in range(count)]


# (streamed verifier, dense oracle, the kinds it reads)
STREAMED = {
    "thm2": (gf2sign.verify_thm2, dense_thm2, {gf2sign.L}),
    "thm3": (gf2sign.verify_thm3, dense_thm3, {gf2sign.L, gf2sign.M}),
    "mdl": (gf2sign.verify_prop_mdl, dense_mdl, {gf2sign.L, gf2sign.M}),
    "ml-lm": (gf2sign.verify_prop_ml_lm, dense_ml_lm,
              {gf2sign.L, gf2sign.M}),
    "thm5": (gf2sign.verify_thm5, dense_thm5,
             {gf2sign.L, gf2sign.M, gf2sign.LTILDE, gf2sign.MTILDE}),
    "eps": (None, None, {gf2sign.L}),
}
ENTRY_FLIPS = {gf2sign.L: (5, 2), gf2sign.M: (6, 3),
               gf2sign.LTILDE: (9, 4), gf2sign.MTILDE: (7, 1)}


def assert_streamed_matches_dense(name, sizes, eps_count=3):
    verify, dense, _ = STREAMED[name]
    for n in sizes:
        if name == "eps":
            for eps in eps_draws(n, eps_count):
                assert gf2sign.verify_eps(eps, n).as_dict() == \
                    dense_eps(eps, n).as_dict(), (n, eps)
        else:
            assert verify(n).as_dict() == dense(n).as_dict(), (name, n)


BIG_SIZES = [511, 512, 513, 767, 768, 769, 1023, 1024, 1025]


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_reports_match_dense_clean(name):
    assert_streamed_matches_dense(name, [*range(1, 301), *BIG_SIZES])


# products a passing run forms: none where a certificate covers every
# statement, and ml-lm's 0/1/2 pattern and LM chain, which have none
PASSING_PRODUCTS = {"thm2": 0, "thm3": 0, "thm5": 0, "eps": 0, "ml-lm": 2}


@pytest.mark.parametrize("name", PASSING_PRODUCTS)
def test_passing_runs_form_only_uncertified_products(monkeypatch, name):
    calls = []
    accumulate = gf2sign._accumulate

    def counted(*args):
        calls.append(args)
        return accumulate(*args)
    monkeypatch.setattr(gf2sign, "_accumulate", counted)
    for n in [*range(1, 301), *BIG_SIZES]:
        calls.clear()
        if name == "eps":
            for eps in eps_draws(n, 3):
                assert gf2sign.verify_eps(eps, n).ok, (n, eps)
        else:
            assert STREAMED[name][0](n).ok, (name, n)
        assert len(calls) == PASSING_PRODUCTS[name], (name, n)


def random_flips(count, seed):
    """count (kind, n, i, j): a kind of ENTRY_FLIPS, a size in 2..96 and one
    entry anywhere in the n x n square, above the diagonal too."""
    rng = np.random.default_rng(seed)
    flips = []
    for _ in range(count):
        kind = str(rng.choice(list(ENTRY_FLIPS)))
        n = int(rng.integers(2, 97))
        i, j = rng.integers(0, n, 2)
        flips.append((kind, n, int(i), int(j)))
    return flips


@pytest.mark.parametrize("kind, n, i, j", random_flips(48, 2323))
def test_random_flip_reports_match_dense(monkeypatch, kind, n, i, j):
    monkeypatch.setattr(gf2sign, "_tri_block",
                        flip_entries({kind: (i, j)}, None))
    for name, (_, _, kinds) in STREAMED.items():
        if kind in kinds:
            assert_streamed_matches_dense(name, [n], eps_count=1)


@pytest.mark.parametrize("kind", ENTRY_FLIPS)
def test_zero_matrix_reports_match_dense(monkeypatch, kind):
    # a zero F or V obeys every row recursion: only the checks of row 0
    # reject it
    block = gf2sign._tri_block

    def zeroed(k, n, start, stop, transpose=False):
        rows = block(k, n, start, stop, transpose)
        return np.zeros_like(rows) if k == kind else rows
    monkeypatch.setattr(gf2sign, "_tri_block", zeroed)
    for name, (_, _, kinds) in STREAMED.items():
        if kind in kinds:
            assert_streamed_matches_dense(name, [1, 2, 7, 64], eps_count=1)


@pytest.mark.parametrize("sign", ["a", "s", "stilde", "ttilde"])
def test_negated_sign_reports_match_dense(monkeypatch, sign):
    # a pivot of the wrong sign leaves F's rows intact; J D_p is then not
    # symmetric, and G not Hankel
    diag = gf2sign.sign_diag
    for n in (2, 7, 64, 95):
        for k in np.random.default_rng(n).integers(0, n, 3):
            def negated(kind, size, k=int(k)):
                out = diag(kind, size)
                if kind == sign:
                    out[k] = -out[k]
                return out
            monkeypatch.setattr(gf2sign, "sign_diag", negated)
            for name in STREAMED:
                assert_streamed_matches_dense(name, [n], eps_count=1)
            monkeypatch.undo()


def flip_antidiagonal(hankel, m):
    """A Hankel row builder (hankel_bits or signed_hankel) whose value on
    the antidiagonal i + j = m is v -> 1 - v."""
    def faulty(source, n, start=0, stop=None):
        rows = hankel(source, n, start, stop).copy()
        i = np.arange(start, start + len(rows))[:, None]
        on = i + np.arange(n)[None, :] == m
        rows[on] = 1 - rows[on]
        return rows
    return faulty


@pytest.mark.parametrize("n", [1, 2, 5, 33, 64, 95])
def test_wrong_hankel_target_is_caught(monkeypatch, n):
    rng = np.random.default_rng(n)
    for m in rng.integers(0, 2 * n - 1, 3):
        for name in ("hankel_bits", "signed_hankel"):
            monkeypatch.setattr(gf2sign, name, flip_antidiagonal(
                getattr(gf2sign, name), int(m)))
        for name in ("thm2", "thm5", "eps"):
            assert_streamed_matches_dense(name, [n], eps_count=1)
        assert not gf2sign.verify_thm2(n).ok
        assert not gf2sign.verify_thm5(n).ok
        assert not gf2sign.verify_eps(eps_draws(n, 1)[0], n).ok
        monkeypatch.undo()


# each flipped kind against every verifier that reads it; every size to 300
# is covered by the clean runs, the flips take every size to 80 and the
# sizes around the larger powers of two
FLIP_SIZES = [*range(1, 81), 127, 128, 129, 255, 256, 257, 300]


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in STREAMED for kind in ENTRY_FLIPS
    if kind in STREAMED[name][2]])
def test_streamed_reports_match_dense_flipped(monkeypatch, name, kind):
    monkeypatch.setattr(gf2sign, "_tri_block",
                        flip_entries({kind: ENTRY_FLIPS[kind]}, None))
    sizes = FLIP_SIZES + (BIG_SIZES[:3] if name != "ml-lm" else [])
    assert_streamed_matches_dense(name, sizes, eps_count=1)
    if name == "eps":  # the flip is seen
        assert not gf2sign.verify_eps(eps_draws(64, 1)[0], 64).ok
    else:
        assert not STREAMED[name][0](64).ok


@pytest.mark.parametrize("rows", [1, 63, 64, 65])
def test_streamed_reports_match_dense_in_small_blocks(monkeypatch, rows):
    sizes = [1, 2, 3, 63, 64, 65, 66, 127, 128, 130, 200]
    monkeypatch.setattr(gf2sign, "_tri_block", flip_entries(
        {gf2sign.L: (5, 2), gf2sign.M: (6, 3), gf2sign.LTILDE: (9, 4),
         gf2sign.MTILDE0: (7, 1)}, None))
    for n in sizes:
        # products and operands hold rows x n entries per block
        monkeypatch.setattr(gf2sign, "_BLOCK_ENTRIES", rows * n)
        for name in STREAMED:
            assert_streamed_matches_dense(name, [n], eps_count=1)
        assert gf2sign.verify_babab(n).as_dict() == \
            per_level_oracle_babab(n).as_dict(), n


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 200])
def test_column_trim_with_empty_word_spans(n):
    # right operands where whole words of a column, or all of it, are zero
    rng = np.random.default_rng(n)
    k = np.arange(n)
    rights = {
        "diagonal": np.eye(n, dtype=np.int8),
        "upper": (k[:, None] <= k[None, :]).astype(np.int8),
        "lower": (k[:, None] >= k[None, :]).astype(np.int8),
        "empty": np.zeros((n, n), dtype=np.int8),
        "random upper": np.triu(rng.integers(0, 2, (n, n), dtype=np.int8)),
        "one column": np.zeros((n, n), dtype=np.int8),
    }
    rights["one column"][n // 2:, n // 3] = 1
    lefts = [rng.integers(0, 2, (n, n), dtype=np.int8),
             rng.integers(-3, 4, (n, n)),
             np.tril(rng.integers(0, 2, (n, n), dtype=np.int8))]
    for label, b in rights.items():
        for a in lefts:
            for w in (None, rng.integers(-1, 2, n)):
                assert (gf2sign.signed_product(a, w, b)
                        == product_oracle(a, w, b)).all(), label
