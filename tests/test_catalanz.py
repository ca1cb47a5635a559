"""Exact integer Catalan matrices, triangle, and nilpotent exp/log."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from foldcat import binom2, catalanz, gf2sign, seq
from foldcat.errors import InvariantError, SizeGuardError


def test_catalan_values():
    assert [catalanz.catalan(n) for n in range(10)] == \
        [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]
    for n in range(0, 200, 17):
        assert catalanz.catalan(n) == math.comb(2 * n, n) - math.comb(2 * n, n + 1)


def test_catalan_guard():
    with pytest.raises(SizeGuardError):
        catalanz.catalan(-1)
    with pytest.raises(SizeGuardError):
        catalanz.catalan(catalanz.MAX_CATALAN_INDEX + 1)


def test_matrix_entry_oracles():
    n = 12
    c = lambda a, b: math.comb(a, b) if 0 <= b <= a else 0
    oracles = {
        catalanz.LZ: lambda i, j: c(2 * i, i - j) - c(2 * i, i - j - 1),
        catalanz.LTILDEZ:
            lambda i, j: c(2 * i + 1, i - j) - c(2 * i + 1, i - j - 1),
        catalanz.MZ: lambda i, j: c(i + j, 2 * j),
        catalanz.MTILDEZ: lambda i, j: c(i + j + 1, 2 * j + 1),
        catalanz.H_CAT: lambda i, j: catalanz.catalan(i + j),
        catalanz.H_CAT_SHIFT: lambda i, j: catalanz.catalan(i + j + 1),
    }
    for kind, entry in oracles.items():
        mat = catalanz.build_catalan_matrix(kind, n)
        for i in range(n):
            for j in range(n):
                assert mat[i, j] == entry(i, j), (kind, i, j)


def test_triangle_against_ballot_recursion():
    tri = catalanz.catalan_triangle(20)
    lmat = catalanz.build_catalan_matrix(catalanz.LZ, 10)
    lt = catalanz.build_catalan_matrix(catalanz.LTILDEZ, 10)
    for r in range(10):
        assert tri[2 * r] == [lmat[r, j] for j in range(r + 1)]
    for r in range(9):
        assert tri[2 * r + 1] == [lt[r, j] for j in range(r + 1)]


def test_triangle_first_rows():
    assert catalanz.catalan_triangle(6) == \
        [[1], [1], [1, 1], [2, 1], [2, 3, 1], [5, 4, 1]]


def test_triangle_entries_are_neighbour_sums():
    # row r holds the entries at columns c = r mod 2, r mod 2 + 2, ..., r;
    # each is its upper-left plus its upper-right neighbour, 0 off the row
    tri = catalanz.catalan_triangle(300)
    assert len(tri) == 300 and tri[0] == [1]
    entry = {(r, r % 2 + 2 * j): v
             for r, row in enumerate(tri) for j, v in enumerate(row)}
    for r, row in enumerate(tri[1:], start=1):
        assert len(row) == r // 2 + 1, r
        for j, v in enumerate(row):
            c = r % 2 + 2 * j
            assert v == (entry.get((r - 1, c - 1), 0)
                         + entry.get((r - 1, c + 1), 0)), (r, c)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
def test_hankel_factorizations(n):
    assert catalanz.verify_catalan_lu(n).ok


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 32])
def test_product_exponentials(n):
    assert catalanz.verify_exp_products(n).ok


def test_log_stripes_flagged_as_conjecture():
    report = catalanz.check_log_conjecture(16)
    assert report.ok
    assert report.conjecture
    assert report.as_dict().get("conjecture") is True


def random_strictly_lower(rng, n, lo=-9, hi=9):
    mat = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(i):
            mat[i, j] = rng.randint(lo, hi)
    return mat


def test_exp_log_round_trip_integer_matrices():
    rng = random.Random(20260826)
    for n in (1, 2, 3, 5, 8, 12, 16):
        g = random_strictly_lower(rng, n)
        u = catalanz.nilpotent_exp(g)
        back = catalanz.nilpotent_log(u)
        for i in range(n):
            for j in range(n):
                assert back[i, j] == g[i, j]
        # exp is unipotent lower-triangular
        for i in range(n):
            assert u[i, i] == 1
            for j in range(i + 1, n):
                assert u[i, j] == 0


def test_log_exp_round_trip_unipotent_matrices():
    rng = random.Random(7)
    for n in (2, 4, 9, 14):
        u = random_strictly_lower(rng, n) + catalanz._identity(n)
        g = catalanz.nilpotent_log(u)
        back = catalanz.nilpotent_exp(g)
        for i in range(n):
            for j in range(n):
                assert back[i, j] == u[i, j]


def test_exp_log_fraction_entries():
    g = np.zeros((4, 4), dtype=object)
    g[1, 0] = Fraction(1, 2)
    g[2, 1] = Fraction(-3, 5)
    g[3, 0] = Fraction(7, 3)
    u = catalanz.nilpotent_exp(g)
    back = catalanz.nilpotent_log(u)
    for i in range(4):
        for j in range(4):
            assert back[i, j] == g[i, j]


def test_exp_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        catalanz.nilpotent_exp(catalanz._identity(3))
    with pytest.raises(ValueError):
        catalanz.nilpotent_log(catalanz.subdiag_matrix([1, 1], 3))


def test_exp_of_known_subdiagonal():
    # exp of the subdiagonal (1, 2, 3, ...) has entries C(i, j) scaled
    n = 6
    g = catalanz.subdiag_matrix(list(range(1, n)), n)
    u = catalanz.nilpotent_exp(g)
    for i in range(n):
        for j in range(i + 1):
            want = Fraction(math.comb(i, j))
            assert u[i, j] == want


def test_gf_mod2_matches_parity():
    order = 1024
    bits = catalanz.catalan_gf_mod2(order)
    for n in range(order):
        assert bits[n] == seq.mu(n)
    for n in range(0, order, 37):
        assert bits[n] == catalanz.catalan(n) % 2


@pytest.mark.parametrize("order", [1, 2, 63, 64, 65, 1000, 65536])
def test_gf_mod2_equals_catalan_is_odd(order):
    bits = catalanz.catalan_gf_mod2(order)
    assert bits == [binom2.catalan_is_odd(n) for n in range(order)]


def test_gf_mod2_guard():
    with pytest.raises(SizeGuardError):
        catalanz.catalan_gf_mod2(0)
    with pytest.raises(SizeGuardError):
        catalanz.catalan_gf_mod2(catalanz.MAX_GF_ORDER + 1)


def test_matrix_size_guard():
    with pytest.raises(SizeGuardError):
        catalanz.build_catalan_matrix(catalanz.LZ,
                                      catalanz.MAX_CATALAN_LU_SIZE + 1)
    with pytest.raises(ValueError):
        catalanz.build_catalan_matrix("bogus", 4)


def test_mod2_reduction_matches_bit_matrices():
    n = 32
    pairs = [
        (catalanz.LZ, gf2sign.L), (catalanz.MZ, gf2sign.M),
        (catalanz.LTILDEZ, gf2sign.LTILDE), (catalanz.MTILDEZ, gf2sign.MTILDE),
    ]
    for big_kind, bit_kind in pairs:
        big = catalanz.build_catalan_matrix(big_kind, n)
        bits = gf2sign.build_tri(bit_kind, n)
        for i in range(n):
            for j in range(n):
                assert big[i, j] % 2 == bits[i, j], (big_kind, i, j)


# ---------------------------------------------------------------------------
# the term-by-term series that the Paterson-Stockmeyer kernel replaced, kept
# as oracles: n - 1 full object-array products, one power at a time

def _obj(entry_fn, n):
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            out[i, j] = entry_fn(i, j)
    return out


def _all_int(mat):
    return all(isinstance(v, int) for v in mat.flat)


def series_exp(g):
    n = g.shape[0]
    if _all_int(g):
        f = math.factorial(max(n - 1, 1))
        term = _obj(lambda i, j: f if i == j else 0, n)
        acc = term.copy()
        for k in range(1, n):
            term = (term @ g) // k
            acc = acc + term
        return _obj(lambda i, j: Fraction(int(acc[i, j]), f), n)
    acc = _obj(lambda i, j: Fraction(1 if i == j else 0), n)
    term = acc.copy()
    for k in range(1, n):
        term = (term @ g) * Fraction(1, k)
        acc = acc + term
    return acc


def series_log(u):
    n = u.shape[0]
    ident = _obj(lambda i, j: 1 if i == j else 0, n)
    nil = u - ident
    if _all_int(nil):
        lcm = math.lcm(*range(1, n)) if n > 1 else 1
        term = ident
        acc = _obj(lambda i, j: 0, n)
        for k in range(1, n):
            term = term @ nil
            sign = 1 if k % 2 == 1 else -1
            acc = acc + (sign * (lcm // k)) * term
        return _obj(lambda i, j: Fraction(int(acc[i, j]), lcm), n)
    term = ident
    acc = _obj(lambda i, j: Fraction(0), n)
    for k in range(1, n):
        term = term @ nil
        acc = acc + Fraction(1 if k % 2 == 1 else -1, k) * term
    return acc


def assert_same_fractions(got, want):
    assert got.shape == want.shape
    for (i, j), w in np.ndenumerate(want):
        assert type(got[i, j]) is Fraction, (i, j)
        assert got[i, j] == w, (i, j, got[i, j], w)


def random_fraction_lower(rng, n):
    mat = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(i):
            mat[i, j] = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    return mat


@pytest.mark.parametrize("n", range(25))
def test_power_series_matches_series_oracles(n):
    rng = random.Random(1000 + n)
    # the first two subdiagonals only: one entry off the first keeps it off
    # the closed form
    band = catalanz.subdiag_matrix([rng.randint(-9, 9) for _ in range(n)], n)
    for i in range(2, n):
        band[i, i - 2] = rng.randint(-9, 9)
    for g in (random_strictly_lower(rng, n), random_fraction_lower(rng, n),
              band):
        assert_same_fractions(catalanz.nilpotent_exp(g), series_exp(g))
        u = g + catalanz._identity(n)
        assert_same_fractions(catalanz.nilpotent_log(u), series_log(u))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 8, 13, 21, 24])
def test_subdiagonal_closed_form_matches_series_oracle(n):
    rng = random.Random(2000 + n)
    pools = ([rng.randint(-9, 9) for _ in range(n)],
             [rng.choice((0, 1, 3)) for _ in range(n)],
             [Fraction(rng.randint(-5, 5), rng.randint(1, 7))
              for _ in range(n)])
    for values in pools:
        g = catalanz.subdiag_matrix(values, n)
        assert_same_fractions(catalanz.nilpotent_exp(g), series_exp(g))


def test_kernels_match_series_oracles_on_catalan_products():
    n = 64
    for m_kind, l_kind in ((catalanz.MZ, catalanz.LZ),
                           (catalanz.MTILDEZ, catalanz.LTILDEZ)):
        prod = (catalanz.build_catalan_matrix(m_kind, n)
                @ catalanz.build_catalan_matrix(l_kind, n))
        log = catalanz.nilpotent_log(prod)
        assert_same_fractions(log, series_log(prod))
        # the striped log is not first-subdiagonal, so its exp takes the
        # series path; its entries are integers, which keeps the oracle on
        # its integer branch
        log_int = np.array([int(v) for v in log.flat],
                           dtype=object).reshape(n, n)
        assert (log_int == log).all()
        assert_same_fractions(catalanz.nilpotent_exp(log),
                              series_exp(log_int))
    for step in (2, 4):
        g = catalanz.subdiag_matrix([4 * j + step for j in range(n)], n)
        assert_same_fractions(catalanz.nilpotent_exp(g), series_exp(g))


def test_build_matches_entry_formulas_at_every_size():
    top = catalanz.MAX_MATRIX_SIZE
    c = lambda a, b: math.comb(a, b) if 0 <= b <= a else 0
    oracles = {
        catalanz.LZ: lambda i, j: c(2 * i, i - j) - c(2 * i, i - j - 1),
        catalanz.LTILDEZ:
            lambda i, j: c(2 * i + 1, i - j) - c(2 * i + 1, i - j - 1),
        catalanz.MZ: lambda i, j: c(i + j, 2 * j),
        catalanz.MTILDEZ: lambda i, j: c(i + j + 1, 2 * j + 1),
        catalanz.H_CAT: lambda i, j: catalanz.catalan(i + j),
        catalanz.H_CAT_SHIFT: lambda i, j: catalanz.catalan(i + j + 1),
    }
    for kind, entry in oracles.items():
        # each entry depends on (i, j) only, so every size is a leading block
        want = _obj(entry, top)
        for n in range(1, top + 1):
            mat = catalanz.build_catalan_matrix(kind, n)
            assert mat.shape == (n, n) and mat.dtype == object
            assert all(type(v) is int for v in mat.flat), (kind, n)
            assert (mat == want[:n, :n]).all(), (kind, n)


def _failures(report):
    return [(f.i, f.j, f.expected, f.got) for f in report.failures]


def _flip(monkeypatch, *entries):
    """Make build_catalan_matrix add 1 at each (kind, i, j) of entries."""
    build = catalanz.build_catalan_matrix

    def faulty(kind, n):
        mat = build(kind, n)
        for flip_kind, i, j in entries:
            if flip_kind == kind:
                mat[i, j] += 1
        return mat

    monkeypatch.setattr(catalanz, "build_catalan_matrix", faulty)
    return build


def test_flipped_entry_localised_in_catalan_lu(monkeypatch):
    # L[5, 2] + 1 adds L[i, 2] to H[i, 5]; L[2, 2] = 1 is the first nonzero
    # in row-major order, so the first failure is (2, 5): C_7 = 429 vs 430
    n = 16
    build = _flip(monkeypatch, (catalanz.LZ, 5, 2))
    report = catalanz.verify_catalan_lu(n)
    assert _failures(report)[0] == (2, 5, 429, 430)
    # every failure, in order, as the full products of the flipped factors
    lmat = build(catalanz.LZ, n)
    lmat[5, 2] += 1
    want = catalanz.VerifyReport("catalan-lu", n)
    want.compare(lmat @ lmat.T, build(catalanz.H_CAT, n))
    want.compare(lmat @ catalanz._alt_conj(build(catalanz.MZ, n)),
                 catalanz._identity(n))
    assert _failures(report) == _failures(want)


def test_flipped_entry_localised_in_log_conjecture(monkeypatch):
    n = 16
    build = _flip(monkeypatch, (catalanz.LZ, 7, 3))
    report = catalanz.check_log_conjecture(n)
    lmat = build(catalanz.LZ, n)
    lmat[7, 3] += 1
    want = catalanz.VerifyReport("log-conjecture", n)
    log = series_log(build(catalanz.MZ, n) @ lmat)
    want.compare(log, catalanz._stripes(n, 2))
    assert report.failures and _failures(report) == _failures(want)
    # rows above 7 of M L, and so of its log, are untouched; in row 7 the
    # flip reaches column 0 through (M L)[7, 3] (M L)[3, 0] in the square
    first = report.failures[0]
    assert (first.i, first.j, first.expected) == (7, 0, 2)
    assert first.got == log[7, 0] != 2
    assert type(first.got) is Fraction


@pytest.mark.parametrize("i, j", [(2, 5), (4, 5)])
def test_flip_above_the_diagonal_is_refused(monkeypatch, i, j):
    # the triangle-aware products never read the upper triangle, so a
    # factor with an entry there is refused instead of passed silently
    _flip(monkeypatch, (catalanz.LZ, i, j))
    for verifier in (catalanz.verify_catalan_lu, catalanz.verify_exp_products,
                     catalanz.check_log_conjecture):
        with pytest.raises(InvariantError, match=rf"\({i}, {j}\)"):
            verifier(8)


@pytest.mark.parametrize("verifier", [catalanz.verify_catalan_lu,
                                      catalanz.verify_exp_products,
                                      catalanz.check_log_conjecture])
def test_verifier_guard_precedes_any_build(monkeypatch, verifier):
    def no_build(kind, n):
        raise AssertionError("built a matrix before the size guard")

    monkeypatch.setattr(catalanz, "build_catalan_matrix", no_build)
    limit = 512 if verifier is catalanz.verify_catalan_lu else 128
    for n in (0, limit + 1):
        with pytest.raises(SizeGuardError, match=rf"\[1, {limit}\]"):
            verifier(n)


def test_exp_log_guard_precedes_any_work():
    # not triangular either: the size guard must answer first
    big = np.ones((catalanz.MAX_MATRIX_SIZE + 1,) * 2, dtype=object)
    for fn in (catalanz.nilpotent_exp, catalanz.nilpotent_log):
        with pytest.raises(SizeGuardError, match=r"\[0, 128\]"):
            fn(big)
        assert fn(np.zeros((0, 0), dtype=object)).shape == (0, 0)


# ---------------------------------------------------------------------------
# the exp certificate behind check_log_conjecture

def random_stripes(rng, n):
    """The stripe form N (I - N^2)^-1 diag(d) for a random d with no zero:
    d_j where i - j is odd and positive, zero elsewhere."""
    d = [rng.choice([-3, -2, -1, 1, 2, 3, 5]) for _ in range(n)]
    return _obj(lambda i, j: d[j] if i > j and (i - j) % 2 else 0, n)


@pytest.mark.parametrize("n", range(1, 25))
def test_certificate_agrees_with_exp(n):
    rng = random.Random(3000 + n)
    s = random_stripes(rng, n)
    u = catalanz.nilpotent_exp(s)
    other = s.copy()
    if n > 1:
        i = rng.randrange(1, n)
        other[i, rng.randrange(i)] += rng.choice([-1, 1])
    # u + s^2 commutes with s but has another first column from n = 3 on
    candidates = [u, catalanz.nilpotent_exp(other),
                  u + catalanz._lower_matmul(s, s),
                  random_strictly_lower(rng, n) + catalanz._identity(n)]
    for cand in candidates:
        assert catalanz._is_exp(s, cand) is bool((u == cand).all())


@pytest.mark.parametrize("n", range(1, 13))
def test_certificate_rejects_every_bumped_entry(n):
    rng = random.Random(4000 + n)
    for s in (random_stripes(rng, n), catalanz._stripes(n, 2)):
        u = catalanz.nilpotent_exp(s)
        assert catalanz._is_exp(s, u)
        for i in range(n):
            for j in range(i + 1):
                bumped = u.copy()
                bumped[i, j] += 1
                assert not catalanz._is_exp(s, bumped), (i, j)


def test_certificate_size_one():
    zero = np.zeros((1, 1), dtype=object)
    one = catalanz._identity(1)
    assert catalanz._is_exp(zero, one)
    assert catalanz._is_exp(zero, one * Fraction(1))
    assert not catalanz._is_exp(zero, one + one)


def test_certificate_refuses_outside_its_premise():
    n = 8
    s = catalanz._stripes(n, 2)
    u = catalanz.nilpotent_exp(s)
    holey = s.copy()
    holey[3, 2] = 0
    # u == exp(holey) holds, but a zero on the first subdiagonal leaves the
    # certificate without its basis, so it answers False
    assert not catalanz._is_exp(holey, catalanz.nilpotent_exp(holey))
    # an entry at an even distance below the diagonal leaves the stripe
    # form, though its first subdiagonal is still nonzero
    even = s.copy()
    even[4, 2] = 1
    assert not catalanz._is_exp(even, catalanz.nilpotent_exp(even))
    upper = u.copy()
    upper[2, 5] = 1
    assert not catalanz._is_exp(s, upper)
    assert not catalanz._is_exp(s + s.T, u)


_log_kernel = catalanz.nilpotent_log


def old_logs(n):
    """log(M L) and log(M~ L~) at size n."""
    lmat, mmat, lt, mt = catalanz._factors(n)
    return _log_kernel(mmat @ lmat), _log_kernel(mt @ lt)


def old_log_report(n, logs=None):
    """check_log_conjecture before the certificate: the log of each product
    compared entry by entry, kept as the oracle of its reports.  logs may be
    old_logs at a larger size: every factor is lower-triangular and the
    leading block of a larger one, so the logs at n are their leading
    n x n blocks."""
    report = catalanz.VerifyReport("log-conjecture", n, conjecture=True)
    for log, offset in zip(logs or old_logs(n), (2, 4)):
        report.compare(log[:n, :n], catalanz._stripes(n, offset))
    return report


def _spy_log(monkeypatch):
    calls = []

    def spy(u):
        calls.append(u.shape[0])
        return _log_kernel(u)

    monkeypatch.setattr(catalanz, "nilpotent_log", spy)
    return calls


def test_log_report_matches_log_path_at_every_size(monkeypatch):
    logs = old_logs(64)
    calls = _spy_log(monkeypatch)
    for n in range(1, 65):
        report = catalanz.check_log_conjecture(n)
        assert report.ok
        assert report.as_dict() == old_log_report(n, logs).as_dict(), n
    assert report.as_dict() == old_log_report(64).as_dict()
    assert calls == []


def _flips(n):
    """Lower entries of an n x n factor to flip: column 0, the last row,
    the diagonal and one inner entry."""
    last = n - 1
    return sorted({(last, 0), (last // 2, 0), (last, last // 2),
                   (last, max(last - 1, 0)), (last, last), (n // 3, n // 4)})


@pytest.mark.parametrize("kind", [catalanz.LZ, catalanz.MZ,
                                  catalanz.LTILDEZ, catalanz.MTILDEZ])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
def test_flipped_log_reports_match_log_path(monkeypatch, kind, n):
    for i, j in _flips(n):
        monkeypatch.undo()
        _flip(monkeypatch, (kind, i, j))
        if i == j:  # a diagonal flip leaves the product not unipotent
            with pytest.raises(ValueError, match="unipotent"):
                old_log_report(n)
            with pytest.raises(ValueError, match="unipotent"):
                catalanz.check_log_conjecture(n)
            continue
        calls = _spy_log(monkeypatch)
        report = catalanz.check_log_conjecture(n)
        assert not report.ok and calls == [n], (i, j)
        assert report.as_dict() == old_log_report(n).as_dict(), (i, j)


def test_log_computed_once_per_failing_product(monkeypatch):
    n = 16
    _flip(monkeypatch, (catalanz.LZ, 7, 3), (catalanz.MTILDEZ, 15, 0))
    calls = _spy_log(monkeypatch)
    report = catalanz.check_log_conjecture(n)
    assert calls == [n, n]
    assert report.as_dict() == old_log_report(n).as_dict()


def test_log_path_decides_outside_the_premise(monkeypatch):
    n = 12
    stripes = catalanz._stripes

    def holey(size, offset):
        out = stripes(size, offset)
        out[3, 2] = 0
        return out

    monkeypatch.setattr(catalanz, "_stripes", holey)
    calls = _spy_log(monkeypatch)
    report = catalanz.check_log_conjecture(n)
    assert calls == [n, n]
    assert _failures(report) == [(3, 2, 0, 10), (3, 2, 0, 12)]
    assert report.as_dict() == old_log_report(n).as_dict()


# ---------------------------------------------------------------------------
# the factor-row certificates behind verify_catalan_lu

_lower_gram = catalanz._lower_gram
_lower_matmul = catalanz._lower_matmul


def lu_products(n):
    """L L^t, L~ L~^t, L D_a M D_a and L~ D_a M~ D_a at size n."""
    lmat, mmat, lt, mt = catalanz._factors(n)
    return (_lower_gram(lmat), _lower_gram(lt),
            _lower_matmul(lmat, catalanz._alt_conj(mmat)),
            _lower_matmul(lt, catalanz._alt_conj(mt)))


def product_lu_report(n, products=None):
    """verify_catalan_lu before the certificates: all four products compared
    entry by entry, kept as the oracle of its reports.  products may be
    lu_products at a larger size: every factor is lower-triangular and the
    leading block of a larger one, so the products at n are their leading
    n x n blocks."""
    report = catalanz.VerifyReport("catalan-lu", n)
    wants = (catalanz.build_catalan_matrix(catalanz.H_CAT, n),
             catalanz.build_catalan_matrix(catalanz.H_CAT_SHIFT, n),
             catalanz._identity(n), catalanz._identity(n))
    for got, want in zip(products or lu_products(n), wants):
        report.compare(got[:n, :n], want)
    return report


def _spy_products(monkeypatch, allowed=True):
    """Record each product verify_catalan_lu forms, by name; with allowed
    False, forming one fails the test."""
    calls = []

    def spy(name, kernel):
        def run(*mats):
            if not allowed:
                raise AssertionError(f"{name} on a passing run")
            calls.append(name)
            return kernel(*mats)
        return run

    monkeypatch.setattr(catalanz, "_lower_gram", spy("gram", _lower_gram))
    monkeypatch.setattr(catalanz, "_lower_matmul",
                        spy("matmul", _lower_matmul))
    return calls


def test_lu_report_matches_product_path_at_every_size(monkeypatch):
    top = 128
    products = lu_products(top)
    _spy_products(monkeypatch, allowed=False)
    for n in range(1, top + 1):
        report = catalanz.verify_catalan_lu(n)
        assert report.ok
        assert report.as_dict() == product_lu_report(n, products).as_dict(), n


def _lu_flips(kind, n):
    """Entries of an n x n matrix of the given kind to flip: those of
    _flips, one on the first subdiagonal and, for a Hankel matrix, some on
    its first row and last column (which hold its 2n - 1 values) and one
    above the diagonal off them."""
    last = n - 1
    cells = set(_flips(n))
    if n > 1:
        cells.add((n // 2, n // 2 - 1))
    if kind in (catalanz.H_CAT, catalanz.H_CAT_SHIFT):
        cells |= {(0, last // 2), (0, last), (last // 2, last),
                  (n // 3, n // 2)}
    return sorted(cells)


@pytest.mark.parametrize("kind", [catalanz.LZ, catalanz.MZ, catalanz.LTILDEZ,
                                  catalanz.MTILDEZ, catalanz.H_CAT,
                                  catalanz.H_CAT_SHIFT])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
def test_flipped_lu_reports_match_product_path(monkeypatch, kind, n):
    for i, j in _lu_flips(kind, n):
        monkeypatch.undo()
        _flip(monkeypatch, (kind, i, j))
        report = catalanz.verify_catalan_lu(n)
        assert not report.ok, (i, j)
        assert report.as_dict() == product_lu_report(n).as_dict(), (i, j)


@pytest.mark.parametrize("flips, products", [
    # a fault in M alone leaves L a factor: only the inverse is formed
    ([(catalanz.MZ, 5, 2)], ["matmul"]),
    ([(catalanz.MTILDEZ, 15, 0)], ["matmul"]),
    # a fault in H leaves L a factor: only the Gram product is formed
    ([(catalanz.H_CAT, 6, 4)], ["gram"]),
    # L not a factor: both products of its pair
    ([(catalanz.LZ, 5, 2)], ["gram", "matmul"]),
    # the inverse certificate does not read H
    ([(catalanz.H_CAT_SHIFT, 0, 9)], ["gram"]),
    ([(catalanz.LZ, 7, 3), (catalanz.MTILDEZ, 3, 1)],
     ["gram", "matmul", "matmul"]),
])
def test_lu_forms_only_the_products_of_failing_identities(monkeypatch, flips,
                                                          products):
    n = 16
    _flip(monkeypatch, *flips)
    calls = _spy_products(monkeypatch)
    report = catalanz.verify_catalan_lu(n)
    assert calls == products
    assert not report.ok
    assert report.as_dict() == product_lu_report(n).as_dict()


@pytest.mark.parametrize("n, replace", [
    (6, lambda kind, n, build: build(
        catalanz.LTILDEZ if kind == catalanz.LZ else kind, n)),
    # 2 L is the LU factor of 2 H with pivots 2: 2 H = L (2 I) L^t, not
    # (2 L) (2 L)^t
    (6, lambda kind, n, build: build(kind, n) * (
        2 if kind in (catalanz.LZ, catalanz.H_CAT) else 1)),
    # L L^t agrees with H on its first row and last column but is not
    # Hankel: 1 + 3^2 at (1, 1)
    (3, lambda kind, n, build: np.array(
        [[1, 0, 0], [1, 3, 0], [2, 1, 3]], dtype=object)
     if kind == catalanz.LZ else build(kind, n)),
], ids=["l-built-as-ltilde", "l-and-h-doubled", "l-off-its-rows"])
def test_lu_certifies_l_only_as_its_own_factor(monkeypatch, n, replace):
    build = catalanz.build_catalan_matrix
    monkeypatch.setattr(catalanz, "build_catalan_matrix",
                        lambda kind, size: replace(kind, size, build))
    calls = _spy_products(monkeypatch)
    report = catalanz.verify_catalan_lu(n)
    assert calls == ["gram", "matmul"]
    assert not report.ok
    assert report.as_dict() == product_lu_report(n).as_dict()


# ---------------------------------------------------------------------------
# the row-recursion products behind verify_exp_products and
# check_log_conjecture

def exp_matrices(n):
    """L M and L~ M~ at size n as _lower_matmul forms them, each followed by
    its closed form and the exponential of its subdiagonal."""
    lmat, mmat, lt, mt = catalanz._factors(n)
    c = math.comb
    sub_exp = lambda step: catalanz.nilpotent_exp(
        catalanz.subdiag_matrix([4 * j + step for j in range(n)], n))
    return (_lower_matmul(lmat, mmat),
            _obj(lambda i, j: c(2 * i, i) * c(i, j) // c(2 * j, j), n),
            sub_exp(2),
            _lower_matmul(lt, mt),
            _obj(lambda i, j: 4 ** (i - j) * c(i, j) if j <= i else 0, n),
            sub_exp(4))


def product_exp_report(n, mats=None):
    """verify_exp_products before the row recursions: both products formed
    by _lower_matmul and compared entry by entry, kept as the oracle of its
    reports.  mats may be exp_matrices at a larger size: every factor is
    lower-triangular and the leading block of a larger one, and each
    expected entry depends on (i, j) only, so the matrices at n are their
    leading n x n blocks."""
    report = catalanz.VerifyReport("exp-products", n)
    lm, lm_closed, lm_exp, ltmt, lt_closed, lt_exp = mats or exp_matrices(n)
    for got, want in ((lm, lm_closed), (lm, lm_exp), (ltmt, lt_closed),
                      (ltmt, lt_exp)):
        report.compare(got[:n, :n], want[:n, :n])
    return report


def test_exp_report_matches_product_path_at_every_size(monkeypatch):
    top = catalanz.MAX_MATRIX_SIZE
    mats = exp_matrices(top)
    _spy_products(monkeypatch, allowed=False)
    for n in range(1, top + 1):
        report = catalanz.verify_exp_products(n)
        assert report.ok
        assert report.as_dict() == product_exp_report(n, mats).as_dict(), n


def test_passing_log_runs_form_no_product_and_no_log(monkeypatch):
    _spy_products(monkeypatch, allowed=False)
    calls = _spy_log(monkeypatch)
    for n in range(1, catalanz.MAX_MATRIX_SIZE + 1):
        report = catalanz.check_log_conjecture(n)
        assert report.as_dict() == {"suite": "log-conjecture", "size": n,
                                    "pass": True, "failures": [],
                                    "conjecture": True}
    assert calls == []


@pytest.mark.parametrize("kind", [catalanz.LZ, catalanz.MZ,
                                  catalanz.LTILDEZ, catalanz.MTILDEZ])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
def test_flipped_exp_reports_match_product_path(monkeypatch, kind, n):
    for i, j in _flips(n):
        monkeypatch.undo()
        _flip(monkeypatch, (kind, i, j))
        report = catalanz.verify_exp_products(n)
        assert not report.ok, (i, j)
        assert report.as_dict() == product_exp_report(n).as_dict(), (i, j)


def _spy_pairs(monkeypatch, n):
    """Record each _lower_matmul call of two factors by their names; the
    products inside nilpotent_log are not recorded."""
    names = list(zip(("L", "M", "L~", "M~"), catalanz._factors(n)))
    calls = []

    def spy(a, b):
        pair = tuple(name for m in (a, b) for name, f in names
                     if (f == m).all())
        if len(pair) == 2:
            calls.append(pair)
        return _lower_matmul(a, b)

    monkeypatch.setattr(catalanz, "_lower_matmul", spy)
    return calls


@pytest.mark.parametrize("flips, exp_pairs, log_pairs", [
    ([(catalanz.LZ, 5, 2)], [("L", "M")], [("M", "L")]),
    ([(catalanz.MZ, 9, 0)], [("L", "M")], [("M", "L")]),
    ([(catalanz.MTILDEZ, 15, 0)], [("L~", "M~")], [("M~", "L~")]),
    ([(catalanz.LTILDEZ, 7, 3)], [("L~", "M~")], [("M~", "L~")]),
    ([(catalanz.LTILDEZ, 7, 3), (catalanz.MZ, 3, 1)],
     [("L", "M"), ("L~", "M~")], [("M", "L"), ("M~", "L~")]),
])
def test_broken_factor_forms_only_its_pairs_product(monkeypatch, flips,
                                                    exp_pairs, log_pairs):
    n = 16
    _flip(monkeypatch, *flips)
    calls = _spy_pairs(monkeypatch, n)
    report = catalanz.verify_exp_products(n)
    assert calls == exp_pairs
    assert report.as_dict() == product_exp_report(n).as_dict()
    calls.clear()
    report = catalanz.check_log_conjecture(n)
    assert calls == log_pairs
    assert report.as_dict() == old_log_report(n).as_dict()
