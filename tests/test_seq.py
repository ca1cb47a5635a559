"""Sign sequences and folding words against brute-force recursions."""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, strategies as st

from foldcat import seq
from foldcat.errors import InvariantError, SizeGuardError


def test_s_prefix():
    assert [seq.s(n) for n in range(8)] == [1, 1, -1, 1, -1, -1, -1, 1]


def test_s_boundary():
    assert seq.s(-1) == 0
    with pytest.raises(ValueError):
        seq.s(-2)


def test_s_doubling_rules():
    for i in range(4000):
        assert seq.s(2 * i) == (-1) ** i * seq.s(i)
        assert seq.s(2 * i + 1) == seq.s(i)


@given(st.integers(0, 1 << 30))
def test_s_closed_form(n):
    # number of "10" factors in the binary expansion
    count = bin((n >> 1) & ~n & ((1 << n.bit_length()) - 1)).count("1")
    assert seq.b0(n) == count
    assert seq.s(n) == (-1) ** count


def test_mu_prefix():
    assert [seq.mu(n) for n in range(16)] == \
        [1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1]


@given(st.integers(0, 1 << 30))
def test_mu_power_of_two_support(n):
    assert seq.mu(n) == (1 if (n + 1) & n == 0 else 0)


def test_s_tilde_prefix():
    assert [seq.s_tilde(n) for n in range(8)] == [1, 1, -1, 1, 1, -1, -1, 1]


def test_s_tilde_recursion():
    for i in range(2000):
        assert seq.s_tilde(2 * i) == (-1) ** i
        if i >= 1:
            assert seq.s_tilde(2 * i + 1) == seq.s_tilde(i)


def test_t_tilde_recursion():
    assert seq.t_tilde(0) == 1
    for i in range(2000):
        assert seq.t_tilde(2 * i + 1) == seq.t_tilde(i)
        if i >= 1:
            assert seq.t_tilde(4 * i) == (-1) ** i * seq.t_tilde(2 * i)
            assert seq.t_tilde(4 * i + 2) == seq.t_tilde(2 * i)


def test_t_tilde_even_entries_follow_s():
    for i in range(4000):
        assert seq.t_tilde(2 * i) == seq.s(i)


def test_d_prefix():
    assert [seq.d(n) for n in range(1, 9)] == [1, -2, 0, 0, 2, 0, -2, 0]


def test_d_three_term_identity():
    for n in range(1, 3000):
        prev2 = seq.s(n - 2) if n >= 2 else 0
        assert seq.s(n) == seq.d(n) * seq.s(n - 1) + prev2


def test_d_checks_raise_invariant_error(monkeypatch):
    values = {3: 1, 2: 0, 1: 2}
    monkeypatch.setattr(seq, "s", lambda n: values[n])
    with pytest.raises(InvariantError, match="s\\(n-1\\) nonzero at 2"):
        seq.d(3)
    values.update({3: 1, 2: 2, 1: 0})
    with pytest.raises(InvariantError, match="remainder") as info:
        seq.d(3)
    assert (info.value.where, info.value.expected, info.value.got) == (3, 0, 1)


def test_d_checks_survive_optimized_mode():
    # python -O strips assert statements; the checks must still raise
    script = textwrap.dedent("""
        import sys
        from foldcat import seq
        from foldcat.errors import InvariantError
        for values in ({3: 1, 2: 0, 1: 2}, {3: 1, 2: 2, 1: 0}):
            seq.s = values.__getitem__
            try:
                seq.d(3)
            except InvariantError as exc:
                print(sys.flags.optimize, exc.where, exc.got)
            else:
                print(sys.flags.optimize, "no error")
    """)
    src = os.path.dirname(os.path.dirname(seq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "2", "0", "1", "3", "1"]


def brute_word(k):
    word = [seq.FoldLetter(1, -1), seq.FoldLetter(1, 1)]
    for level in range(2, k + 1):
        word = word + [seq.FoldLetter(level, 1), seq.FoldLetter(level, -1)] \
            + word[::-1]
    return word


def test_word_length():
    for k in range(1, 12):
        assert seq.word_length(k) == 2 * ((1 << k) - 1)
        assert len(seq.fold_word(k)) == seq.word_length(k)


def test_fold_word_small():
    assert seq.fold_word(1) == [seq.FoldLetter(1, -1), seq.FoldLetter(1, 1)]
    assert seq.fold_word(2) == [
        seq.FoldLetter(1, -1), seq.FoldLetter(1, 1), seq.FoldLetter(2, 1),
        seq.FoldLetter(2, -1), seq.FoldLetter(1, 1), seq.FoldLetter(1, -1)]


def test_fold_word_against_brute_recursion():
    for k in range(1, 11):
        assert seq.fold_word(k) == brute_word(k)


def _descent_letter(n):
    """The n-th letter by walking down the levels of W_k: the reference
    that fold_stream's closed form is checked against."""
    k = 1
    while seq.word_length(k) < n:
        k += 1
    while k > 1:
        m = seq.word_length(k - 1)
        if n <= m:
            k -= 1
        elif n == m + 1:
            return seq.FoldLetter(k, 1)
        elif n == m + 2:
            return seq.FoldLetter(k, -1)
        else:
            n = 2 * m + 3 - n  # position inside the reversed copy of W_{k-1}
            k -= 1
    return seq.FoldLetter(1, -1 if n == 1 else 1)


def test_fold_stream_matches_words():
    word = seq.fold_word(12)
    for n, letter in enumerate(word, start=1):
        assert seq.fold_stream(n) == letter


def test_fold_stream_matches_descent_near_powers_of_two():
    indices = {n for k in range(1, 65) for n in range((1 << k) - 2,
                                                      (1 << k) + 3)}
    indices = sorted(n for n in indices if 1 <= n <= seq.MAX_WORD_INDEX)
    assert indices[-1] == seq.MAX_WORD_INDEX
    for n in indices:
        assert seq.fold_stream(n) == _descent_letter(n), n


@given(st.integers(1, seq.MAX_WORD_INDEX))
def test_fold_stream_matches_descent(n):
    assert seq.fold_stream(n) == _descent_letter(n)


def test_fold_word_guard():
    with pytest.raises(SizeGuardError):
        seq.fold_word(seq.MAX_WORD_LEVEL + 1)
    with pytest.raises(SizeGuardError):
        seq.fold_word(0)


def _example1_sign_recursion(n):
    """w(4i+1) = -w(4i+2) = (-1)^(i+1); w(8i+3) = -w(8i+4) = (-1)^i;
    w(8i+7) = -w(8i+8) = w(4i+3): the recursion that example1_sign
    followed before it read the letter stream, kept as its reference."""
    r4 = n % 4
    if r4 == 1:
        return -1 if (n // 4) % 2 == 0 else 1
    if r4 == 2:
        return 1 if ((n - 2) // 4) % 2 == 0 else -1
    r8 = n % 8
    if r8 == 3:
        return 1 if (n // 8) % 2 == 0 else -1
    if r8 == 4:
        return -1 if ((n - 4) // 8) % 2 == 0 else 1
    if r8 == 7:
        return _example1_sign_recursion(n // 2)  # 4i+3 with i = n//8
    # r8 == 0, n = 8i+8
    return -_example1_sign_recursion((n - 8) // 2 + 3)


def test_example1_sign_matches_stream():
    for n in range(1, 5000):
        assert seq.example1_sign(n) == _example1_sign_recursion(n) \
            == seq.fold_stream(n).sign


@given(st.integers(1, seq.MAX_WORD_INDEX))
def test_example1_sign_matches_recursion(n):
    assert seq.example1_sign(n) == _example1_sign_recursion(n)
