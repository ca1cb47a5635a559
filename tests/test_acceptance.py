"""Acceptance gate: every identity at full size, exact, within time budgets.

Each test prints a single machine-readable line
    [acceptance NN] <name>: PASS|FAIL (<elapsed>s / budget <budget>s)
and fails the build on any mismatch, timeout, or inexact value.
"""

import math
import random
import sys
import time

import numpy as np

from foldcat import catalanz, cfseries, gf2sign, seq
from foldcat.cfseries import (cf_limit_example, hankel_det,
                              power_of_two_series, stieltjes_extract,
                              uniqueness_check, uniqueness_search)


def gate(num, name, budget, fn):
    t0 = time.perf_counter()
    try:
        problems = fn()
    except Exception as exc:  # a crash is a failure, not an error
        problems = [f"exception: {exc!r}"]
    elapsed = time.perf_counter() - t0
    if elapsed > budget:
        problems = list(problems) + [f"over budget: {elapsed:.2f}s"]
    status = "PASS" if not problems else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} "
          f"({elapsed:.2f}s / budget {budget}s)", file=sys.stderr)
    assert not problems, (num, name, problems)


def report_problems(report):
    return [f"({f.i},{f.j}): expected {f.expected}, got {f.got}"
            for f in report.failures[:10]]


def test_01_hankel_factorization():
    def check():
        problems = []
        n = 1
        while n <= 256:
            problems += report_problems(gf2sign.verify_thm2(n))
            n *= 2
        return problems
    gate(1, "signed Hankel factorization at sizes 1..256", 5, check)


def test_02_block_recursions():
    def check():
        problems = report_problems(gf2sign.verify_babab(256))
        for steps in range(8):  # LM chain, sizes 2..256
            n = 2 << steps
            lm = gf2sign.signed_product(gf2sign.build_tri(gf2sign.L, n),
                                        None,
                                        gf2sign.build_tri(gf2sign.M, n))
            got = gf2sign.babab_expand(gf2sign.LM_RULE, steps)
            if (got != lm).any():
                problems.append(f"LM chain differs at size {n}")
        return problems
    gate(2, "block-doubling chains match formula matrices", 2, check)


def test_03_inverse_identities():
    def check():
        problems = []
        for n in (1, 2, 3, 7, 64, 512):
            problems += report_problems(gf2sign.verify_thm3(n))
        return problems
    gate(3, "triangular inverse identities up to size 512", 5, check)


def test_04_product_patterns():
    def check():
        problems = []
        for n in (1, 2, 3, 7, 256):
            problems += report_problems(gf2sign.verify_prop_mdl(n))
            problems += report_problems(gf2sign.verify_prop_ml_lm(n))
        return problems
    gate(4, "parity-masked and 0/1/2 product patterns at 256", 2, check)


def test_05_shifted_factorization():
    def check():
        problems = []
        for n in (1, 2, 3, 7, 256):
            problems += report_problems(gf2sign.verify_thm5(n))
        return problems
    gate(5, "shifted Hankel factorization and interleavings at 256", 3, check)


def test_06_folded_fraction_limits():
    targets = [
        (1, 600, lambda t: power_of_two_series(t)),
        (2, 250, lambda t: cfseries._sparse_series(t, lambda k: 3 ** k)),
        (3, 750, lambda t: cfseries._sparse_series(
            t, lambda k: math.factorial(k + 1))),
    ]
    for example, order, target in targets:
        def check(example=example, order=order, target=target):
            got = cf_limit_example(example, order)
            want = target(order)
            if got != want:
                return [f"example {example}: exponents "
                        f"{got.nonzero_exponents()[:12]}"]
            return []
        gate(6, f"folded fraction example {example} to order {order}", 3,
             check)


def test_07_multivariate_closed_form():
    def check():
        problems = []
        for n in range(1, 5):
            problems += report_problems(cfseries.verify_lemma5(n))
        return problems
    gate(7, "multivariate convergent closed forms, 1..4 variables", 5, check)


def test_08_jacobi_extraction():
    def check():
        return report_problems(cfseries.verify_thm4(48))
    gate(8, "Jacobi coefficients of mu to depth 48", 10, check)


def test_09_determinant_identities():
    def check():
        return report_problems(cfseries.verify_det_identities(32))
    gate(9, "Hankel determinant sign and mirror identities to 32", 5, check)


# Budgets of gates 10 and 11: ten times the summed median time of their
# calls in BENCH_5.json ("gate_calls": 0.41 s and 0.43 s), rounded up to a
# whole second.  The benchmark sizes (catalan-lu at 128, exp-products and
# log-conjecture at 64) run beside the CLI sizes at 48, and each gate also
# runs its suite's guard limit within the same budget: catalan-lu at 512 in
# gate 10, log-conjecture at 128 in gate 11.
def test_10_catalan_factorizations():
    def check():
        problems = []
        for n in (48, 128, catalanz.MAX_CATALAN_LU_SIZE):
            problems += report_problems(catalanz.verify_catalan_lu(n))
        for n in (48, 64):
            problems += report_problems(catalanz.verify_exp_products(n))
        return problems
    gate(10, "integer Catalan factorizations at 48, 128 and "
         f"{catalanz.MAX_CATALAN_LU_SIZE}, exponentials at 48 and 64", 5,
         check)


def test_11_log_stripes_conjecture():
    def check():
        problems = []
        for n in (48, 64, 128):
            report = catalanz.check_log_conjecture(n)
            if not report.conjecture:
                return ["report not flagged as conjecture"]
            problems += report_problems(report)
        return problems
    gate(11, "CONJECTURE striped logarithms at 48, 64 and 128", 5, check)


def test_12_bitwise_binomials_against_oracles():
    def check():
        from foldcat.binom2 import binom_mod2, carry_count, catalan_is_odd
        problems = []
        rng = random.Random(0xF01D)
        pairs = 0
        # exact big-integer Pascal rows built by the multiplicative
        # recurrence; each row n yields the pairs (k, n - k) for all k
        while pairs < 100_000 and not problems:
            n = rng.randrange(1 << 13, 1 << 14)
            c = 1
            for k in range(n + 1):
                if binom_mod2(n, k) != c & 1:
                    problems.append(f"parity mismatch at ({k}, {n - k})")
                    break
                v2 = (c & -c).bit_length() - 1
                if carry_count(k, n - k) != v2:
                    problems.append(f"carry mismatch at ({k}, {n - k})")
                    break
                c = c * (n - k) // (k + 1)
            pairs += n + 1
        # the Catalan numbers by C(n + 1) = C(n) 2 (2n + 1) / (n + 2)
        c = 1
        for n in range(1 << 14):
            if catalan_is_odd(n) != c & 1:
                problems.append(f"Catalan parity mismatch at {n}")
                break
            c = c * 2 * (2 * n + 1) // (n + 2)
        return problems
    gate(12, "Lucas/Kummer bit rules vs big-integer oracles", 5, check)


def test_13_twisted_factorizations():
    def check():
        problems = []
        rng = random.Random(13)
        n = 64
        for t in range(10):
            eps = [1] + [rng.choice((-1, 1)) for _ in range(n.bit_length())]
            report = gf2sign.verify_eps(eps, n)
            if not report.ok:
                problems.append(f"draw {t} eps={eps}: "
                                f"{report_problems(report)[:3]}")
        return problems
    gate(13, "sign-twisted factorizations, 10 seeded draws at 64", 3, check)


def test_14_uniqueness_of_the_sign_pattern():
    def check():
        problems = []
        survivors = set(uniqueness_search(8))
        expected = set()
        for bits in range(16):
            cand = [0] * 8
            for k in range(4):
                cand[(1 << k) - 1] = 1 if bits >> k & 1 else -1
            expected.add(tuple(cand))
        if survivors != expected:
            problems.append(f"survivor set differs: {len(survivors)} found")
        result = uniqueness_check([seq.mu(m) for m in range(15)])
        if not result.ok or result.eps != [1, 1, 1, 1]:
            problems.append("mu prefix rejected")
        rng = random.Random(14)
        for _ in range(5):
            eps = [rng.choice((-1, 1)) for _ in range(4)]
            cand = [0] * 15
            for k, sg in enumerate(eps):
                cand[(1 << k) - 1] = sg
            result = uniqueness_check(cand)
            if not result.ok or result.eps != eps:
                problems.append(f"twisted prefix {eps} rejected")
        return problems
    gate(14, "determinant test isolates the sign-pattern family", 30, check)


def test_15_integer_matrices_reduce_to_bit_matrices():
    def check():
        problems = []
        n = 64
        pairs = [
            (catalanz.LZ, gf2sign.L), (catalanz.MZ, gf2sign.M),
            (catalanz.LTILDEZ, gf2sign.LTILDE),
            (catalanz.MTILDEZ, gf2sign.MTILDE),
        ]
        for big_kind, bit_kind in pairs:
            big = catalanz.build_catalan_matrix(big_kind, n)
            bits = gf2sign.build_tri(bit_kind, n)
            mod2 = np.vectorize(lambda v: v % 2)(big)
            if (mod2 != bits.astype(object)).any():
                problems.append(f"{big_kind} mod 2 != {bit_kind}")
        hcat = catalanz.build_catalan_matrix(catalanz.H_CAT, n)
        hbits = gf2sign.hankel_bits(gf2sign.MU_SHIFT0, n)
        if (np.vectorize(lambda v: v % 2)(hcat)
                != hbits.astype(object)).any():
            problems.append("Catalan Hankel mod 2 != mu Hankel")
        return problems
    gate(15, "integer matrices mod 2 equal the bit matrices at 64", 5, check)


# The Gram and inverse statements at 2048, where their certificates decide
# them in O(n^2): about 0.5 s on a 2-vCPU Xeon, where their products took
# about 2.6 s.
def test_16_certified_statements_at_2048():
    def check():
        n = 2048
        problems = []
        for verify in (gf2sign.verify_thm2, gf2sign.verify_thm3,
                       gf2sign.verify_thm5):
            problems += report_problems(verify(n))
        rng = random.Random(16)
        for t in range(10):
            eps = [1] + [rng.choice((-1, 1)) for _ in range(n.bit_length())]
            report = gf2sign.verify_eps(eps, n)
            if not report.ok:
                problems.append(f"draw {t} eps={eps}: "
                                f"{report_problems(report)[:3]}")
        return problems
    gate(16, "thm2, thm3, thm5 and 10 sign-twisted draws at 2048", 3, check)
