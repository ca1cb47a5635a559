"""Every range guard: one value below and one above its range is refused
through errors.check_range, with the limit and the value, before any work."""

import argparse
import random
import sys

import numpy as np
import pytest

from foldcat import catalanz, cfseries, cli, gf2sign, seq
from foldcat.errors import SizeGuardError
from test_source import SRC, calls_in_package


# (site, call taking the guarded value, lo, hi); site is module.function of
# the check_range call
SITES = [
    ("seq.fold_word", seq.fold_word, 1, seq.MAX_WORD_LEVEL),
    ("catalanz.catalan", catalanz.catalan, 0, catalanz.MAX_CATALAN_INDEX),
    ("catalanz.build_catalan_matrix",
     lambda n: catalanz.build_catalan_matrix(catalanz.H_CAT, n),
     1, catalanz.MAX_CATALAN_LU_SIZE),
    ("catalanz.verify_catalan_lu", catalanz.verify_catalan_lu,
     1, catalanz.MAX_CATALAN_LU_SIZE),
    ("catalanz.verify_exp_products", catalanz.verify_exp_products,
     1, catalanz.MAX_MATRIX_SIZE),
    ("catalanz.check_log_conjecture", catalanz.check_log_conjecture,
     1, catalanz.MAX_MATRIX_SIZE),
    ("catalanz.catalan_gf_mod2", catalanz.catalan_gf_mod2,
     1, catalanz.MAX_GF_ORDER),
    ("cfseries.word_matrix",
     lambda k: cfseries.word_matrix([seq.FoldLetter(k, 1)]),
     1, cfseries.MAX_VARS),
    ("cfseries.x_polys", cfseries.x_polys, 0, cfseries.MAX_VARS),
    ("cfseries.verify_lemma5", cfseries.verify_lemma5,
     1, cfseries.MAX_LEMMA5_LEVEL),
    ("cfseries.cf_limit_example", lambda n: cfseries.cf_limit_example(1, n),
     1, cfseries.MAX_CF_ORDER),
    ("cfseries.hankel_lu_rational",
     lambda n: cfseries.hankel_lu_rational(seq.mu, n),
     1, cfseries.MAX_LU_SIZE),
    ("cfseries.stieltjes_extract",
     lambda n: cfseries.stieltjes_extract(seq.mu, n),
     1, cfseries.MAX_JACOBI_DEPTH),
    ("cfseries.hankel_minors", lambda n: cfseries.hankel_minors(seq.mu, n),
     1, cfseries.MAX_DET_SIZE),
    ("cfseries.orth_polys", cfseries.orth_polys, 1, cfseries.MAX_LU_SIZE),
    ("cfseries.uniqueness_check",
     lambda n: cfseries.uniqueness_check([0] * n),
     2, cfseries.MAX_UNIQUE_LEN),
    ("cfseries.uniqueness_search", cfseries.uniqueness_search,
     2, cfseries.MAX_SEARCH_LEN),
    ("gf2sign.build_tri", lambda n: gf2sign.build_tri(gf2sign.L, n),
     1, gf2sign.MAX_SIZE),
    ("gf2sign.babab_expand",
     lambda k: gf2sign.babab_expand(gf2sign.L_RULE, k),
     0, gf2sign.MAX_BLOCK_STEPS),
    ("gf2sign._hankel_window",
     lambda n: gf2sign.hankel_bits(gf2sign.MU_SHIFT0, n),
     1, gf2sign.MAX_SIZE),
    ("gf2sign.sign_diag", lambda n: gf2sign.sign_diag("s", n),
     1, gf2sign.MAX_SIZE),
    ("gf2sign.verify_thm2", gf2sign.verify_thm2, 1, gf2sign.MAX_SIZE),
    ("gf2sign.verify_thm3", gf2sign.verify_thm3, 1, gf2sign.MAX_SIZE),
    ("gf2sign.verify_prop_mdl", gf2sign.verify_prop_mdl,
     1, gf2sign.MAX_SIZE),
    ("gf2sign.verify_prop_ml_lm", gf2sign.verify_prop_ml_lm,
     1, gf2sign.MAX_ML_LM_SIZE),
    ("gf2sign.verify_thm5", gf2sign.verify_thm5, 1, gf2sign.MAX_SIZE),
    ("gf2sign.verify_babab", gf2sign.verify_babab,
     1, gf2sign.MAX_BABAB_SIZE),
    ("gf2sign.general_eps_diag", lambda n: gf2sign.general_eps_diag([1], n),
     1, gf2sign.MAX_SIZE),
    ("cli._cmd_seq",
     lambda n: cli._cmd_seq(argparse.Namespace(kind="s", count=n,
                                               format="plain")),
     1, cli.MAX_SEQ_COUNT),
] + [
    ("cli._check_suite_sizes",
     lambda n, name=name: cli._check_suite_sizes([name], n), 1, limit)
    for name, (_, limit, _) in cli._SUITES.items() if limit is not None
] + [
    ("seq.fold_stream", seq.fold_stream, 1, seq.MAX_WORD_INDEX),
    ("catalanz.catalan_triangle", catalanz.catalan_triangle,
     1, catalanz.MAX_TRIANGLE_ROWS),
]

# guards on a length or a shape, which has no value below 0
ABOVE_ONLY = [
    ("catalanz.nilpotent_exp",
     lambda n: catalanz.nilpotent_exp(np.zeros((n, n), dtype=object)),
     0, catalanz.MAX_MATRIX_SIZE),
    ("catalanz.nilpotent_log",
     lambda n: catalanz.nilpotent_log(np.zeros((n, n), dtype=object)),
     0, catalanz.MAX_MATRIX_SIZE),
    ("cfseries.word_matrix",
     lambda n: cfseries.word_matrix([seq.FoldLetter(1, 1)] * n),
     0, cfseries.MAX_WORD_LEN),
]
CASES = ([(*row, (row[2] - 1, row[3] + 1)) for row in SITES]
         + [(*row, (row[3] + 1,)) for row in ABOVE_ONLY])

# functions a call may pass through on its way to its guard
_PASS_THROUGH = {"check_range", "<genexpr>", "hankel_bits"}


def test_table_covers_every_check_range_site():
    assert ({f"{path[:-3]}.{owner}"
             for path, owner in calls_in_package("check_range")}
            == {site for site, *_ in CASES})


def _refused(call, value, lo, hi):
    """Names of the package functions entered by call(value), which must
    raise SizeGuardError naming the range [lo, hi] and the value."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(str(SRC)):
            entered.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        with pytest.raises(SizeGuardError) as info:
            call(value)
    finally:
        sys.setprofile(None)
    assert str(info.value).endswith(
        f"must be in [{lo}, {hi}], got {value}"), str(info.value)
    return entered


@pytest.mark.parametrize("site, call, lo, hi, values", CASES,
                         ids=[f"{site}-{i}" for i, (site, *_)
                              in enumerate(CASES)])
def test_guard_refuses_out_of_range_before_any_work(site, call, lo, hi,
                                                    values):
    for value in values:
        entered = _refused(call, value, lo, hi)
        assert entered - _PASS_THROUGH <= {site.split(".")[1]}, entered


@pytest.mark.parametrize("name", [name for name, (_, limit, _)
                                  in cli._SUITES.items() if limit is not None])
def test_suite_limit_is_its_verifiers_guard(name):
    # verify checks --size against the table's copy of the limit; the
    # suite's verifier refuses limit + 1 with the same range, before work
    run, limit, _ = cli._SUITES[name]
    entered = _refused(lambda n: run(n, None), limit + 1, 1, limit)
    verifier = entered - _PASS_THROUGH - {"<lambda>"}
    assert len(verifier) == 1 and verifier.pop().startswith("verify_"), entered


@pytest.mark.parametrize("name", [name for name, (_, _, clamp)
                                  in cli._SUITES.items() if clamp is not None])
def test_suite_clamp_is_admitted_by_its_verifier(name):
    run, _, clamp = cli._SUITES[name]
    report = run(clamp, random.Random(0))
    assert report.ok and report.size == clamp


@pytest.mark.parametrize("values, zero_order", [
    ([0] + [random.Random(25).choice((-1, 1)) for _ in range(4096)], 1),
    ([1, 2, 4, 3, 5] + [1] * 4096, 2),
])
def test_hankel_minors_past_a_zero_minor_is_held_before_det_int(
        monkeypatch, values, zero_order):
    # past the first zero minor every larger order is a det_int of its own,
    # so the size is held to MAX_DET_FALLBACK_SIZE, checked before the first
    calls = []
    real = cfseries.det_int

    def counted(mat):
        calls.append(len(mat))
        return real(mat)

    monkeypatch.setattr(cfseries, "det_int", counted)
    limit = cfseries.MAX_DET_FALLBACK_SIZE
    for n in (limit + 1, cfseries.MAX_DET_SIZE):
        with pytest.raises(SizeGuardError, match=(
                rf"zero minor of order {zero_order} must be in "
                rf"\[1, {limit}\], got {n}$")):
            cfseries.hankel_minors(values.__getitem__, n)
    assert calls == []
    minors = cfseries.hankel_minors(values.__getitem__, limit)
    assert len(minors) == limit and minors[zero_order - 1] == 0
    assert calls == list(range(zero_order + 1, limit + 1))
