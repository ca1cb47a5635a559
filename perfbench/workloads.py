"""The benchmark's workloads: the calls each one makes into foldcat and the
known answer every call must give.

A workload is a list of steps, each one task: one call into the library
and a check of its output against a known answer.  Every input is drawn
here, from the seed, before the timed pass begins, so the library only ever
sees the generated inputs.

Steps look library functions up as module attributes at call time, so the
tracer's wrappers are the ones called in a traced pass.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from typing import Callable, NamedTuple

from foldcat import binom2, catalanz, cfseries, cli, gf2sign

CLI_SIZE = 768
SWEEP_SIZES = range(1, 129)
SWEEP_VERIFIERS = ("verify_thm2", "verify_thm3", "verify_thm5",
                   "verify_prop_mdl", "verify_prop_ml_lm", "verify_babab")
ALL_SUITES = ("thm1", "thm2", "thm3", "thm4", "thm5", "mdl", "ml-lm",
              "babab", "lemma5", "catalan-lu", "exp-products",
              "log-conjecture", "eps", "dets", "unique-search")
UNIQUE_LENGTH = 10
GF_ORDER = 1 << 16


class Step(NamedTuple):
    """One task: a call into foldcat and the check of its known answer."""
    name: str
    call: Callable[[], object]
    # the reason the output is wrong, or None when it is right
    check: Callable[[object], "str | None"]
    # JSON-ready form of the output without run-dependent timings; traced
    # and untraced passes must agree on it
    canonical: Callable[[object], object] = lambda output: output


def _report_step(name: str, call: Callable[[], object]) -> Step:
    return Step(name, call,
                lambda report: None if report.ok
                else f"{len(report.failures)} failures",
                lambda report: report.as_dict())


def _answer_step(name: str, call: Callable[[], object], want) -> Step:
    return Step(name, call, lambda got: None if got == want else "wrong answer")


def cli_verify_step(seed: int, size: int = CLI_SIZE) -> Step:
    """``foldcat --format json verify --suite all`` as one task."""
    argv = ["--format", "json", "verify", "--suite", "all",
            "--size", str(size), "--seed", str(seed)]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        return code, out.getvalue()

    def check(output):
        code, text = output
        try:
            passed = {e["suite"]: e["pass"] for e in json.loads(text)}
        except (ValueError, TypeError, KeyError):
            passed = {}
        bad = [suite for suite in ALL_SUITES if passed.get(suite) is not True]
        if code != 0 or bad or len(passed) != len(ALL_SUITES):
            return f"exit code {code}; suites not passing: {bad}"
        return None

    def canonical(output):
        code, text = output
        try:
            entries = json.loads(text)
        except ValueError:
            return [code, text]
        for entry in entries:
            entry.pop("elapsed_ms", None)
        return [code, entries]

    return Step("verify --suite all", call, check, canonical)


def _eps_draw(rng: random.Random, n: int) -> list[int]:
    return [1] + [rng.choice((-1, 1)) for _ in range(n.bit_length())]


def _sweep_steps(seed: int) -> list[Step]:
    rng = random.Random(seed)
    steps = []
    for n in SWEEP_SIZES:
        for fname in SWEEP_VERIFIERS:
            steps.append(_report_step(
                f"{fname}@{n}", lambda f=fname, n=n: getattr(gf2sign, f)(n)))
        eps = _eps_draw(rng, n)
        steps.append(_report_step(
            f"verify_eps@{n}", lambda e=eps, n=n: gf2sign.verify_eps(e, n)))
    return steps


def unique_patterns(length: int) -> list[tuple[int, ...]]:
    """The +-1-at-indices-2^k-1 sequences, zero elsewhere."""
    slots = [m for m in range(length) if (m + 1) & m == 0]
    out = []
    for signs in itertools.product((-1, 1), repeat=len(slots)):
        cand = [0] * length
        for m, sign in zip(slots, signs):
            cand[m] = sign
        out.append(tuple(cand))
    return sorted(out)


def _exact_steps(seed: int) -> list[Step]:
    catalan_bits = [binom2.catalan_is_odd(k) for k in range(GF_ORDER)]
    steps = [
        _report_step("verify_thm1",
                     lambda: cfseries.verify_thm1((2400, 1000, 3000))),
        _report_step("verify_thm4", lambda: cfseries.verify_thm4(63)),
        _report_step("verify_det_identities",
                     lambda: cfseries.verify_det_identities(96)),
        _report_step("verify_lemma5", lambda: cfseries.verify_lemma5(5)),
        _answer_step("uniqueness_search",
                     lambda: sorted(cfseries.uniqueness_search(UNIQUE_LENGTH)),
                     unique_patterns(UNIQUE_LENGTH)),
        _report_step("verify_catalan_lu",
                     lambda: catalanz.verify_catalan_lu(128)),
        _report_step("verify_exp_products",
                     lambda: catalanz.verify_exp_products(64)),
        _report_step("check_log_conjecture",
                     lambda: catalanz.check_log_conjecture(64)),
        _answer_step("catalan_gf_mod2",
                     lambda: catalanz.catalan_gf_mod2(GF_ORDER), catalan_bits),
    ]
    # the seed orders the calls, which changes what the seq caches hold
    # when each call starts but not the work done
    random.Random(seed).shuffle(steps)
    return steps


def steps(workload: str, seed: int) -> list[Step]:
    """The steps of one pass of the named workload, inputs drawn from seed."""
    if workload == "verify-all-768":
        return [cli_verify_step(seed)]
    if workload == "gf2-sweep":
        return _sweep_steps(seed)
    if workload == "exact-rational":
        return _exact_steps(seed)
    raise ValueError(f"unknown workload {workload!r}")
