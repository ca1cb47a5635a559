"""Command-line front end: generate objects and run verification suites."""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import sys
import time
from functools import partial

from . import catalanz, cfseries, gf2sign, seq
from .errors import NoConvergenceError, SizeGuardError, check_range
from .report import VerifyReport

DEFAULT_SIZE = 256
# seq --kind s --count 1000000, one of the slowest kinds: 1.5 s and 180 MB
# peak RSS (the recursions' caches) on a 2-vCPU Xeon (Python 3.11)
MAX_SEQ_COUNT = 1_000_000
# letters written per chunk by the word command
_WORD_CHUNK = 1 << 16

_SEQ_KINDS = {
    "s": (0, seq.s),
    "stilde": (0, seq.s_tilde),
    "ttilde": (0, seq.t_tilde),
    "mu": (0, seq.mu),
    "b0": (0, seq.b0),
    "d": (1, seq.d),
    "example1": (1, seq.example1_sign),
}

# matrix --kind and hankel --source: name -> builder of the size-n matrix,
# in --help order
_MATRICES = {
    "L": partial(gf2sign.build_tri, gf2sign.L),
    "Ltilde": partial(gf2sign.build_tri, gf2sign.LTILDE),
    "Ltilde0": partial(gf2sign.build_tri, gf2sign.LTILDE0),
    "M": partial(gf2sign.build_tri, gf2sign.M),
    "Mtilde": partial(gf2sign.build_tri, gf2sign.MTILDE),
    "Mtilde0": partial(gf2sign.build_tri, gf2sign.MTILDE0),
    "LZ": partial(catalanz.build_catalan_matrix, catalanz.LZ),
    "LtildeZ": partial(catalanz.build_catalan_matrix, catalanz.LTILDEZ),
    "MZ": partial(catalanz.build_catalan_matrix, catalanz.MZ),
    "MtildeZ": partial(catalanz.build_catalan_matrix, catalanz.MTILDEZ),
}
_HANKELS = {
    "mu": partial(gf2sign.hankel_bits, gf2sign.MU_SHIFT0),
    "mu-shift": partial(gf2sign.hankel_bits, gf2sign.MU_SHIFT1),
    "catalan": partial(catalanz.build_catalan_matrix, catalanz.H_CAT),
    "catalan-shift": partial(catalanz.build_catalan_matrix,
                             catalanz.H_CAT_SHIFT),
}


def _print_matrix(mat, fmt: str) -> None:
    """Print a matrix; plain and csv rows are written one at a time, each
    entry in its own width."""
    if fmt == "json":
        print(json.dumps([[int(v) for v in row] for row in mat]))
        return
    sep = "," if fmt == "csv" else " "
    for row in mat:
        print(sep.join(str(int(v)) for v in row))


def _emit_values(values: list, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(values)
    if fmt == "csv":
        return ",".join(str(v) for v in values)
    return " ".join(str(v) for v in values)


def _cmd_seq(args) -> int:
    check_range("count", args.count, 1, MAX_SEQ_COUNT)
    start, fn = _SEQ_KINDS[args.kind]
    values = [fn(n) for n in range(start, start + args.count)]
    print(_emit_values(values, args.format))
    return 0


def _letter_str(letter: seq.FoldLetter) -> str:
    return f"{'-' if letter.sign < 0 else ''}x{letter.var_index}"


def _cmd_word(args) -> int:
    if (args.level is None) == (args.index is None):
        raise SystemExit(_usage_error("word needs exactly one of --level/--index"))
    if args.level is not None:
        letters = seq.fold_word(args.level)
    else:
        letters = [seq.fold_stream(args.index)]
    # W_k has only 2k distinct letters: each is formatted once, and the
    # output is written in chunks of references to those strings, so no
    # string of the whole word is built
    if args.format == "json":
        text = {let: json.dumps(list(let)) for let in set(letters)}
        head, sep, tail = "[", ", ", "]"
    else:
        text = {let: _letter_str(let) for let in set(letters)}
        head, sep, tail = "", "," if args.format == "csv" else " ", ""
    print(head, end="")
    for start in range(0, len(letters), _WORD_CHUNK):
        chunk = letters[start:start + _WORD_CHUNK]
        print(sep if start else "", sep.join(map(text.__getitem__, chunk)),
              sep="", end="")
    print(tail)
    return 0


def _cmd_matrix(args) -> int:
    _print_matrix(_MATRICES[args.kind](args.size), args.format)
    return 0


def _cmd_hankel(args) -> int:
    _print_matrix(_HANKELS[args.source](args.size), args.format)
    return 0


def _cmd_cf(args) -> int:
    series = cfseries.cf_limit_example(args.example, args.order)
    print(_emit_values(series.to_strings(), args.format))
    return 0


def _cmd_jacobi(args) -> int:
    cf = cfseries.stieltjes_extract(seq.mu, args.depth)
    a = [str(v) for v in cf.a]
    b = [str(v) for v in cf.b]
    if args.format == "json":
        print(json.dumps({"a": a, "b": b}))
    else:
        print("a: " + _emit_values(a, args.format))
        print("b: " + _emit_values(b, args.format))
    return 0


def _cmd_dets(args) -> int:
    values = cfseries.hankel_minors(seq.mu, args.max)
    print(_emit_values(values, args.format))
    return 0


def _cmd_unique(args) -> int:
    if (args.check is None) == (args.search is None):
        raise SystemExit(_usage_error("unique needs exactly one of --check/--search"))
    if args.check is not None:
        c = []
        for tok in args.check.split(","):
            try:
                c.append(int(tok))
            except ValueError:
                raise SystemExit(_usage_error(
                    f"--check takes comma-separated integers, got {tok!r}"
                )) from None
        result = cfseries.uniqueness_check(c)
        if args.format == "json":
            print(json.dumps({"pass": result.ok, "eps": result.eps,
                              "fail_index": result.fail_index,
                              "which": result.which}))
        elif result.ok:
            print("PASS eps=" + ",".join(str(e) for e in result.eps))
        else:
            print(f"FAIL n={result.fail_index} which={result.which}")
        return 0 if result.ok else 1
    survivors = cfseries.uniqueness_search(args.search)
    if args.format == "json":
        print(json.dumps([list(svr) for svr in survivors]))
    else:
        for svr in survivors:
            print(",".join(str(v) for v in svr))
    return 0


def _run_eps(n: int, rng: random.Random) -> VerifyReport:
    """verify_eps for 10 sign sequences eps drawn from rng, eps_0 = 1."""
    report = VerifyReport("eps", n)
    for _ in range(10):
        eps = [1] + [rng.choice((-1, 1)) for _ in range(n.bit_length())]
        report.merge(gf2sign.verify_eps(eps, n))
    return report


def _run_unique_search(_size: int, _rng: random.Random) -> VerifyReport:
    """The survivors of length 8 are the +-1-at-indices-2^k-1 sequences,
    zero elsewhere."""
    length = 8
    report = VerifyReport("unique-search", length)
    survivors = set(cfseries.uniqueness_search(length))
    slots = [m for m in range(length) if seq.mu(m)]
    expected = set()
    for signs in itertools.product((-1, 1), repeat=len(slots)):
        cand = [0] * length
        for m, sign in zip(slots, signs):
            cand[m] = sign
        expected.add(tuple(cand))
    for extra in sorted(survivors - expected):
        report.add(0, 0, "not a survivor", list(extra))
    for missing in sorted(expected - survivors):
        report.add(0, 0, list(missing), "missing survivor")
    return report


# suite -> (runner, limit, clamp).  The runner takes the size the suite runs
# at and the verify call's seeded Random.  A suite with a limit admits --size
# in [1, limit] and runs at it; a suite with a clamp admits any --size >= 1
# and runs at min(size, clamp); a suite with neither ignores --size.
_SUITES = {
    "thm1": (lambda _n, _: cfseries.verify_thm1(), None, None),
    "thm2": (lambda n, _: gf2sign.verify_thm2(n), gf2sign.MAX_SIZE, None),
    "thm3": (lambda n, _: gf2sign.verify_thm3(n), gf2sign.MAX_SIZE, None),
    "thm4": (lambda n, _: cfseries.verify_thm4(n), None, 48),
    "thm5": (lambda n, _: gf2sign.verify_thm5(n), gf2sign.MAX_SIZE, None),
    "mdl": (lambda n, _: gf2sign.verify_prop_mdl(n), gf2sign.MAX_SIZE, None),
    "ml-lm": (lambda n, _: gf2sign.verify_prop_ml_lm(n),
              gf2sign.MAX_ML_LM_SIZE, None),
    "babab": (lambda n, _: gf2sign.verify_babab(n), gf2sign.MAX_BABAB_SIZE,
              None),
    "lemma5": (lambda _n, _: cfseries.verify_lemma5(4), None, None),
    "catalan-lu": (lambda n, _: catalanz.verify_catalan_lu(n), None, 64),
    "exp-products": (lambda n, _: catalanz.verify_exp_products(n), None, 48),
    "log-conjecture": (lambda n, _: catalanz.check_log_conjecture(n), None,
                       48),
    "eps": (_run_eps, None, 64),
    "dets": (lambda n, _: cfseries.verify_det_identities(n), None, 32),
    "unique-search": (_run_unique_search, None, None),
}


def _check_suite_sizes(names: list[str], size: int) -> None:
    for name in names:
        _, limit, clamp = _SUITES[name]
        if limit is not None:
            check_range(f"suite {name}: size", size, 1, limit)
        elif clamp is not None and size < 1:
            raise SizeGuardError(
                f"suite {name}: size must be at least 1, got {size}")


def _cmd_verify(args) -> int:
    if args.suite != "all" and args.suite not in _SUITES:
        raise SystemExit(_usage_error(f"unknown suite {args.suite!r}"))
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    _check_suite_sizes(names, args.size)
    rng = random.Random(args.seed)
    results = []
    failed = False
    for name in names:
        run, _, clamp = _SUITES[name]
        t0 = time.perf_counter()
        report = run(args.size if clamp is None else min(args.size, clamp),
                     rng)
        elapsed_ms = int((time.perf_counter() - t0) * 1000)
        entry = report.as_dict()
        entry["elapsed_ms"] = elapsed_ms
        if name == "thm1":
            entry["orders"] = list(cfseries.THM1_ORDERS)
        results.append(entry)
        if not report.ok and (args.strict or not report.conjecture):
            failed = True
    if args.format == "json":
        print(json.dumps(results if args.suite == "all" else results[0]))
    else:
        for entry in results:
            status = "pass" if entry["pass"] else "FAIL"
            tag = " (conjecture)" if entry.get("conjecture") else ""
            print(f"suite={entry['suite']} size={entry['size']} {status}{tag}")
            for f in entry["failures"][:20]:
                print(f"  ({f['i']},{f['j']}): expected {f['expected']}, "
                      f"got {f['got']}")
    return 1 if failed else 0


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foldcat",
        description="Exact paperfolding / Catalan-mod-2 toolkit")
    parser.add_argument("--format", choices=("plain", "csv", "json"),
                        default="plain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print a named sequence prefix")
    p.add_argument("--kind", choices=sorted(_SEQ_KINDS), required=True)
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(fn=_cmd_seq)

    p = sub.add_parser("word", help="print a folding word or letter")
    p.add_argument("--level", type=int)
    p.add_argument("--index", type=int)
    p.set_defaults(fn=_cmd_word)

    p = sub.add_parser("matrix", help="print a triangular matrix")
    p.add_argument("--kind", choices=_MATRICES, required=True)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("hankel", help="print a Hankel matrix")
    p.add_argument("--source", choices=_HANKELS, required=True)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(fn=_cmd_hankel)

    p = sub.add_parser("cf", help="continued-fraction limit of an example")
    p.add_argument("--example", type=int, choices=cfseries.EXAMPLES,
                   required=True)
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(fn=_cmd_cf)

    p = sub.add_parser("jacobi", help="Jacobi coefficients of the mu moments")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=_cmd_jacobi)

    p = sub.add_parser("dets", help="Hankel determinants of mu")
    p.add_argument("--max", type=int, required=True)
    p.set_defaults(fn=_cmd_dets)

    p = sub.add_parser("unique", help="Hankel uniqueness check/search")
    p.add_argument("--check")
    p.add_argument("--search", type=int)
    p.set_defaults(fn=_cmd_unique)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", required=True)
    p.add_argument("--size", type=int, default=DEFAULT_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(fn=_cmd_verify)
    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    # argparse takes "-1,1,0,1" for an option, not a value, so a --check
    # sequence that starts with a negative entry is joined to its flag, in
    # full or abbreviated as unique's parser accepts it (--c .. --chec)
    argv = list(argv)
    for i in range(len(argv) - 1, 0, -1):
        flag = argv[i - 1]
        if len(flag) > 2 and "--check".startswith(flag) \
                and "unique" in argv[:i - 1] and re.match(r"-\d", argv[i]):
            argv[i - 1:i + 1] = ["--check=" + argv[i]]
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:  # argparse usage errors and explicit exits
        return exc.code if isinstance(exc.code, int) else 2
    except (NoConvergenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
