"""Command-line interface: output formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from foldcat import catalanz, cfseries, cli, errors, gf2sign, seq


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_elapsed(text):
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)


def test_seq_s_prefix(capsys):
    code, out, _ = run_cli(capsys, "seq", "--kind", "s", "--count", "6")
    assert code == 0
    assert out == "1 1 -1 1 -1 -1\n"


def test_seq_formats(capsys):
    _, out, _ = run_cli(capsys, "--format", "csv",
                        "seq", "--kind", "mu", "--count", "8")
    assert out == "1,1,0,1,0,0,0,1\n"
    _, out, _ = run_cli(capsys, "--format", "json",
                        "seq", "--kind", "d", "--count", "5")
    assert json.loads(out) == [1, -2, 0, 0, 2]


def test_word_level_output(capsys):
    code, out, _ = run_cli(capsys, "word", "--level", "2")
    assert code == 0
    assert out == "-x1 x1 x2 -x2 x1 -x1\n"


def test_word_index_output(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "word", "--index", "3")
    assert code == 0
    assert json.loads(out) == [[2, 1]]


@pytest.mark.parametrize("index", [0, -3, seq.MAX_WORD_INDEX + 1])
def test_word_index_guard_names_index_and_range(capsys, index):
    code, out, err = run_cli(capsys, "word", "--index", str(index))
    assert code == 3
    assert out == ""
    assert (f"index must be in [1, {seq.MAX_WORD_INDEX}], got {index}"
            in err), err


@pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
def test_word_output_matches_letter_by_letter_oracle(capsys, fmt):
    # the text each letter had when every letter was formatted on its own
    letters = seq.fold_word(12)
    if fmt == "json":
        want = json.dumps([[let.var_index, let.sign] for let in letters])
    else:
        want = ("," if fmt == "csv" else " ").join(
            f"{'-' if let.sign < 0 else ''}x{let.var_index}"
            for let in letters)
    code, out, _ = run_cli(capsys, "--format", fmt, "word", "--level", "12")
    assert code == 0
    assert out == want + "\n"


def test_word_requires_exactly_one_selector(capsys):
    code, _, err = run_cli(capsys, "word")
    assert code == 2
    code, _, err = run_cli(capsys, "word", "--level", "1", "--index", "1")
    assert code == 2
    assert "exactly one" in err


def test_matrix_plain_golden_l8(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--kind", "L", "--size", "8")
    assert code == 0
    want = "\n".join(" ".join(str(v) for v in row)
                     for row in gf2sign.build_tri(gf2sign.L, 8).tolist())
    assert out == want + "\n"


def test_matrix_big_kind_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "matrix", "--kind", "LZ", "--size", "4")
    assert code == 0
    assert json.loads(out) == [[1, 0, 0, 0], [1, 1, 0, 0],
                               [2, 3, 1, 0], [5, 9, 5, 1]]


def test_matrix_size_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "matrix", "--kind", "L", "--size", "0")
    assert code == 3
    assert "error" in err


def test_hankel_output(capsys):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "hankel", "--source", "mu", "--size", "3")
    assert json.loads(out) == [[1, 1, 0], [1, 0, 1], [0, 1, 0]]
    code, out, _ = run_cli(capsys, "--format", "json",
                           "hankel", "--source", "catalan", "--size", "3")
    assert json.loads(out) == [[1, 1, 2], [1, 2, 5], [2, 5, 14]]


def test_hankel_plain_entries_are_not_padded(capsys):
    # padding every entry to the widest one (150 digits for C_254) printed
    # 2.47 MB here, and 160 MB for hankel --source catalan --size 512
    code, out, _ = run_cli(capsys, "hankel", "--source", "catalan",
                           "--size", "128")
    assert code == 0
    rows = catalanz.build_catalan_matrix(catalanz.H_CAT, 128).tolist()
    assert out == "".join(" ".join(map(str, row)) + "\n" for row in rows)
    assert len(out) < 1_250_000


def test_cf_example_output(capsys):
    code, out, _ = run_cli(capsys, "--format", "json",
                           "cf", "--example", "1", "--order", "20")
    assert code == 0
    coeffs = [int(c) for c in json.loads(out)]
    assert [k for k, c in enumerate(coeffs) if c] == [1, 2, 4, 8, 16]


def test_cf_order_guard(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the fraction ran for a rejected order")

    monkeypatch.setattr(cfseries, "cf_limit", no_work)
    limit = cfseries.MAX_CF_ORDER
    for value in ("0", "-1", str(limit + 1)):
        code, out, err = run_cli(capsys, "cf", "--example", "1",
                                 "--order", value)
        assert code == 3, value
        assert out == ""
        assert f"[1, {limit}]" in err and "Traceback" not in err


@pytest.mark.parametrize("exc", [
    errors.NoConvergenceError("no convergence"), ValueError("bad value"),
    errors.SizeGuardError("size out of range"),
    errors.NonUnitError("zero constant term"), errors.SingularMinorError(4),
    errors.InvariantError("an identity", (1, 2), 3, 4),
], ids=lambda exc: type(exc).__name__)
def test_library_errors_exit_3_without_traceback(capsys, monkeypatch, exc):
    def fail(*args):
        raise exc

    monkeypatch.setattr(cfseries, "cf_limit_example", fail)
    code, out, err = run_cli(capsys, "cf", "--example", "1", "--order", "8")
    assert code == 3
    assert out == ""
    assert err == f"error: {exc}\n"
    assert "Traceback" not in err


def test_seq_count_guard(capsys, monkeypatch):
    def no_work(n):
        raise AssertionError("the sequence ran for a rejected count")

    monkeypatch.setitem(cli._SEQ_KINDS, "s", (0, no_work))
    limit = cli.MAX_SEQ_COUNT
    for value in ("0", "-1", str(limit + 1)):
        code, out, err = run_cli(capsys, "seq", "--kind", "s",
                                 "--count", value)
        assert code == 3, value
        assert out == ""
        assert f"[1, {limit}]" in err and "Traceback" not in err


def test_jacobi_output(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "jacobi",
                           "--depth", "6")
    assert code == 0
    data = json.loads(out)
    assert data["a"] == ["1", "-2", "0", "0", "2", "0"]
    assert data["b"] == ["-1"] * 5


def test_jacobi_depth_guard_names_real_limit(capsys, monkeypatch):
    class Admitted(Exception):
        pass

    def no_work(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(cfseries, "_stieltjes", no_work)
    with pytest.raises(Admitted):
        run_cli(capsys, "jacobi", "--depth", "2047")
    for value in ("0", "2048"):
        code, out, err = run_cli(capsys, "jacobi", "--depth", value)
        assert code == 3, value
        assert out == ""
        assert "depth must be in [1, 2047]" in err
        assert "Traceback" not in err


def test_dets_output(capsys):
    code, out, _ = run_cli(capsys, "dets", "--max", "6")
    assert code == 0
    assert out == "1 -1 -1 1 1 -1\n"


def test_dets_guard_rejects_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the table ran for a rejected size")

    monkeypatch.setattr(cfseries, "_stieltjes", no_work)
    limit = cfseries.MAX_DET_SIZE
    for value in ("0", "-3", str(limit + 1)):
        code, out, err = run_cli(capsys, "dets", "--max", value)
        assert code == 3, value
        assert out == ""
        assert f"[1, {limit}]" in err and "Traceback" not in err


def test_unique_check_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "unique", "--check", "1,1,0,1,0,0,0")
    assert code == 0
    assert out.startswith("PASS eps=1,1,1")
    code, out, _ = run_cli(capsys, "unique", "--check", "1,1,1")
    assert code == 1
    assert out.startswith("FAIL")


def test_unique_check_takes_a_leading_negative_entry(capsys):
    # in full, or abbreviated as argparse accepts it
    for flag in ("--check", "--c", "--ch", "--che", "--chec"):
        code, out, err = run_cli(capsys, "unique", flag, "-1,1,0,1")
        assert (code, out, err) == (0, "PASS eps=-1,1,1\n", ""), flag


def test_seq_count_abbreviation_is_not_taken_for_check(capsys):
    # --c abbreviates --count in seq, so its negative value reaches the guard
    code, out, err = run_cli(capsys, "seq", "--kind", "mu", "--c", "-5")
    assert (code, out) == (3, "")
    assert "count must be in [1, " in err


def test_unique_search_output(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "unique",
                           "--search", "4")
    assert code == 0
    assert len(json.loads(out)) == 8


def test_unique_requires_exactly_one_mode(capsys):
    code, _, _ = run_cli(capsys, "unique")
    assert code == 2
    code, _, _ = run_cli(capsys, "unique", "--check", "1,1", "--search", "4")
    assert code == 2


def test_unique_check_bad_token_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "unique", "--check", "1,abc,0")
    assert code == 2
    assert out == ""
    assert "'abc'" in err and "Traceback" not in err


def test_unique_check_length_guard_rejects_before_any_work(capsys,
                                                           monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a determinant ran for a rejected length")

    monkeypatch.setattr(cfseries, "_stieltjes", no_work)
    monkeypatch.setattr(cfseries, "det_int", no_work)
    limit = cfseries.MAX_UNIQUE_LEN
    assert limit == 2 * cfseries.MAX_DET_SIZE
    for length in (1, limit + 1):
        code, out, err = run_cli(capsys, "unique", "--check",
                                 ",".join(["0"] * length))
        assert code == 3, length
        assert out == ""
        assert f"[2, {limit}], got {length}" in err
        assert "Traceback" not in err


# stdout of the commands whose plain and csv output goes through
# cli._emit_values, as they printed before that routing
_EMITTED = {
    ("cf", "--example", "1", "--order", "12"): (
        "0 1 1 0 1 0 0 0 1 0 0 0\n",
        "0,1,1,0,1,0,0,0,1,0,0,0\n",
        '["0", "1", "1", "0", "1", "0", "0", "0", "1", "0", "0", "0"]\n'),
    ("cf", "--example", "2", "--order", "12"): (
        "0 1 0 1 0 0 0 0 0 1 0 0\n",
        "0,1,0,1,0,0,0,0,0,1,0,0\n",
        '["0", "1", "0", "1", "0", "0", "0", "0", "0", "1", "0", "0"]\n'),
    ("cf", "--example", "3", "--order", "12"): (
        "0 1 1 0 0 0 1 0 0 0 0 0\n",
        "0,1,1,0,0,0,1,0,0,0,0,0\n",
        '["0", "1", "1", "0", "0", "0", "1", "0", "0", "0", "0", "0"]\n'),
    ("word", "--level", "3"): (
        "-x1 x1 x2 -x2 x1 -x1 x3 -x3 -x1 x1 -x2 x2 x1 -x1\n",
        "-x1,x1,x2,-x2,x1,-x1,x3,-x3,-x1,x1,-x2,x2,x1,-x1\n",
        "[[1, -1], [1, 1], [2, 1], [2, -1], [1, 1], [1, -1], [3, 1], "
        "[3, -1], [1, -1], [1, 1], [2, -1], [2, 1], [1, 1], [1, -1]]\n"),
    ("jacobi", "--depth", "8"): (
        "a: 1 -2 0 0 2 0 -2 0\nb: -1 -1 -1 -1 -1 -1 -1\n",
        "a: 1,-2,0,0,2,0,-2,0\nb: -1,-1,-1,-1,-1,-1,-1\n",
        '{"a": ["1", "-2", "0", "0", "2", "0", "-2", "0"], '
        '"b": ["-1", "-1", "-1", "-1", "-1", "-1", "-1"]}\n'),
}


@pytest.mark.parametrize("argv", list(_EMITTED))
def test_emitted_output_is_unchanged(capsys, argv):
    for fmt, want in zip(("plain", "csv", "json"), _EMITTED[argv]):
        code, out, _ = run_cli(capsys, "--format", fmt, *argv)
        assert code == 0
        assert out == want, fmt


@pytest.mark.parametrize("chunk", [1, 5, 13, 14, 15])
def test_word_output_is_the_same_in_any_chunks(capsys, monkeypatch, chunk):
    # the 14 letters of W_3 in chunks that split it anywhere, or not at all
    monkeypatch.setattr(cli, "_WORD_CHUNK", chunk)
    for fmt, want in zip(("plain", "csv", "json"),
                         _EMITTED[("word", "--level", "3")]):
        code, out, _ = run_cli(capsys, "--format", fmt, "word", "--level", "3")
        assert code == 0
        assert out == want, fmt


# every documented subcommand with small values, values at or below zero,
# and one above every guard's range
_VALUE = st.one_of(st.integers(-2, 64), st.just(cli.MAX_SEQ_COUNT + 1))


def _option(name, values=_VALUE):
    return values.map(lambda v: [name, str(v)])


def _choice(name, choices):
    return st.sampled_from(sorted(choices)).map(lambda v: [name, v])


_COMMANDS = st.one_of(*(
    st.tuples(st.just([command]), *options).map(lambda parts: sum(parts, []))
    for command, *options in (
        ("seq", _choice("--kind", cli._SEQ_KINDS), _option("--count")),
        ("word", _option("--level")),
        ("word", _option("--index", st.integers(-3, 64))),
        ("matrix", _choice("--kind", cli._MATRICES), _option("--size")),
        ("hankel", _choice("--source", cli._HANKELS), _option("--size")),
        ("cf", _option("--example", st.integers(0, 4)), _option("--order")),
        ("jacobi", _option("--depth")),
        ("dets", _option("--max")),
        ("unique", st.lists(st.integers(-2, 2), max_size=8).map(
            lambda c: ["--check", ",".join(map(str, c))])),
        ("unique", _option("--search")),
        ("verify", _choice("--suite", [*cli._SUITES, "all", "bogus"]),
         _option("--size")),
    )))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(fmt=st.sampled_from(["plain", "csv", "json"]), argv=_COMMANDS)
def test_every_command_exits_with_a_code_and_no_traceback(fmt, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["--format", fmt, *argv])
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv


def test_verify_checks_every_suite_size_before_running(capsys, monkeypatch):
    def boom(size, rng):
        raise AssertionError("a suite ran before the size checks")

    monkeypatch.setattr(cli, "_SUITES", {
        name: (boom, limit, clamp)
        for name, (_, limit, clamp) in cli._SUITES.items()})
    cases = [
        (["all", "0"], "suite thm2: size must be in [1, 16384], got 0"),
        (["all", "9000"], "suite ml-lm: size must be in [1, 8192]"),
        (["babab", "16384"], "suite babab: size must be in [1, 16383]"),
        (["thm3", "16385"], "suite thm3: size must be in [1, 16384]"),
        (["dets", "-2"], "suite dets: size must be at least 1"),
    ]
    for (suite, size), message in cases:
        code, out, err = run_cli(capsys, "verify", "--suite", suite,
                                 "--size", size)
        assert code == 3, (suite, size)
        assert out == ""
        assert message in err and "Traceback" not in err


def test_verify_single_suite_json_schema(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify",
                           "--suite", "thm2", "--size", "64")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"suite", "size", "pass", "failures", "elapsed_ms"}
    assert report["suite"] == "thm2"
    assert report["size"] == 64
    assert report["pass"] is True
    assert report["failures"] == []


def test_verify_order_included_when_nondefault(capsys):
    # verify has no --order: no suite reads one, and thm1's entry names the
    # orders it ran at
    code, out, err = run_cli(capsys, "--format", "json", "verify",
                             "--suite", "dets", "--size", "8", "--order", "16")
    assert code == 2
    assert out == ""
    assert "--order" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "--format", "json", "verify",
                           "--suite", "thm1")
    report = json.loads(out)
    assert code == 0 and report["pass"] is True
    assert report["orders"] == [600, 250, 750] == list(cfseries.THM1_ORDERS)
    assert report["size"] == max(cfseries.THM1_ORDERS)
    assert "order" not in report


def test_verify_plain_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "thm3", "--size", "32")
    assert code == 0
    assert out == "suite=thm3 size=32 pass\n"


def test_verify_conjecture_tagged(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "log-conjecture",
                           "--size", "16")
    assert code == 0
    assert "(conjecture)" in out


def test_verify_unknown_suite_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "unknown suite" in err


def test_verify_unique_search_reports_extra_and_missing(capsys, monkeypatch):
    # a search that loses one pattern sequence and finds one that is not a
    # pattern (it is nonzero at index 2)
    found = sorted(cfseries.uniqueness_search(8))
    monkeypatch.setattr(cfseries, "uniqueness_search",
                        lambda length: found[1:] + [(1,) * length])
    code, out, _ = run_cli(capsys, "--format", "json", "verify",
                           "--suite", "unique-search")
    assert code == 1
    assert json.loads(out)["failures"] == [
        {"i": 0, "j": 0, "expected": "not a survivor", "got": str([1] * 8)},
        {"i": 0, "j": 0, "expected": str(list(found[0])),
         "got": "missing survivor"},
    ]


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "verify",
                           "--suite", "all", "--size", "16", "--seed", "7")
    assert code == 0
    reports = json.loads(out)
    names = [r["suite"] for r in reports]
    assert names == ["thm1", "thm2", "thm3", "thm4", "thm5", "mdl", "ml-lm",
                     "babab", "lemma5", "catalan-lu", "exp-products",
                     "log-conjecture", "eps", "dets", "unique-search"]
    for r in reports:
        assert r["pass"] is True, r["suite"]


def test_verify_strict_with_seed(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "log-conjecture",
                         "--size", "16", "--seed", "7", "--strict")
    assert code == 0


def test_usage_errors(capsys):
    assert run_cli(capsys, )[0] == 2
    assert run_cli(capsys, "seq", "--kind", "nope", "--count", "3")[0] == 2
    assert run_cli(capsys, "bogus")[0] == 2


def test_generation_commands_are_deterministic(capsys):
    argvs = [
        ("seq", "--kind", "stilde", "--count", "12"),
        ("matrix", "--kind", "Mtilde", "--size", "16"),
        ("--format", "json", "unique", "--search", "6"),
        ("word", "--level", "4"),
    ]
    for argv in argvs:
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


def test_verify_deterministic_up_to_timing(capsys):
    argv = ("--format", "json", "verify", "--suite", "eps",
            "--size", "32", "--seed", "5")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert strip_elapsed(first) == strip_elapsed(second)


# Linux carries the high-water RSS of the process that spawns a child into
# the child's ru_maxrss at exec, so the CLI is spawned by a small
# intermediate interpreter, not by pytest, and its peak is read from that
# interpreter's RUSAGE_CHILDREN
_PEAK_RSS_SCRIPT = """
import json, resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "foldcat.cli", *sys.argv[1:]],
                      capture_output=True, text=True, timeout=120)
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps([proc.returncode, proc.stdout, proc.stderr, peak_kb]))
"""


def _cli_peak_rss(*argv):
    """(exit code, stdout, stderr, peak RSS in MB) of one CLI call."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_SCRIPT, *argv],
                          env=env, capture_output=True, text=True,
                          timeout=150)
    assert proc.returncode == 0, proc.stderr
    code, out, err, peak_kb = json.loads(proc.stdout)
    return code, out, err, peak_kb / 1024  # kB on Linux


def test_cli_peak_rss_excludes_the_test_process():
    argv = ("seq", "--kind", "s", "--count", "6")
    before = _cli_peak_rss(*argv)
    blob = b"\1" * (128 << 20)  # written, so this process's peak passes 128 MB
    try:
        assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss > 128 << 10
        after = _cli_peak_rss(*argv)
    finally:
        del blob
    assert before[:3] == after[:3] == (0, "1 1 -1 1 -1 -1\n", "")
    assert after[3] < 64 and abs(after[3] - before[3]) < 8


@pytest.mark.parametrize("suite", ["thm3", "ml-lm"])
def test_verify_2048_stays_small(suite):
    # the product suites stream over packed row blocks; with n x n int64
    # products these two peaked at 142 and 218 MB (about 30 MB of either
    # is the interpreter and numpy)
    code, out, err, peak_mb = _cli_peak_rss(
        "--format", "json", "verify", "--suite", suite, "--size", "2048")
    assert code == 0, err
    assert json.loads(out)["pass"] is True
    assert peak_mb < 80
