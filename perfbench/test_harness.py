"""Self-test of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py

Checks that tracing changes no task output, that every patched name gets
its original back, that self times add up within each span, and that the
benchmark refuses to run without a source tree.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import foldcat.cli  # noqa: E402,F401
from foldcat import catalanz  # noqa: E402
from foldcat.report import VerifyReport  # noqa: E402

import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _small_steps():
    """Every gf2sign verifier at sizes 1..128, a full CLI verify at 32 and
    the Catalan series mod 2, which between them call every traced name."""
    gf_mod2 = workloads.Step("catalan_gf_mod2",
                             lambda: catalanz.catalan_gf_mod2(64),
                             lambda bits: None)
    return (workloads.steps("gf2-sweep", 5)
            + [workloads.cli_verify_step(5, 32), gf_mod2])


def _namespaces():
    mods = [m for name, m in sys.modules.items()
            if name == "foldcat" or name.startswith("foldcat.")]
    return [*mods, VerifyReport]


def _traced_pass():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return tracer, child.run_pass(_small_steps(), tracer)
    finally:
        tracer.uninstall()


def test_tracing_changes_no_output():
    plain = child.run_pass(_small_steps())
    tracer, traced = _traced_pass()
    assert not plain["failures"] and not traced["failures"]
    assert traced["outputs"] == plain["outputs"]
    layers = tracer.layer_metrics()
    for path in tracing.TIMED + tracing.COUNTED[:-1]:
        assert layers[f"{path}.calls"] > 0, path
    assert layers["report.failures"] == 0


def test_originals_restored():
    before = [(ns, dict(vars(ns))) for ns in _namespaces()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from foldcat import binom2, gf2sign
        assert gf2sign.binom_mod2_grid is binom2.binom_mod2_grid
        assert gf2sign.binom_mod2_grid.__wrapped__ is not None
        assert len(tracer.patches) > len(tracing.TIMED) + len(tracing.COUNTED)
    finally:
        tracer.uninstall()
    for ns, attrs in before:
        for key, value in attrs.items():
            assert vars(ns)[key] is value, f"{ns.__name__}.{key}"


def test_self_times_fit_within_each_span():
    tracer, _ = _traced_pass()
    own = tracer.self_times()
    subtree = list(own)
    for sid in range(len(tracer.spans) - 1, -1, -1):
        parent = tracer.spans[sid][3]
        if parent >= 0:
            subtree[parent] += subtree[sid]
    for sid, (_, start, end, _, _) in enumerate(tracer.spans):
        assert own[sid] >= -1e-9
        assert subtree[sid] <= end - start + 1e-9


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gf2-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
