"""Benchmark entry point: one workload, run in fresh child interpreters.

    python3 perfbench/run.py --workload gf2-sweep --seed 1 --seconds 35 \
        --trace 0

Run from the root of a source checkout; foldcat is imported from its
``src/``.  Children run one at a time, each a single thread, so the load
fits a 2-core machine.  A new pass starts only while it is expected to end
within ``--seconds`` of the first (there is always at least one).  With
``--trace 0`` it reports the end-to-end metrics that BENCHMARK.json lists;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, the tracing overhead and whether the workload's
predicted dominant layer held.  The last line of standard output is the
JSON result; the human-readable lines above it and ``perfbench/out/`` hold
the rest.  Exits 1 without a result when a child fails, and 2 when there is
no source tree to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("verify-all-768", "gf2-sweep", "exact-rational")
SETUP_PROBES = 10
# Time a run may take beyond 2 * --seconds: the setup probes plus the pass
# that ends past --seconds (a traced pair on verify-all-768 is about 35 s).
# With --seconds 35 a run is cut at 170 s.
DEADLINE_SLACK_S = 100
CHILD_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
             "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# The verifiers whose self time is products plus compare; verify_babab
# only compares two expansions and does no products.
PRODUCT_VERIFIERS = ("verify_thm2", "verify_thm3", "verify_thm5",
                     "verify_prop_mdl", "verify_prop_ml_lm", "verify_eps")
NOTE_WAITS = ("no wait times: every layer runs in one thread of one child "
              "process, one child at a time, with no queues between layers")


class BenchError(RuntimeError):
    pass


def _on_alarm(signum, frame):
    raise TimeoutError


def run_child(args: list[str], deadline: float) -> dict:
    """Spawn child.py, wait for it with wait4 and return its JSON result
    with setup_s (spawn to import done) and peak_rss_mb added."""
    path = os.path.join(OUT, f"child-{os.getpid()}.json")
    actions = [(os.POSIX_SPAWN_OPEN, 1, path,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    argv = [sys.executable, os.path.join(HERE, "child.py"), SRC, *args]
    env = {**os.environ, **CHILD_ENV}
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(max(1, math.ceil(deadline - time.monotonic())))
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise BenchError(f"child {args[:2]} ran past the run's deadline")
    finally:
        signal.alarm(0)
    code = os.waitstatus_to_exitcode(status)
    with open(path) as fh:
        text = fh.read()
    os.remove(path)
    if code != 0:
        raise BenchError(f"child {args[:2]} exited with code {code}")
    result = json.loads(text.splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def _another(begin: float, last_start: float, seconds: float) -> bool:
    """Whether a pass as long as the last one would still end in time."""
    now = time.monotonic()
    return now + (now - last_start) - begin <= seconds


def untraced_run(workload: str, seed: int, seconds: float,
                 deadline: float) -> tuple[dict, list[dict], dict, float]:
    probes = [run_child(["setup", "0", "0"], deadline)
              for _ in range(SETUP_PROBES)]
    passes = []
    begin = last = time.monotonic()
    while not passes or _another(begin, last, seconds):
        last = time.monotonic()
        passes.append(run_child([workload, str(seed), "0"], deadline))
    tasks_ms = [s * 1000 for p in passes for s in p["task_seconds"]]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes + passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "task_p50_ms": statistics.median(tasks_ms),
        "task_p95_ms": percentile(tasks_ms, 95),
    }
    samples = {"setup_s": len(probes) + len(passes), "wall_s": len(passes),
               "peak_rss_mb": len(passes), "task_p50_ms": len(tasks_ms),
               "task_p95_ms": len(tasks_ms)}
    host_ref = statistics.median(p["host_ref_ms"] for p in probes)
    return metrics, passes, samples, host_ref


def predictions(workload: str, m: dict) -> list[dict]:
    """Each workload's stated dominant layer, checked on the traced passes."""
    wall = m["trace.wall_s"]
    verifier = sum(m[f"gf2sign.{v}.self_s"] for v in PRODUCT_VERIFIERS)
    if workload == "verify-all-768":
        checks = [("gf2sign product-verifier self time is most of wall_s",
                   verifier, wall / 2, f"{verifier:.4f} s of {wall:.4f} s")]
    elif workload == "gf2-sweep":
        # As the prediction is worded, and with construction counted in full
        # (build_tri's grid is its own binom2 span) against the verifiers
        # that do products.
        stated = m["gf2sign.babab_expand.self_s"] + m["gf2sign.build_tri.self_s"]
        with_babab = verifier + m["gf2sign.verify_babab.self_s"]
        built = stated + m["binom2.binom_mod2_grid.self_s"]
        checks = [
            ("babab_expand + build_tri self time exceeds every verifier's "
             "self time", stated, with_babab,
             f"{stated:.4f} s vs {with_babab:.4f} s"),
            ("babab_expand + build_tri + binom_mod2_grid self time exceeds "
             "product-verifier self time", built, verifier,
             f"{built:.4f} s vs {verifier:.4f} s")]
    else:
        gf2 = m["gf2sign.self_s"]
        checks = [("gf2sign self time is near zero (under 1% of wall_s)",
                   wall / 100, gf2, f"{gf2:.4f} s of {wall:.4f} s")]
    return [{"claim": claim, "held": big > small, "detail": detail}
            for claim, big, small, detail in checks]


def traced_run(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, list[dict], dict]:
    spans_out = os.path.join(OUT, f"spans-{workload}.json")
    plain, traced = [], []
    begin = last = time.monotonic()
    while not traced or _another(begin, last, seconds):
        last = time.monotonic()
        plain.append(run_child([workload, str(seed), "0"], deadline))
        extra = [] if traced else [spans_out]
        traced.append(run_child([workload, str(seed), "1", *extra], deadline))
    metrics = {name: statistics.median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        p["wall_s"] for p in plain)
    return metrics, plain + traced, predictions(workload, metrics)


def git_commit() -> str:
    """HEAD of the checkout, with " (dirty)" when src/ has changes that are
    not committed."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        top, head = git("rev-parse", "--show-toplevel", "HEAD").splitlines()
        dirty = git("status", "--porcelain", "--", "src")
    except (OSError, ValueError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    if os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return head + (" (dirty)" if dirty else "")


def environment(child: dict) -> dict:
    """Interpreter, library, machine and commit facts."""
    env = {"python": child["python"], "numpy": child["numpy"],
           "nproc": len(os.sched_getaffinity(0)),
           "cpu_count": os.cpu_count(), "commit": git_commit()}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip()
                                     for line in fh if
                                     line.startswith("model name")), "unknown")
    except OSError:
        env["cpu_model"] = "unknown"
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key)) as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        caches[f"L{fields['level']}-{fields['type']}"] = fields["size"]
    env["caches"] = caches
    return env


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "foldcat", "__init__.py")):
        print(f"error: no foldcat source tree under {SRC}", file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + 2 * args.seconds + DEADLINE_SLACK_S
    try:
        if args.trace:
            metrics, passes, pred = traced_run(
                args.workload, args.seed, args.seconds, deadline)
            declared, samples, host_ref = spec["per_layer"], {}, None
        else:
            metrics, passes, samples, host_ref = untraced_run(
                args.workload, args.seed, args.seconds, deadline)
            declared, pred = spec["end_to_end"], None
        missing = [d["name"] for d in declared if d["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)

    attempted = sum(len(p["task_seconds"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    same_output = len({p["digest"] for p in passes}) == 1
    reported = {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                for d in declared}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes),
        "environment": environment(passes[0]),
        "metrics": reported, "samples": samples, "host_ref_ms": host_ref,
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        "same_output_every_pass": same_output, "predictions": pred,
        "notes": [NOTE_WAITS],
    }
    with open(os.path.join(OUT, f"result-{args.workload}-trace{args.trace}"
                                f".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, commit {record['environment']['commit']}")
    for name, entry in reported.items():
        extra = f"  ({samples[name]} samples)" if name in samples else ""
        print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}{extra}")
    print(f"  fail_ratio {len(failures)}/{attempted} = {record['fail_ratio']:g}"
          f"; same output on every pass: {same_output}")
    if host_ref is not None:
        print(f"  host_ref_ms {host_ref:.4g} ms (fixed loop outside foldcat, "
              f"median of {SETUP_PROBES}: host speed during the run)")
    for p in pred or ():
        print(f"  prediction {'held' if p['held'] else 'FAILED'}: "
              f"{p['claim']} ({p['detail']})")
    print(f"  {NOTE_WAITS}")
    print(json.dumps({"correct": not failures and same_output,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": reported}))


if __name__ == "__main__":
    main()
