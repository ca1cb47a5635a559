"""One pass of one workload, in a fresh interpreter.

    child.py SRC WORKLOAD SEED TRACE [SPANS_OUT]

Imports foldcat from the source tree SRC, notes the monotonic time at which
the import was done, runs every step of the workload once (traced when TRACE
is 1) and prints one JSON object.  WORKLOAD ``setup`` stops after the import
and times a fixed loop that calls no foldcat code, which shows how fast the
host is running at the time.  run.py spawns it and reads the peak RSS from
wait4.
"""

import sys
import time


def run_pass(steps, tracer=None) -> dict:
    """Run the steps in order; a step that raises is a failed task."""
    clock = time.perf_counter
    seconds, failures, outputs = [], [], []
    first = end = clock()
    for index, step in enumerate(steps):
        start = clock()
        try:
            out = tracer.run_task(index, step.call) if tracer else step.call()
        except Exception as exc:  # noqa: BLE001 - counted as a failed task
            end = clock()
            err = f"raised {exc!r}"
            outputs.append(err)
        else:
            end = clock()
            err = step.check(out)
            outputs.append(step.canonical(out))
        seconds.append(end - start)
        if err is not None:
            failures.append([step.name, err])
    return {"wall_s": end - first, "task_seconds": seconds,
            "failures": failures, "outputs": outputs}


def host_ref_ms() -> float:
    """Time of a fixed pure-Python integer loop, in ms."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    return (time.perf_counter() - start) * 1000


def main() -> None:
    src, workload, seed, trace = sys.argv[1:5]
    sys.path.insert(0, src)
    import foldcat
    import foldcat.cli  # noqa: F401 - CLI users pay this import too
    ready = time.monotonic()

    import hashlib
    import json
    import os

    import numpy

    import tracer as tracing
    import workloads

    if os.path.dirname(os.path.dirname(os.path.realpath(foldcat.__file__))) \
            != os.path.realpath(src):
        sys.exit(f"foldcat was imported from {foldcat.__file__}, not {src}")
    result = {"ready": ready, "python": sys.version.split()[0],
              "numpy": numpy.__version__}
    if workload == "setup":
        result["host_ref_ms"] = host_ref_ms()
    else:
        steps = workloads.steps(workload, int(seed))
        tracer = tracing.Tracer() if trace == "1" else None
        if tracer:
            tracer.install()
        try:
            result.update(run_pass(steps, tracer))
        finally:
            if tracer:
                tracer.uninstall()
        outputs = json.dumps(result.pop("outputs"), sort_keys=True,
                             default=str)
        result["digest"] = hashlib.sha256(outputs.encode()).hexdigest()
        if tracer:
            result["layers"] = {**tracer.layer_metrics(),
                                **tracing.seq_cache_metrics()}
            if len(sys.argv) > 5:
                tracer.write_spans(sys.argv[5])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
