"""Run every workload untraced several times and traced once, print every
metric, and write the results to perfbench/baseline.json.

    python3 perfbench/baseline.py

Each run is ``perfbench/run.py`` with seed ``BASELINE_SEED`` and
BENCHMARK.json's ``run_seconds``; the runs go one after another.  A
baseline end-to-end value is the median of its ``UNTRACED_RUNS`` runs, so
one run taken while the host is slow or fast does not set it; the value of
every run is kept beside it, and so is each run's ``host_ref_ms`` (a fixed
loop outside foldcat), which records how fast the host was running.  The
printed table ends with the end-to-end metrics of every workload, the
tracing overhead and each workload's dominant-layer predictions.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE_SEED = 1
UNTRACED_RUNS = 5


def run(workload: str, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(BASELINE_SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
    with open(os.path.join(HERE, "out",
                           f"result-{workload}-trace{trace}.json")) as fh:
        return json.load(fh)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = [run(workload, 0, seconds) for _ in range(UNTRACED_RUNS)]
        end_to_end = {}
        for name, entry in plain[0]["metrics"].items():
            runs = [r["metrics"][name]["value"] for r in plain]
            end_to_end[name] = {"value": statistics.median(runs),
                                "unit": entry["unit"], "runs": runs}
        results[workload] = {
            "end_to_end": end_to_end,
            "host_ref_ms": [r["host_ref_ms"] for r in plain],
            "fail_ratio": max(r["fail_ratio"] for r in plain),
            "trace1": run(workload, 1, seconds)}

    print(f"\nend-to-end metrics (trace 0, median of {UNTRACED_RUNS} runs), "
          "tracing overhead and predictions:")
    for workload, result in results.items():
        cells = [f"{name}={m['value']:.4g} {m['unit']}"
                 for name, m in result["end_to_end"].items()]
        cells.append(f"fail_ratio={result['fail_ratio']:g}")
        cells.append("host_ref_ms="
                     f"{statistics.median(result['host_ref_ms']):.4g} ms")
        traced = result["trace1"]
        overhead = traced["metrics"]["trace.overhead_s"]["value"]
        cells.append(f"trace overhead={overhead:.4g} s")
        print(f"  {workload}: " + ", ".join(cells))
        for p in traced["predictions"]:
            print(f"    prediction {'held' if p['held'] else 'FAILED'}: "
                  f"{p['claim']} ({p['detail']})")
    baseline = {"seed": BASELINE_SEED, "run_seconds": seconds,
                "untraced_runs": UNTRACED_RUNS,
                "environment": next(iter(results.values()))
                ["trace1"]["environment"],
                "workloads": results}
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
