"""Check that the end-to-end metrics are steady enough for their bounds.

    python3 perfbench/steadiness.py [--seeds 10] [--workload NAME ...]

Runs ``perfbench/run.py --trace 0`` once per seed on every workload, then
does the whole set a second time with the same seeds.  For each workload and
end-to-end metric it prints, per set, the median and the spread (first to
third quartile as a share of the median), and the second set's median
against the first.  A spread above the metric's bound (``setup_s`` excepted)
or a second median worse than the first by more than the bound is marked
UNRESOLVED; a spread above a third of the bound is marked wide.  The
median of ``host_ref_ms``, a fixed loop outside foldcat, is compared the
same way, to tell a slower host from a slower benchmark.  A full check with
ten seeds takes about 40 minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_set(workloads: list[str], seeds: int, seconds: int) -> dict:
    values = {}
    for workload in workloads:
        for seed in range(1, seeds + 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: result not correct")
            with open(os.path.join(HERE, "out",
                                   f"result-{workload}-trace0.json")) as fh:
                host_ref = json.load(fh)["host_ref_ms"]
            row = {n: m["value"] for n, m in result["metrics"].items()}
            row["host_ref_ms"] = host_ref
            for name, value in row.items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    value)
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={v:.5g}" for n, v in row.items()), flush=True)
    return values


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sets = []
    for label in "AB":
        print(f"set {label}:", flush=True)
        sets.append(one_set(workloads, args.seeds, spec["run_seconds"]))

    print(f"\nspread = (q3 - q1) / median over {args.seeds} seeds; "
          "B/A = second median over first")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            (med_a, spr_a), (med_b, spr_b) = (spread(s[workload][name])
                                              for s in sets)
            change = med_b / med_a - 1
            worse = change if metric["better"] == "lower" else -change
            marks = []
            if name != "setup_s" and max(spr_a, spr_b) > bound:
                marks.append("UNRESOLVED spread")
            elif max(spr_a, spr_b) > bound / 3:
                marks.append("wide")
            if worse > bound:
                marks.append("UNRESOLVED median")
            print(f"  {workload:<15} {name:<12} A {med_a:<10.5g} spread "
                  f"{spr_a:.3f} | B {med_b:<10.5g} spread {spr_b:.3f} | "
                  f"B/A {change:+.3f} (bound {bound}) {' '.join(marks)}")
        (ref_a, _), (ref_b, _) = (spread(s[workload]["host_ref_ms"])
                                  for s in sets)
        print(f"  {workload:<15} host_ref_ms  A {ref_a:<10.5g} "
              f"B {ref_b:<10.5g} B/A {ref_b / ref_a - 1:+.3f}")


if __name__ == "__main__":
    main()
