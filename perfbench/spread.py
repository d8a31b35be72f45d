#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage:
  python3 perfbench/spread.py --workloads er-rsme,powerlaw-me \\
      --seeds 1-10 [--trace 0] [--out runs.json]

Runs perfbench/run.py once per (workload, seed), with BENCHMARK.json's
run_seconds, and prints for every metric the median of its per-run values
and the distance between their first and third quartiles (Python's
statistics.quantiles(values, n=4)) as a share of that median, next to a
third of the metric's bound: a steady benchmark stays below it. Exits 1
when any run fails or reports failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(median, IQR / median) of `values`; the share is None for a zero
    median or fewer than two values."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write every run's metrics as JSON")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  check=False)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(workload, []).append(
                {"seed": seed, "correct": result["correct"],
                 "attempted": result["attempted"],
                 "failed": result["failed"], "metrics": values})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in values.items()), flush=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(runs, f, indent=1)
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        for name in results[0]["metrics"]:
            median, share = spread([r["metrics"][name] for r in results])
            bound = bounds.get(name)
            limit = f"{bound / 3:.3f}" if bound else "-"
            shown = f"{share:.4f}" if share is not None else "-"
            flag = ""
            if bound and share is not None and share >= bound / 3:
                flag = "  WIDE"
            print(f"  {name:40s} median {median:12.6g}  iqr/median {shown:>7s}"
                  f"  (bound/3 {limit}){flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
