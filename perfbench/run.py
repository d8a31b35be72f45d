#!/usr/bin/env python3
"""One measurement of the end-to-end publish/audit benchmark.

Usage:
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a chameleon checkout. On first use it configures and
builds perfbench_driver, with the chameleon library it links, from that
checkout into .bench_build/perfbench. It then generates the workload's
input graphs from the seed, runs the driver for S seconds, and forwards
the driver's report. The last line of standard output is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the BENCHMARK.json end_to_end metrics for --trace 0 and its per_layer
metrics for --trace 1. Exits non-zero, without a result line, when the
build, the generator or the driver fails or overruns.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("er-rsme", "powerlaw-me", "audit-powerlaw")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; the first one in a checkout may also build.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 840
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build():
    """Configures (once) and builds the driver; progress goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", BUILD_JOBS])
    deadline = time.monotonic() + BUILD_BUDGET_S
    for step in steps:
        remaining = deadline - time.monotonic()
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=max(remaining, 1))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    """Returns an error message, or "" when `line` is a well-formed result
    carrying exactly the `expected` metrics with their units."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys must be exactly correct/attempted/failed/metrics"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a positive integer"
    if not isinstance(result["failed"], int):
        return "failed must be an integer"
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        return f"metric names differ (missing {missing}, extra {extra})"
    for name, unit in expected.items():
        value = metrics[name]
        if set(value) != {"value", "unit"} or value["unit"] != unit:
            return f"metric {name} malformed"
        if not isinstance(value["value"], (int, float)):
            return f"metric {name} is not a number"
    return ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    for needed in ("CMakeLists.txt", "src", "include", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return fail(f"{needed} not found under {ROOT}: run from a "
                        "complete checkout")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        return fail(f"build failed: {err}")

    deadline = time.monotonic() + RUN_BUDGET_S
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    data = os.path.join(BUILD, "runs", tag)
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(data, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", data]
    try:
        subprocess.run([DRIVER, "gen"] + common, check=True,
                       timeout=deadline - time.monotonic())
        run = subprocess.run(
            [DRIVER, "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--spans", os.path.join(spans_dir, f"{tag}.jsonl")],
            stdout=subprocess.PIPE, text=True, check=True,
            timeout=max(deadline - time.monotonic(), 1))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        return fail(f"driver failed: {err}")
    finally:
        shutil.rmtree(data, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    error = check_result(lines[-1], expected_metrics(args.trace))
    if error:
        sys.stderr.write(run.stdout)
        return fail(error)
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
