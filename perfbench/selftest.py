#!/usr/bin/env python3
"""Self-check of the benchmark itself.

Usage: python3 perfbench/selftest.py

Builds the driver (as run.py does), runs its C++ self-check (seeded
generators, edge-list round trip, medians, CPU sampling, GenObf replay),
then checks the Python side: the result-line validation in run.py and the
spread computation in spread.py. Exits 0 when everything passes.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import spread  # noqa: E402

FAILURES = []


def expect(ok, what):
    if not ok:
        FAILURES.append(what)
        print(f"selftest: FAILED {what}", file=sys.stderr)


def check_result_validation():
    expected = {"op_s": "s", "peak_rss_mb": "MB"}
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"op_s": {"value": 0.25, "unit": "s"},
                        "peak_rss_mb": {"value": 34.0, "unit": "MB"}}}
    expect(run.check_result(json.dumps(good), expected) == "",
           "a well-formed result passes")
    bad_unit = json.loads(json.dumps(good))
    bad_unit["metrics"]["op_s"]["unit"] = "ms"
    expect(run.check_result(json.dumps(bad_unit), expected) != "",
           "a wrong unit is refused")
    missing = json.loads(json.dumps(good))
    del missing["metrics"]["peak_rss_mb"]
    expect(run.check_result(json.dumps(missing), expected) != "",
           "a missing metric is refused")
    extra_key = dict(good, note="x")
    expect(run.check_result(json.dumps(extra_key), expected) != "",
           "an extra top-level key is refused")
    zero = dict(good, attempted=0)
    expect(run.check_result(json.dumps(zero), expected) != "",
           "attempted = 0 is refused")
    expect(run.check_result("not json", expected) != "",
           "a non-JSON line is refused")


def check_spread():
    # statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] (exclusive).
    median, share = spread.spread([float(v) for v in range(1, 11)])
    expect(median == 5.5, "spread median")
    expect(abs(share - (8.25 - 2.75) / 5.5) < 1e-12, "spread iqr share")
    expect(spread.spread([3.0])[1] is None, "one value has no spread")
    expect(spread.spread([0.0, 0.0])[1] is None, "a zero median has no share")
    expect(spread.parse_seeds("3-5") == [3, 4, 5], "seed range")
    expect(spread.parse_seeds("1,7") == [1, 7], "seed list")


def main():
    try:
        run.build()
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        print(f"selftest: build failed: {err}", file=sys.stderr)
        return 1
    scratch = os.path.join(run.BUILD, "selftest")
    os.makedirs(scratch, exist_ok=True)
    driver = subprocess.run([run.DRIVER, "selftest", "--dir", scratch],
                            check=False, timeout=170)
    expect(driver.returncode == 0, "C++ self-check")
    check_result_validation()
    check_spread()
    print(f"selftest.py: {'FAIL' if FAILURES else 'PASS'} "
          f"({len(FAILURES)} failures)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
