#!/usr/bin/env python3
"""Validates estimator_progress telemetry in a chameleon metrics JSONL.

Usage: check_convergence.py <metrics.jsonl> [min_records]

Passes when every estimator label has >= min_records (default 3)
estimator_progress records with strictly increasing sample counts and
strictly shrinking CI half-widths, every record carries its loop's
`total` with samples <= total, no retired `progress` record appears, and
at least one estimator finished with an early stop. Exits non-zero with a
diagnostic otherwise.
"""
import collections
import json
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    min_records = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    records = collections.defaultdict(list)
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                print(f"{path}:{lineno}: invalid JSON: {err}", file=sys.stderr)
                return 1
            if obj.get("type") == "progress":
                print(f"{path}:{lineno}: retired progress record",
                      file=sys.stderr)
                return 1
            if obj.get("type") == "estimator_progress":
                if "total" not in obj or obj["samples"] > obj["total"]:
                    print(f"{path}:{lineno}: estimator_progress needs "
                          f"samples <= total: {line}", file=sys.stderr)
                    return 1
                records[obj["label"]].append(obj)

    if not records:
        print(f"{path}: no estimator_progress records", file=sys.stderr)
        return 1

    for label, recs in records.items():
        if len(recs) < min_records:
            print(f"{label}: only {len(recs)} records (need {min_records})",
                  file=sys.stderr)
            return 1
        samples = [r["samples"] for r in recs]
        if any(a >= b for a, b in zip(samples, samples[1:])):
            print(f"{label}: samples not strictly increasing: {samples}",
                  file=sys.stderr)
            return 1
        halfwidths = [r["ci_halfwidth"] for r in recs]
        if any(a <= b for a, b in zip(halfwidths, halfwidths[1:])):
            print(f"{label}: CI half-widths not strictly shrinking: "
                  f"{halfwidths}", file=sys.stderr)
            return 1
        finals = [r for r in recs if r.get("final")]
        if len(finals) != 1 or finals[-1] is not recs[-1]:
            print(f"{label}: expected exactly one final record, last",
                  file=sys.stderr)
            return 1

    if not any(recs[-1].get("stopped_early") for recs in records.values()):
        print("no estimator stopped early", file=sys.stderr)
        return 1

    summary = {label: (len(recs), round(recs[-1]["ci_halfwidth"], 6))
               for label, recs in records.items()}
    print(f"convergence OK: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
