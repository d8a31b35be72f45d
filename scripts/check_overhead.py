#!/usr/bin/env python3
"""Runs every observability overhead gate, one process per gate.

Usage: check_overhead.py [--bindir=build/bench] [--only=NAME[,NAME...]]

The gate table lives in chameleon_overhead_gate itself (`--list` prints
it); this driver runs `--gate=NAME --out=BENCH_<NAME>.ci.json` for each
row. A separate process per gate keeps global obs state started by one
gate (the profiler, the heap sampler) out of the next gate's dormant arm.
Each gate applies the dual rule internally: a violation needs its budget
exceeded AND the delta above 3x the repetition MAD.

Exits 0 when every gate passes, 1 when any gate fails or the binary is
missing, 2 on usage errors.
"""
import os
import subprocess
import sys


def main() -> int:
    bindir = "build/bench"
    only = None
    for opt in sys.argv[1:]:
        if opt.startswith("--bindir="):
            bindir = opt.split("=", 1)[1]
        elif opt.startswith("--only="):
            only = set(opt.split("=", 1)[1].split(","))
        else:
            print(__doc__, file=sys.stderr)
            return 2

    binary = os.path.join(bindir, "chameleon_overhead_gate")
    if not os.path.exists(binary):
        print(f"FAIL: gate binary {binary} is missing", file=sys.stderr)
        return 1
    listing = subprocess.run([binary, "--list"], check=True,
                             capture_output=True, text=True).stdout
    gates = [line.split(None, 1)[0] for line in listing.splitlines()
             if line.strip()]
    if only is not None:
        unknown = only - set(gates)
        if unknown:
            print(f"unknown gate(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        gates = [name for name in gates if name in only]

    failures = []
    for name in gates:
        cmd = [binary, f"--gate={name}", f"--out=BENCH_{name}.ci.json"]
        print(f"=== {name}", flush=True)
        result = subprocess.run(cmd, check=False)
        if result.returncode != 0:
            print(f"FAIL: {' '.join(cmd)} exited {result.returncode}",
                  file=sys.stderr)
            failures.append(name)
        print(flush=True)

    if failures:
        print(f"overhead gates FAILED: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"all {len(gates)} overhead gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
