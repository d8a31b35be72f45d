#!/usr/bin/env python3
"""Validates a chameleon_anonymize result JSON against an expectation.

Usage: check_anonymize.py <result.json> --expect=feasible|infeasible

Passes when the file is a well-formed chameleon-anonymize-v1 result
whose feasibility matches --expect and whose fields are internally
consistent (eps_hat = not_obfuscated / vertices, feasible implies
eps_hat <= eps and sigma > 0, perturbation/search counters sane, the
binned uniqueness scores' stated relative error bound below 1e-3).
Exits non-zero with a diagnostic otherwise. CI runs it over every
Table II variant on the generated er-2k graph as the anonymize smoke.
"""
import json
import math
import sys

REQUIRED_FIELDS = (
    "schema", "graph", "method", "k", "eps", "feasible", "sigma",
    "eps_hat", "not_obfuscated", "vertices", "adversary", "nodes",
    "edges", "input_mean_p", "published_mean_p", "attempts",
    "sigma_levels", "trials", "perturbed_edges", "excluded_vertices",
    "uniqueness_rel_err_bound", "relevance_worlds", "relevance_wall_ms",
    "wall_ms", "seed",
)

METHODS = ("RSME", "ME", "RS", "Rep-An")


def fail(message: str) -> int:
    print(f"check_anonymize: FAIL: {message}", file=sys.stderr)
    return 1


def main() -> int:
    path = None
    expect = None
    for arg in sys.argv[1:]:
        if arg.startswith("--expect="):
            expect = arg.split("=", 1)[1]
        elif not arg.startswith("--"):
            path = arg
        else:
            print(__doc__, file=sys.stderr)
            return 2
    if path is None or expect not in ("feasible", "infeasible"):
        print(__doc__, file=sys.stderr)
        return 2

    try:
        with open(path, encoding="utf-8") as handle:
            result = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"cannot load {path}: {error}")

    missing = [f for f in REQUIRED_FIELDS if f not in result]
    if missing:
        return fail(f"missing fields: {', '.join(missing)}")
    if result["schema"] != "chameleon-anonymize-v1":
        return fail(f"unexpected schema {result['schema']!r}")
    if result["method"] not in METHODS:
        return fail(f"unknown method {result['method']!r}")

    vertices = result["vertices"]
    not_obf = result["not_obfuscated"]
    if vertices <= 0 or not 0 <= not_obf <= vertices:
        return fail(f"bad counts: {not_obf}/{vertices}")
    if not math.isclose(result["eps_hat"], not_obf / vertices,
                        rel_tol=1e-9, abs_tol=1e-12):
        return fail(f"eps_hat {result['eps_hat']} != {not_obf}/{vertices}")
    if result["k"] <= 1 or not 0.0 <= result["eps"] <= 1.0:
        return fail(f"bad target k={result['k']} eps={result['eps']}")

    feasible = result["feasible"]
    if feasible:
        if result["eps_hat"] > result["eps"] + 1e-12:
            return fail("feasible but eps_hat exceeds eps")
        if result["sigma"] <= 0.0:
            return fail(f"feasible but sigma={result['sigma']}")
        if result["perturbed_edges"] <= 0:
            return fail("feasible but no edges were perturbed")
        if not 0.0 <= result["published_mean_p"] <= 1.0:
            return fail(f"published_mean_p {result['published_mean_p']} "
                        "outside [0, 1]")
    else:
        if result["eps_hat"] <= result["eps"]:
            return fail("infeasible but eps_hat within eps")

    if result["attempts"] < result["sigma_levels"]:
        return fail(f"attempts {result['attempts']} < "
                    f"levels {result['sigma_levels']}")
    if result["attempts"] > result["sigma_levels"] * result["trials"]:
        return fail(f"attempts {result['attempts']} exceed "
                    f"levels*trials")
    bound = result["uniqueness_rel_err_bound"]
    if not 0.0 <= bound < 1e-3:
        return fail(f"uniqueness_rel_err_bound {bound} outside [0, 1e-3)")
    if not 0 <= result["excluded_vertices"] <= vertices:
        return fail(f"excluded {result['excluded_vertices']} of {vertices}")
    # Rep-An and ME skip the relevance estimator entirely.
    if result["method"] in ("ME", "Rep-An") and result["relevance_worlds"]:
        return fail(f"{result['method']} ran the relevance estimator")
    if result["method"] in ("RSME", "RS") and not result["relevance_worlds"]:
        return fail(f"{result['method']} skipped the relevance estimator")

    want = expect == "feasible"
    if feasible != want:
        return fail(f"expected {expect}, got feasible={feasible} "
                    f"(eps_hat={result['eps_hat']}, eps={result['eps']})")

    print(f"check_anonymize: OK: {result['method']} on {result['graph']} is "
          f"{expect} as expected (sigma={result['sigma']:.6g}, "
          f"eps_hat={result['eps_hat']:.6g}, "
          f"{result['perturbed_edges']} edges perturbed, "
          f"{result['attempts']} attempts)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
