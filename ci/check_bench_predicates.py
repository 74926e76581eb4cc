#!/usr/bin/env python3
"""Validates a predicate-filter benchmark artifact (topodb.bench_predicates.v1).

Usage: check_bench_predicates.py <path> [--min-speedup X]

CI archives the exact-vs-filtered comparison produced by the predicate
benches (TOPODB_BENCH_PREDICATES_JSON=<path>) and fails if the file is not
well-formed, declares an unknown schema, has no workloads, or reports rows
whose numbers are internally inconsistent (non-positive timings, zero
filter-stage activity on a filtered build). --min-speedup additionally
requires at least one workload at or above the given exact/filtered ratio;
the smoke runs in CI skip it, since timings there are deliberately tiny.
"""
import json
import sys


SCHEMA = "topodb.bench_predicates.v1"
ROW_FIELDS = [
    "name",
    "exact_ms",
    "filtered_ms",
    "speedup",
    "static_hits",
    "exact_fallbacks",
]
COUNTER_FIELDS = ["static_hits", "exact_fallbacks"]


def fail(message):
    print(f"bench predicates JSON invalid: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    args = sys.argv[1:]
    min_speedup = None
    if "--min-speedup" in args:
        i = args.index("--min-speedup")
        min_speedup = float(args[i + 1])
        del args[i : i + 2]
    if len(args) != 1:
        fail("usage: check_bench_predicates.py <path> [--min-speedup X]")
    try:
        with open(args[0], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError, ValueError) as err:
        fail(str(err))
    if doc.get("schema") != SCHEMA:
        fail(f"unexpected schema {doc.get('schema')!r} (want {SCHEMA!r})")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail("missing bench name")
    workloads = doc.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        fail("missing or empty workloads list")
    best = 0.0
    for row in workloads:
        for field in ROW_FIELDS:
            if field not in row:
                fail(f"workload row missing field {field!r}: {row}")
        name = row["name"]
        if row["exact_ms"] <= 0 or row["filtered_ms"] <= 0:
            fail(f"{name!r}: non-positive timing")
        if sum(row[k] for k in COUNTER_FIELDS) <= 0:
            fail(f"{name!r}: filtered build resolved zero predicates")
        if any(row[k] < 0 for k in COUNTER_FIELDS):
            fail(f"{name!r}: negative stage counter")
        best = max(best, row["exact_ms"] / row["filtered_ms"])
    if min_speedup is not None and best < min_speedup:
        fail(f"best speedup {best:.2f}x is below required {min_speedup:.2f}x")
    print(
        f"bench predicates JSON OK ({doc['bench']}): "
        f"{len(workloads)} workloads, best speedup {best:.2f}x"
    )


if __name__ == "__main__":
    main()
