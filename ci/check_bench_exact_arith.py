#!/usr/bin/env python3
"""Validates an exact-arithmetic benchmark artifact (topodb.bench_exact_arith.v1).

Usage: check_bench_exact_arith.py <path> [--baseline BENCH_predicates.json]

The artifact carries the same exact-vs-filtered arrangement-build rows as
the predicate-filter artifact. Without --baseline, the check is
structural: well-formed JSON, known schema, positive timings, non-negative
counters, at least one row.

With --baseline, each baseline workload row must reappear in the artifact
(matched by name, tolerating an added "<bench>: " prefix on either side)
and its new filtered build time must beat the baseline's filtered build
time by fixed floors: >= 2.0x on stretch-* rows and >= 1.5x elsewhere.
Baseline rows are the numbers checked in as BENCH_predicates.json, so the
comparison is filtered-to-filtered on the same workloads.
"""
import json
import sys

SCHEMA = "topodb.bench_exact_arith.v1"
ROW_FIELDS = [
    "name",
    "exact_ms",
    "filtered_ms",
    "speedup",
    "static_hits",
    "exact_fallbacks",
]
COUNTER_FIELDS = ["static_hits", "exact_fallbacks"]
STRETCH_FLOOR = 2.0
DEFAULT_FLOOR = 1.5


def fail(message):
    print(f"bench exact-arith JSON invalid: {message}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError, ValueError) as err:
        fail(str(err))


def base_name(name):
    """Workload name with any '<bench>: ' prefix dropped, for matching
    merged multi-bench artifacts against single-bench ones."""
    return name.split(": ", 1)[-1]


def main():
    args = sys.argv[1:]
    baseline_path = None
    if "--baseline" in args:
        i = args.index("--baseline")
        baseline_path = args[i + 1]
        del args[i : i + 2]
    if len(args) != 1:
        fail("usage: check_bench_exact_arith.py <path> "
             "[--baseline BENCH_predicates.json]")
    doc = load(args[0])
    if doc.get("schema") != SCHEMA:
        fail(f"unexpected schema {doc.get('schema')!r} (want {SCHEMA!r})")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail("missing bench name")
    workloads = doc.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        fail("missing or empty workloads list")
    by_name = {}
    for row in workloads:
        for field in ROW_FIELDS:
            if field not in row:
                fail(f"workload row missing field {field!r}: {row}")
        name = row["name"]
        if row["exact_ms"] <= 0 or row["filtered_ms"] <= 0:
            fail(f"{name!r}: non-positive timing")
        if any(row[k] < 0 for k in COUNTER_FIELDS):
            fail(f"{name!r}: negative stage counter")
        if sum(row[k] for k in COUNTER_FIELDS) <= 0:
            fail(f"{name!r}: filtered build resolved zero predicates")
        by_name[base_name(name)] = row

    if baseline_path is None:
        print(
            f"bench exact-arith JSON OK ({doc['bench']}): "
            f"{len(workloads)} workloads"
        )
        return

    baseline = load(baseline_path)
    base_rows = baseline.get("workloads")
    if not isinstance(base_rows, list) or not base_rows:
        fail(f"baseline {baseline_path}: missing or empty workloads list")
    checked = 0
    for base_row in base_rows:
        name = base_name(base_row["name"])
        if name not in by_name:
            fail(f"baseline workload {base_row['name']!r} missing from artifact")
        row = by_name[name]
        floor = STRETCH_FLOOR if "stretch" in name else DEFAULT_FLOOR
        ratio = base_row["filtered_ms"] / row["filtered_ms"]
        if ratio < floor:
            fail(
                f"{name!r}: filtered build {row['filtered_ms']:.3f}ms is only "
                f"{ratio:.2f}x faster than baseline "
                f"{base_row['filtered_ms']:.3f}ms (floor {floor:.1f}x)"
            )
        checked += 1
        print(
            f"  {name}: {base_row['filtered_ms']:.3f}ms -> "
            f"{row['filtered_ms']:.3f}ms ({ratio:.2f}x, floor {floor:.1f}x)"
        )
    print(
        f"bench exact-arith JSON OK ({doc['bench']}): {len(workloads)} "
        f"workloads, {checked} baseline rows at or above their floors"
    )


if __name__ == "__main__":
    main()
