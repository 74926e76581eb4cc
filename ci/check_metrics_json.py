#!/usr/bin/env python3
"""Validates a MetricsRegistry JSON export (schema topodb.metrics.v2).

Usage: check_metrics_json.py <path> [--require-semcache]

CI archives the per-stage timing export produced by bench_pipeline_batch
(TOPODB_METRICS_JSON=<path>) and fails if the file is not well-formed JSON,
declares an unknown schema, or is missing the per-stage instrumentation
the serving path is supposed to emit. Every histogram must carry the
full v2 field set, including the interpolated "p95".

--require-semcache switches the expected series to the query
canonicalization / semantic-cache instrumentation that a catalog server's
METRICS export carries after EVAL_QUERY (ci/run_ci.sh's catalog stage):
counters semcache.{hits,misses,evictions,insertions} and planner.plans,
gauges semcache.{entries,bytes}, and the planner.plan_us histogram.
"""
import json
import sys


SCHEMA = "topodb.metrics.v2"
EXPECTED_COUNTERS = [
    "pipeline.items",
    "pipeline.cache_hits",
    "pipeline.cache_misses",
    "arrangement.builds",
]
EXPECTED_HISTOGRAMS = [
    "pipeline.arrangement_us",
    "pipeline.extract_us",
    "pipeline.canonical_us",
    "pipeline.batch_us",
]
SEMCACHE_COUNTERS = [
    "semcache.hits",
    "semcache.misses",
    "semcache.evictions",
    "semcache.insertions",
    "planner.plans",
]
SEMCACHE_GAUGES = [
    "semcache.entries",
    "semcache.bytes",
]
SEMCACHE_HISTOGRAMS = [
    "planner.plan_us",
]
HISTOGRAM_FIELDS = ["count", "sum", "min", "max", "mean", "p50", "p90", "p95", "p99"]


def fail(message):
    print(f"metrics JSON invalid: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    args = [a for a in sys.argv[1:] if a != "--require-semcache"]
    require_semcache = "--require-semcache" in sys.argv[1:]
    if len(args) != 1:
        fail("usage: check_metrics_json.py <path> [--require-semcache]")
    try:
        with open(args[0], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail(str(err))
    schema = doc.get("schema")
    if schema != SCHEMA:
        fail(f"unexpected schema {schema!r} (expected {SCHEMA!r})")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), dict):
            fail(f"missing section {section!r}")
    expected_counters = SEMCACHE_COUNTERS if require_semcache else EXPECTED_COUNTERS
    expected_histograms = (
        SEMCACHE_HISTOGRAMS if require_semcache else EXPECTED_HISTOGRAMS
    )
    for name in expected_counters:
        if name not in doc["counters"]:
            fail(f"missing counter {name!r}")
        if not isinstance(doc["counters"][name], int):
            fail(f"counter {name!r} is not an integer")
    if require_semcache:
        for name in SEMCACHE_GAUGES:
            if not isinstance(doc["gauges"].get(name), (int, float)):
                fail(f"missing gauge {name!r}")
        if doc["counters"]["semcache.hits"] <= 0:
            fail("semcache.hits is not positive")
        if doc["counters"]["planner.plans"] <= 0:
            fail("planner.plans is not positive")
    else:
        if doc["counters"]["pipeline.items"] <= 0:
            fail("pipeline.items is not positive")
    for name in expected_histograms:
        hist = doc["histograms"].get(name)
        if not isinstance(hist, dict):
            fail(f"missing histogram {name!r}")
        for field in HISTOGRAM_FIELDS:
            if not isinstance(hist.get(field), (int, float)):
                fail(f"histogram {name!r} missing field {field!r}")
        if hist["count"] > 0 and hist["min"] > hist["max"]:
            fail(f"histogram {name!r} has min > max")
    print(
        f"metrics JSON OK ({schema}): {len(doc['counters'])} counters, "
        f"{len(doc['gauges'])} gauges, {len(doc['histograms'])} histograms"
    )


if __name__ == "__main__":
    main()
