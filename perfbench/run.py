#!/usr/bin/env python3
"""The TopoDB ledger benchmark: one command per workload run.

    python3 perfbench/run.py --workload invariant_stream --seed 1 \
        --seconds 10 --trace 0

Run from the repository root. Builds the library, topodb_server,
topodb_router and the load generator (perfbench/loadgen.cc) into .bench_build/,
runs the workload against the real daemons on loopback, checks every
response against truth the library computed in-process before timing, and
prints the metrics by name and unit. The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics (server METRICS plus the traced replay)
with --trace 1. A wrong answer makes the run exit 1, and a traced run whose
residual (request time no layer accounts for) passes RESIDUAL_BOUND exit 3.

    python3 perfbench/run.py --self-test       # a planted wrong answer must fail
    python3 perfbench/run.py --write-manifest  # regenerate BENCHMARK.json

perfbench/ledger.json maps each per-layer metric to the end-to-end metric it
should move, and each row of the older BENCH_*.json artifacts to the ledger
metric that supersedes it.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BIN = os.path.join(CMAKE_DIR, "bin")
DEFAULT_SEED = 1
RUN_SECONDS = 12
# The traced replay fails the run when the time inside requests that no
# layer accounts for passes this share of the replay total.
RESIDUAL_BOUND = 0.03

WORKLOADS = [
    ("invariant_stream",
     "closed loop, 4 connections, 2 workers: inline COMPUTE/BATCH-8/ISO; "
     "canonical form dominates, and hot, translated and fresh inputs give "
     "each cache layer its share"),
    ("catalog_query",
     "EVAL_QUERY on @name paced at 1/20 of capacity, then closed loop for "
     "capacity: Zipf over 12288 keys on 256 entries, 3x the semantic cache; "
     "canonical only in set-up"),
    ("catalog_rw",
     "1 closed-loop LOAD writer churning names beside 3 paced readers (EVAL, "
     "COMPUTE, DESCRIBE on @name): ingest and reads share store, caches and "
     "workers"),
    ("routed_invariants",
     "hot and translated invariant_stream items through topodb_router to 2 "
     "single-worker shards: the router hop, scatter-gather and the caches "
     "split across shards"),
]

# (name, unit, better, bound): reported by every workload with --trace 0.
# No tail percentile is bounded. On a shared 4-core VM, p90 moved 0.14-0.18
# of its median across seeds of invariant_stream even on a quiet host (its
# tail is a handful of 100-ms canonical forms), and the p90 of catalog_query
# rose tenfold while a neighbour loaded the host. Every run prints p90 and
# p99 per opcode class and overall, with the sample count beyond them. The
# bounds are wide because the host's speed drifts: one seed of
# invariant_stream read 259, 236 and 167 req/s within an hour.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

# Replay layers reported as self-time mean, p99 and share of the replay.
TRACED_LAYERS = [
    "region.parse", "arrangement.build", "invariant.extract",
    "invariant.canonical", "query.engine_build", "query.parse", "query.plan",
    "query.eval", "store.ingest", "store.find",
]

# (name, unit): reported by every workload with --trace 1; 0 where the
# workload does not exercise the layer.
PER_LAYER = (
    [(f"{layer}_us.{stat}", unit) for layer in TRACED_LAYERS
     for stat, unit in (("mean", "us"), ("p99", "us"), ("share", "ratio"))]
    + [
        ("invariant.canonical_bytes", "B"),
        ("arrangement.darts", "count"),
        ("predicates.exact_share", "ratio"),
        ("textcache.hit_ratio", "ratio"),
        ("invcache.hit_ratio", "ratio"),
        ("invcache.bytes", "B"),
        ("enginecache.hit_ratio", "ratio"),
        ("semcache.hit_ratio", "ratio"),
        ("semcache.evictions", "count"),
        ("semcache.key_us", "us"),
        ("query.bindings_per_eval", "count"),
        ("store.file_bytes_per_entry", "B"),
        ("server.queue_wait_us", "us"),
        ("server.execute_us", "us"),
        ("server.write_us", "us"),
        ("server.shed", "count"),
        ("wire.overhead_us", "us"),
        ("router.hop_us", "us"),
        ("router.shard_skew", "ratio"),
        ("router.rerouted", "count"),
        ("gen.late_p99_ms", "ms"),
        ("trace.residual_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
)


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log(f"perfbench: {message}")
    sys.exit(2)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": better_of(n)} for n, u in PER_LAYER
        ],
    }


def better_of(name):
    return "higher" if name.endswith("hit_ratio") else "lower"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server_main.cc")):
        fail("no TopoDB sources next to perfbench/ (run from a checkout root)")
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", CMAKE_DIR,
                     "-DCMAKE_BUILD_TYPE=Release",
                     f"-DCMAKE_RUNTIME_OUTPUT_DIRECTORY={BIN}"] + generator
        run_quiet(configure, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", CMAKE_DIR, "-j", jobs, "--target",
               "perfbench_loadgen", "topodb_server_main", "topodb_router_main"],
              "build")


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        fail(f"{what} failed")


def run_loadgen(workload, seed, seconds, trace, inject_wrong=False):
    work = os.path.join(BUILD, f"work-{workload}")
    out = os.path.join(BUILD, f"result-{workload}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BIN, "perfbench_loadgen"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           "1" if trace else "0", "--bin", BIN, "--work", work, "--out", out]
    if inject_wrong:
        cmd.append("--inject-wrong")
    # The load generator and its daemons share a fresh process group, so nothing
    # outlives the run even if the generator dies.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if code != 0 or not os.path.exists(out):
        fail(f"load generator failed on {workload} (exit {code})")
    with open(out) as f:
        return json.load(f)


def percentile(values, q):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Metrics:
    """The timed phase's share of a METRICS export: counters and histogram
    counts and sums after timing minus before, gauges as of the end. Series
    are summed over the fleet (a router export carries each shard's series
    as shard.<id>.<name>). Histogram means are exact; their log2 quantiles
    are not used."""

    EMPTY = {"counters": {}, "gauges": {}, "histograms": {}}

    def __init__(self, after, before):
        self.after = after or self.EMPTY
        self.before = before or self.EMPTY

    @staticmethod
    def _matches(key, name, shards_only=False):
        if key.startswith("shard."):
            return key.split(".", 2)[2] == name
        return key == name and not shards_only

    def counter(self, name):
        return sum(v - self.before["counters"].get(k, 0)
                   for k, v in self.after["counters"].items()
                   if self._matches(k, name))

    def counters_with(self, prefix, suffix):
        return [v - self.before["counters"].get(k, 0)
                for k, v in self.after["counters"].items()
                if k.startswith(prefix) and k.endswith(suffix)]

    def gauge(self, name):
        return sum(v for k, v in self.after["gauges"].items()
                   if self._matches(k, name))

    def mean(self, name, shards_only=False):
        count = total = 0
        for k, h in self.after["histograms"].items():
            if self._matches(k, name, shards_only):
                b = self.before["histograms"].get(k, {"count": 0, "sum": 0})
                count += h["count"] - b["count"]
                total += h["sum"] - b["sum"]
        return total / count if count else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(raw):
    """Rates are medians over the one-second windows of the timed phase;
    p50_ms is the median of all its latency samples, which moved less from
    seed to seed than the median window's. A workload with a capacity phase
    takes its latency from the samples before it and its rates from the
    best half-second of the capacity phase: what the program sustains when
    the shared host does not interfere."""
    lat = [v for values in raw["latency_ms"].values() for v in values]
    elapsed = raw["elapsed_s"]
    windows = raw["windows"]
    capacity = raw["capacity"]
    p50, _ = percentile(lat, 0.50)
    p90, _ = percentile(lat, 0.90)
    p99, beyond = percentile(lat, 0.99)
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "throughput_rps": (max(capacity["rps"]) if capacity
                           else statistics.median(windows["rps"])),
        "items_per_s": (max(capacity["items_per_s"]) if capacity
                        else statistics.median(windows["items_per_s"])),
        "p50_ms": p50,
        "peak_rss_mb": sum(raw["peak_rss_kb"]) / 1024.0,
    }
    print(f"  p90_ms {statistics.median(windows['p90_ms']):.4f} ms (median "
          f"window; printed, not bounded)")
    print(f"  timed requests: {raw['attempted']} attempted, {raw['ok']} "
          f"correct in {elapsed:.2f} s ({raw['ok'] / elapsed:.1f} per s, "
          f"{raw['items'] / elapsed:.1f} items per s); latency samples: "
          f"p50_ms {p50:.4f}, p90_ms {p90:.4f}, p99_ms {p99:.4f} over "
          f"{len(lat)} samples ({beyond} beyond it)")
    if capacity:
        print(f"  capacity phase (closed loop, last {capacity['seconds']:.2f} s,"
              f" {len(capacity['rps'])} half-second windows): best "
              f"{values['throughput_rps']:.1f} requests per s; the latency "
              f"samples are the paced part before it")
    for klass, samples in sorted(raw["latency_ms"].items()):
        k50, _ = percentile(samples, 0.50)
        if len(samples) >= 1000:
            k99, kb = percentile(samples, 0.99)
            print(f"  {klass}_p50_ms {k50:.4f} ms   {klass}_p99_ms {k99:.4f} ms"
                  f"   (n={len(samples)}, {kb} beyond p99)")
        else:
            k90, kb = percentile(samples, 0.90)
            print(f"  {klass}_p50_ms {k50:.4f} ms   {klass}_p90_ms {k90:.4f} ms"
                  f"   (n={len(samples)} < 1000: p99 unsupported, {kb} beyond p90)")
    failed = raw["attempted"] - raw["ok"]
    print(f"  failed_ratio {ratio(failed, raw['attempted']):.6f}   "
          f"(wrong {raw['wrong']}, shed {raw['shed']})")
    if raw["store_bytes"]:
        print(f"  store_bytes_per_input_byte "
              f"{raw['store_bytes'] / raw['live_text_bytes']:.4f}")
    if raw["paced"]:
        late, _ = percentile(raw["late_ms"], 0.99)
        print(f"  gen.late_p99_ms {late:.4f} ms (beside p99_ms)")
    return values


def per_layer(raw):
    m = Metrics(raw["metrics"], raw["metrics_before"])
    replay = raw["replay"]
    layers = replay["layers"]
    values = {}
    total = replay["total_us"]
    for layer in TRACED_LAYERS:
        stats = layers[layer]
        values[f"{layer}_us.mean"] = stats["mean_us"]
        values[f"{layer}_us.p99"] = stats["p99_us"]
        values[f"{layer}_us.share"] = ratio(stats["self_us"], total)
    predicate_stages = sum(m.counter(f"predicates.{s}") for s in (
        "static_hits", "interval_hits", "expansion_hits", "exact_fallbacks"))
    routed = raw["workload"] == "routed_invariants"
    front_mean = m.mean("router.request_us") if routed else m.mean(
        "server.request_us")
    values.update({
        "invariant.canonical_bytes": replay["canonical_bytes_per_build"],
        "arrangement.darts": replay["darts_per_build"],
        "predicates.exact_share": ratio(
            m.counter("predicates.exact_fallbacks"), predicate_stages),
        "textcache.hit_ratio": ratio(
            m.counter("textcache.hits"),
            m.counter("textcache.hits") + m.counter("textcache.misses")),
        "invcache.hit_ratio": ratio(
            m.counter("pipeline.cache_hits"),
            m.counter("pipeline.cache_hits") + m.counter("pipeline.cache_misses")),
        "invcache.bytes": m.gauge("invariant_cache.bytes"),
        "enginecache.hit_ratio": ratio(
            m.counter("enginecache.hits"),
            m.counter("enginecache.hits") + m.counter("enginecache.misses")),
        "semcache.hit_ratio": ratio(
            m.counter("semcache.hits"),
            m.counter("semcache.hits") + m.counter("semcache.misses")),
        "semcache.evictions": m.counter("semcache.evictions"),
        "semcache.key_us": m.mean("semcache.key_us"),
        "query.bindings_per_eval": ratio(m.counter("query.bindings"),
                                         m.counter("query.evaluations")),
        "store.file_bytes_per_entry": ratio(m.gauge("catalog.mapped_bytes"),
                                            m.gauge("catalog.entries")),
        "server.queue_wait_us": m.mean("server.queue_wait_us"),
        "server.execute_us": m.mean("server.execute_us"),
        "server.write_us": m.mean("server.write_us"),
        "server.shed": m.counter("server.shed"),
        "wire.overhead_us": raw["client_mean_us"] - front_mean,
        "router.hop_us": 0.0,
        "router.shard_skew": 0.0,
        "router.rerouted": 0,
        "gen.late_p99_ms": (percentile(raw["late_ms"], 0.99)[0]
                            if raw["late_ms"] else 0.0),
        "trace.residual_ratio": ratio(replay["residual_us"], total),
        "trace.overhead_ratio": replay["overhead_ratio"],
    })
    if routed:
        shard_requests = m.counters_with("router.shard.", ".requests")
        values.update({
            "router.hop_us": (m.mean("router.request_us") -
                              m.mean("server.request_us", shards_only=True)),
            "router.shard_skew": ratio(max(shard_requests), min(shard_requests)),
            "router.rerouted": m.counter("router.rerouted"),
        })
    print(f"  traced replay: {replay['requests']} requests, "
          f"{total / 1e3:.1f} ms inside requests; layer self-times sum to "
          f"{replay['self_sum_us'] / 1e3:.1f} ms, residual (request self time "
          f"no layer accounts for) {replay['residual_us'] / 1e3:.3f} ms = "
          f"{100 * ratio(replay['residual_us'], total):.3f}% of the total "
          f"(bound {100 * RESIDUAL_BOUND:g}%), overhead ratio "
          f"{replay['overhead_ratio']:.3f}")
    ranked = sorted(layers.items(), key=lambda kv: -kv[1]["self_us"])
    for name, stats in ranked:
        if stats["count"] and name != "request":
            print(f"    {name:22s} self {stats['self_us'] / 1e3:10.2f} ms "
                  f"({100 * ratio(stats['self_us'], total):5.1f}%)  n={stats['count']}"
                  f"  mean {stats['mean_us']:.2f} us  p99 {stats['p99_us']:.2f} us")
    return values


def is_correct(raw):
    """Every answer matched truth: timed, set-up and replayed requests, and
    the durability check."""
    return (raw["wrong"] == 0 and raw["setup_wrong"] == 0 and
            raw["replay_wrong"] == 0 and raw["durability"]["ok"])


def run(args):
    build()
    raw = run_loadgen(args.workload, args.seed, args.seconds, args.trace == 1)
    print(f"workload {raw['workload']} seed {raw['seed']}: {raw['notes']}")
    print(f"  inputs and truth built in {raw['inputs_s']:.2f} s (before timing)")
    if raw["wrapped"]:
        print(f"  note: {raw['wrapped']} stream wrap-arounds (streams repeat)")
    durability = raw["durability"]
    if durability["ran"]:
        print(f"  durability after SIGKILL + restart: "
              f"{'ok' if durability['ok'] else 'FAILED'} on "
              f"{durability['checked']} acknowledged entries "
              f"{durability['detail']}(the OS page cache survives SIGKILL, so "
              f"this does not test fsync ordering)")
    e2e = end_to_end(raw)
    residual_ok = True
    if args.trace == 1:
        values = per_layer(raw)
        units = dict(PER_LAYER)
        residual_ok = values["trace.residual_ratio"] <= RESIDUAL_BOUND
    else:
        values = e2e
        units = {n: u for n, u, _, _ in END_TO_END}
    for name, value in values.items():
        print(f"  {name} {value:.6g} {units[name]}")
    correct = is_correct(raw)
    if not correct:
        print(f"  WRONG ANSWERS: timed {raw['wrong']}, set-up "
              f"{raw['setup_wrong']}, replay {raw['replay_wrong']}, durability "
              f"{'ok' if durability['ok'] else 'failed'}; first: "
              f"{raw['first_error']}")
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["attempted"] - raw["ok"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    if not residual_ok:
        print(f"  TRACE RESIDUAL {values['trace.residual_ratio']:.4f} passes "
              f"its bound {RESIDUAL_BOUND}")
    print(json.dumps(result), flush=True)
    if not correct:
        return 1
    return 0 if residual_ok else 3


def self_test():
    build()
    raw = run_loadgen("invariant_stream", DEFAULT_SEED, 2, False, inject_wrong=True)
    if not is_correct(raw):
        print(f"self-test passed: the planted wrong answer was caught "
              f"({raw['first_error']})")
        return 0
    print("self-test FAILED: a wrong expected answer went unnoticed")
    return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args()
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(manifest(), f, indent=2)
            f.write("\n")
        return 0
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
