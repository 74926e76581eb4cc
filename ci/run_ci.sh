#!/usr/bin/env bash
# Tier-1 gate plus sanitizer passes. Usage: ci/run_ci.sh [--no-sanitizers]
#
#   1. Configure + build + full ctest suite in build-ci/ (the same command
#      sequence as ROADMAP.md's verify step, in a separate tree so a
#      developer's ./build is left alone).
#   2. Smoke-run the pipeline batch bench so its report and assertions
#      execute on each CI run; any nonzero exit fails CI. It also writes
#      its per-stage metrics JSON to ci/artifacts/, which is validated
#      against the topodb.metrics schema and archived.
#   3. Loopback serving smoke: start topodb_server on an ephemeral port,
#      drive it with topodb_client (PING + BATCH_INVARIANTS), then SIGTERM
#      and assert the graceful-drain exit code. Also smoke-runs
#      bench_server_load (closed loop + overload shed assertions) and
#      archives its server metrics JSON.
#   3b. Catalog loopback smoke: ingest fixtures with topodb_load, start
#      topodb_server --catalog against the directory, drive LOAD / LIST /
#      DESCRIBE / ISO / BATCH through the CLI with @name catalog refs,
#      assert the documented exit codes (NotFound=4 for an unknown name),
#      EVAL_QUERY the catalog twice with equivalent spellings and pin a
#      semantic-cache hit in the metrics export, check that all four caches
#      export the same seven series, then restart the server
#      on the same directory and serve again with no re-ingest — the
#      durability contract, end to end over TCP. A query nested past the
#      parser's depth bound must exit ParseError (7), and the same daemon
#      must still answer a ping.
#   3c. Multi-shard loopback: two catalog-backed shards behind a
#      topodb_router. LOAD through the router places entries on their ring
#      owners, LIST merges the fleet, then SIGTERM kills one shard mid-run
#      and the router must route inline work around the corpse (exit 0,
#      router.rerouted advancing) while name-keyed reads of the dead
#      shard's catalog fail with the documented Unavailable code. Finally
#      the router itself drains cleanly. Also smoke-runs
#      bench_shard_scaling (ground-truth-checked scatter-gather at 1/2/4
#      shards) and holds the checked-in BENCH_shard.json to the scaling
#      floors.
#   3d. Front door under ulimit -n 128: 300 client connections to a
#      server, then 300+ health probes and 300 client connections through
#      a router (--health-ms 10) to a second server. Every call is under
#      `timeout`, and every daemon must drain cleanly within 10 s of
#      SIGTERM — a leaked fd per connection or an unbounded probe fails
#      the stage instead of hanging it.
#   3e. Ledger: build perfbench/ into .bench_build/, run its self-test (a
#      planted wrong answer must fail) and a 2 s catalog_query run, which
#      fails on any wrong EVAL_QUERY answer from the real daemon.
#   4. Rebuild the test suite under ASan+UBSan (with float-cast-overflow)
#      in build-asan/ and run it — this is what runs the predicate-filter
#      and BigInt fast-path differential fuzz suites with sanitized
#      float<->int conversions, and what checks LimbVec's inline/heap
#      transitions for out-of-bounds access and double frees.
#   5. Rebuild under TSan in build-tsan/ and run the ConcurrencyTest,
#      ServerTest, RouterTest, ServerTruncationTest and FrontDoorTest
#      suites (shared caches, shared registries, one query engine serving
#      many threads, mid-flight cancellation, the full serving path, the
#      shared front door) — the cross-thread paths, specifically.
set -euo pipefail
cd "$(dirname "$0")/.."

run_suite() {
  local dir=$1; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

echo "==> tier-1: build + ctest"
run_suite build-ci

echo "==> bench smoke: pipeline batch"
# TOPODB_BENCH_SMOKE shrinks workloads/repetitions; --benchmark_min_time
# caps each timing series at 0.01s.
mkdir -p ci/artifacts
TOPODB_BENCH_SMOKE=1 \
TOPODB_METRICS_JSON=ci/artifacts/pipeline_batch_metrics.json \
TOPODB_BENCH_PREDICATES_JSON=ci/artifacts/bench_predicates.json \
TOPODB_BENCH_EXACT_ARITH_JSON=ci/artifacts/bench_exact_arith.json \
  ./build-ci/bench/bench_pipeline_batch --benchmark_min_time=0.01

echo "==> metrics artifact: validate schema"
python3 ci/check_metrics_json.py ci/artifacts/pipeline_batch_metrics.json
# Exact-vs-filtered predicate comparison rows (timings + per-stage filter
# hit counters). No --min-speedup in the smoke run: its workloads are
# deliberately tiny; BENCH_predicates.json in the repo root records the
# full-size numbers.
python3 ci/check_bench_predicates.py ci/artifacts/bench_predicates.json
# The checked-in full-size artifact must stay well-formed and keep the
# headline >=3x row (stretch-64bit); regenerate with
#   TOPODB_BENCH_PREDICATES_JSON=BENCH_predicates.json \
#     build/bench/bench_pipeline_batch --benchmark_filter='^$'
python3 ci/check_bench_predicates.py BENCH_predicates.json --min-speedup 3
# Exact-arithmetic rows (ISSUE 7): the smoke artifact must be well-formed;
# the checked-in full-size BENCH_exact_arith.json must additionally beat
# the PR 6 filtered timings in BENCH_predicates.json by the per-row floors
# (>=2x on stretch-* rows, >=1.5x elsewhere). Regenerate with
#   TOPODB_BENCH_EXACT_ARITH_JSON=BENCH_exact_arith.json \
#     build/bench/bench_pipeline_batch --benchmark_filter='^$'
# then merge the fig05 rows the same way as BENCH_predicates.json.
python3 ci/check_bench_exact_arith.py ci/artifacts/bench_exact_arith.json
python3 ci/check_bench_exact_arith.py BENCH_exact_arith.json \
  --baseline BENCH_predicates.json

echo "==> server smoke: loopback PING + BATCH, graceful SIGTERM drain"
# The daemon prints its bound address on stdout; parse the ephemeral port
# from the first line, exercise two opcodes through the CLI client, then
# send SIGTERM and require exit 0 — the daemon's contract that every
# admitted request was answered before the process left.
server_log=ci/artifacts/server_smoke.log
./build-ci/src/server/topodb_server --workers 2 --queue 16 \
  > "$server_log" &
server_pid=$!
for _ in $(seq 1 50); do
  grep -q "listening on" "$server_log" 2>/dev/null && break
  sleep 0.1
done
server_port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
  "$server_log" | head -1)
[[ -n "$server_port" ]] || { echo "server never came up"; exit 1; }
./build-ci/src/client/topodb_client --port "$server_port" ping
./build-ci/src/client/topodb_client --port "$server_port" \
  batch fig1a fig1d nested
kill -TERM "$server_pid"
wait "$server_pid"
grep -q "drained cleanly" "$server_log" \
  || { echo "server did not drain cleanly"; exit 1; }

echo "==> server smoke: bench_server_load (closed loop + overload shed)"
TOPODB_BENCH_SMOKE=1 \
TOPODB_METRICS_JSON=ci/artifacts/server_load_metrics.json \
  ./build-ci/bench/bench_server_load --benchmark_min_time=0.01
python3 ci/check_metrics_json.py ci/artifacts/server_load_metrics.json

echo "==> bench smoke: store (catalog startup vs parse-and-rebuild)"
# Smoke workloads are tiny so no speedup floor is enforced on the smoke
# artifact; the checked-in full-size BENCH_store.json carries the >=5x
# acceptance bar. Regenerate with
#   TOPODB_BENCH_STORE_JSON=BENCH_store.json \
#     build/bench/bench_store --benchmark_filter='^$'
TOPODB_BENCH_SMOKE=1 \
TOPODB_BENCH_STORE_JSON=ci/artifacts/bench_store.json \
  ./build-ci/bench/bench_store --benchmark_min_time=0.01
python3 ci/check_bench_store.py ci/artifacts/bench_store.json
python3 ci/check_bench_store.py BENCH_store.json --min-speedup 5

echo "==> catalog smoke: ingest, serve, exit codes, restart"
# expect_exit CODE cmd... : run under set -e, demand the documented exit
# code (src/base/status.h ExitCodeForStatus — status_test pins the table).
expect_exit() {
  local want=$1; shift
  local got=0
  "$@" || got=$?
  if [[ "$got" != "$want" ]]; then
    echo "expected exit $want from: $* (got $got)"; exit 1
  fi
}
catalog_dir=$(mktemp -d /tmp/topodb_ci_catalog_XXXXXX)
trap 'rm -rf "$catalog_dir"' EXIT
./build-ci/src/store/topodb_load --catalog "$catalog_dir" \
  fixtures fig1a nested
./build-ci/src/store/topodb_load --catalog "$catalog_dir" workload chain:16
catalog_log=ci/artifacts/server_catalog_smoke.log
./build-ci/src/server/topodb_server --workers 2 --queue 16 \
  --catalog "$catalog_dir" > "$catalog_log" &
catalog_pid=$!
for _ in $(seq 1 50); do
  grep -q "listening on" "$catalog_log" 2>/dev/null && break
  sleep 0.1
done
catalog_port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
  "$catalog_log" | head -1)
[[ -n "$catalog_port" ]] || { echo "catalog server never came up"; exit 1; }
client="./build-ci/src/client/topodb_client --port $catalog_port"
$client load fig1d fig1d
$client list | grep -q "4 instance(s)" \
  || { echo "catalog list should show 4 instances"; exit 1; }
$client describe fig1a | grep -q "s-invariant yes" \
  || { echo "describe fig1a failed"; exit 1; }
# Byte-identity proxy: the catalog-served instance must be isomorphic to
# the same fixture sent inline as text.
$client iso @fig1a fig1a | grep -qx "isomorphic" \
  || { echo "catalog fig1a diverges from the text path"; exit 1; }
$client batch @fig1a @nested @chain:16 fig1d
# EVAL_QUERY over the catalog, twice with equivalent spellings: the first
# is a semantic-cache miss, the double-negated respelling canonicalizes
# to the same key and must be answered from the verdict cache. The
# server's metrics export then has to show the planner ran and the cache
# hit (semcache.hits >= 1), which the --require-semcache checker pins.
$client eval @fig1a "connect(A, A)" | grep -qx "true" \
  || { echo "eval connect(A, A) on fig1a should be true"; exit 1; }
$client eval @fig1a "not (not connect(A, A))" | grep -qx "true" \
  || { echo "respelled eval should hit the verdict cache as true"; exit 1; }
# A warm verdict never answers for an unknown name: "connect(Z, Z) and
# false" canonicalizes to "false", whose verdict is now cached, and must
# still be NotFound (4).
$client eval @fig1a "false" | grep -qx "false" \
  || { echo "eval false on fig1a should be false"; exit 1; }
expect_exit 4 $client eval @fig1a "connect(Z, Z) and false"
# A query nested past the parser's depth bound is a ParseError (7), and
# the daemon that rejected it still answers.
deep_query=$(python3 -c 'print("(" * 10000 + "connect(A, A)" + ")" * 10000)')
expect_exit 7 $client eval @fig1a "$deep_query"
$client ping
$client metrics > ci/artifacts/catalog_metrics.json
python3 ci/check_metrics_json.py ci/artifacts/catalog_metrics.json \
  --require-semcache
# One metrics scheme for every cache: the same seven series under each of
# the four prefixes, and every cache has seen at least one lookup.
python3 - <<'EOF'
import json
doc = json.load(open("ci/artifacts/catalog_metrics.json"))
for prefix in ("textcache", "invariant_cache", "enginecache", "semcache"):
    counters = {name: doc["counters"].get(f"{prefix}.{name}") for name in
                ("hits", "misses", "insertions", "evictions", "rejected")}
    gauges = {name: doc["gauges"].get(f"{prefix}.{name}") for name in
              ("entries", "bytes")}
    assert all(isinstance(v, int) for v in counters.values()), (prefix, counters)
    assert all(isinstance(v, int) for v in gauges.values()), (prefix, gauges)
    assert counters["hits"] + counters["misses"] >= 1, (prefix, counters)
print("cache metrics OK: 7 series under each of 4 prefixes")
EOF
# Unknown catalog names are NotFound (4) uniformly across opcodes.
expect_exit 4 $client describe ghost
expect_exit 4 $client invariant @ghost
expect_exit 4 $client iso @ghost fig1a
# An invalid catalog name is rejected before ingest (InvalidArgument = 2).
expect_exit 2 $client load "bad/name" fig1a
kill -TERM "$catalog_pid"
wait "$catalog_pid"
grep -q "drained cleanly" "$catalog_log" \
  || { echo "catalog server did not drain cleanly"; exit 1; }
# Restart against the same directory: everything must serve from the
# store files alone, including the entry loaded over the wire.
./build-ci/src/server/topodb_server --workers 2 --queue 16 \
  --catalog "$catalog_dir" > "$catalog_log" &
catalog_pid=$!
for _ in $(seq 1 50); do
  grep -q "listening on" "$catalog_log" 2>/dev/null && break
  sleep 0.1
done
catalog_port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
  "$catalog_log" | head -1)
[[ -n "$catalog_port" ]] || { echo "catalog restart never came up"; exit 1; }
client="./build-ci/src/client/topodb_client --port $catalog_port"
$client list | grep -q "4 instance(s)" \
  || { echo "restart lost catalog entries"; exit 1; }
$client describe fig1d | grep -q "fig1d: entry" \
  || { echo "restart lost the wire-loaded entry"; exit 1; }
$client batch @fig1a @nested @chain:16 @fig1d
$client iso @fig1d fig1d | grep -qx "isomorphic" \
  || { echo "restarted catalog fig1d diverges from the text path"; exit 1; }
kill -TERM "$catalog_pid"
wait "$catalog_pid"
grep -q "drained cleanly" "$catalog_log" \
  || { echo "restarted catalog server did not drain cleanly"; exit 1; }

echo "==> shard smoke: 2-shard fleet, kill-one-shard route-around, drain"
# Two catalog-backed shards behind a router. With ring ids a/b (vnodes 64)
# the placements below are deterministic — shard_ring_test pins the hash,
# so a change that moves them is a placement break, not CI flakiness:
#   catalog names:  single,fig6 -> a     nested,fig1a -> b
#   inline texts:   fig6,nested,disjoint -> b
shard_a_dir=$(mktemp -d /tmp/topodb_ci_shard_a_XXXXXX)
shard_b_dir=$(mktemp -d /tmp/topodb_ci_shard_b_XXXXXX)
# A failing stage must not leave a daemon running (it would keep a
# captured CI log open): daemons started below are killed on failure.
daemon_pids=()
trap 'status=$?; rm -rf "$catalog_dir" "$shard_a_dir" "$shard_b_dir"
      (( status == 0 )) || kill -KILL "${daemon_pids[@]}" 2>/dev/null || true
      exit $status' EXIT
start_server() {  # start_server LOGFILE ARGS... ; sets started_pid/started_port
  local log=$1; shift
  "$@" > "$log" 2>&1 &
  started_pid=$!
  daemon_pids+=("$started_pid")
  for _ in $(seq 1 50); do
    grep -q "listening on" "$log" 2>/dev/null && break
    sleep 0.1
  done
  started_port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$log" | head -1)
  [[ -n "$started_port" ]] || { echo "$log: never came up"; exit 1; }
}
start_server ci/artifacts/shard_a.log \
  ./build-ci/src/server/topodb_server --workers 2 --queue 16 \
  --catalog "$shard_a_dir"
shard_a_pid=$started_pid; shard_a_port=$started_port
start_server ci/artifacts/shard_b.log \
  ./build-ci/src/server/topodb_server --workers 2 --queue 16 \
  --catalog "$shard_b_dir"
shard_b_pid=$started_pid; shard_b_port=$started_port
start_server ci/artifacts/shard_router.log \
  ./build-ci/src/shard/topodb_router \
  --shard "a=$shard_a_port" --shard "b=$shard_b_port"
router_pid=$started_pid; router_port=$started_port
rclient="./build-ci/src/client/topodb_client --port $router_port"
$rclient ping
# LOAD through the router: each entry lands on its ring owner's catalog.
$rclient load single single
$rclient load fig6 fig6
$rclient load nested nested
$rclient load fig1a fig1a
$rclient list | grep -q "4 instance(s)" \
  || { echo "router list should merge 4 instances"; exit 1; }
# Placement is physical: each shard's own catalog directory holds exactly
# its ring-owned entries.
[[ -n "$(ls -A "$shard_a_dir")" && -n "$(ls -A "$shard_b_dir")" ]] \
  || { echo "LOAD through the router did not split across shards"; exit 1; }
$rclient describe nested | grep -q "s-invariant" \
  || { echo "router describe nested failed"; exit 1; }
# Cross-shard scatter-gather (catalog refs on both shards + inline texts)
# and a cross-path ISO check through the router.
$rclient batch @single @nested fig1a fig6
$rclient iso @single single | grep -qx "isomorphic" \
  || { echo "router catalog single diverges from the text path"; exit 1; }
$rclient eval fig1a "connect(A, A)" | grep -qx "true" \
  || { echo "router eval connect(A, A) on fig1a should be true"; exit 1; }
# Kill shard b mid-run. Inline work it owned must route around the corpse;
# name-keyed reads of its catalog must fail with Unavailable (9).
kill -TERM "$shard_b_pid"
wait "$shard_b_pid"
$rclient batch fig6 nested disjoint
$rclient invariant nested
expect_exit 9 $rclient describe nested
$rclient describe single | grep -q "s-invariant" \
  || { echo "surviving shard lost its catalog"; exit 1; }
$rclient list | grep -q "2 instance(s)" \
  || { echo "router list should serve the surviving shard"; exit 1; }
$rclient metrics > ci/artifacts/router_metrics.json
python3 - <<'EOF'
import json
doc = json.load(open("ci/artifacts/router_metrics.json"))
counters = doc["counters"]
assert counters.get("router.rerouted", 0) >= 1, counters
assert counters.get("router.health_transitions", 0) >= 1, counters
assert counters.get("shard.a.server.requests", 0) >= 1, counters
print("router metrics OK: rerouted=%d health_transitions=%d" %
      (counters["router.rerouted"], counters["router.health_transitions"]))
EOF
kill -TERM "$router_pid"
wait "$router_pid"
grep -q "drained cleanly" ci/artifacts/shard_router.log \
  || { echo "router did not drain cleanly"; exit 1; }
kill -TERM "$shard_a_pid"
wait "$shard_a_pid"

echo "==> front door under ulimit -n 128: 300 connections, 300 probes"
# Every daemon here runs with 128 fds. A front door that kept closed
# connections' fds would stop accepting after ~120 connections, and a
# prober stuck on an unanswered probe would keep the router from
# draining. Every call runs under `timeout`, so such a regression fails
# this stage instead of hanging it.
fd_capped() { ulimit -n 128 && exec "$@"; }
stop_daemon() {  # stop_daemon PID LOG: SIGTERM, then a clean drain in 10 s
  kill -TERM "$1"
  for _ in $(seq 1 100); do
    if grep -q "drained cleanly" "$2"; then
      wait "$1" || { echo "$2: exited nonzero after draining"; exit 1; }
      return
    fi
    sleep 0.1
  done
  kill -KILL "$1"
  echo "$2: no clean drain within 10 s of SIGTERM"; exit 1
}
ping_n() {  # ping_n PORT N
  for _ in $(seq 1 "$2"); do
    timeout 5 ./build-ci/src/client/topodb_client --port "$1" ping >/dev/null
  done
}
start_server ci/artifacts/lowfd_server.log \
  fd_capped ./build-ci/src/server/topodb_server --workers 2 --queue 16
lowfd_pid=$started_pid
ping_n "$started_port" 300
stop_daemon "$lowfd_pid" ci/artifacts/lowfd_server.log
start_server ci/artifacts/lowfd_shard.log \
  fd_capped ./build-ci/src/server/topodb_server --workers 2 --queue 16
lowfd_shard_pid=$started_pid
start_server ci/artifacts/lowfd_router.log \
  fd_capped ./build-ci/src/shard/topodb_router --health-ms 10 \
  --shard "a=$started_port"
lowfd_router_pid=$started_pid
sleep 3  # At least 300 health probes, each on a fresh shard connection.
ping_n "$started_port" 300
timeout 5 ./build-ci/src/client/topodb_client --port "$started_port" \
  invariant fig1a >/dev/null
stop_daemon "$lowfd_router_pid" ci/artifacts/lowfd_router.log
stop_daemon "$lowfd_shard_pid" ci/artifacts/lowfd_shard.log

echo "==> bench smoke: shard scaling (router scatter-gather, 1/2/4 shards)"
# Every response in the bench is byte-compared against library ground
# truth, so the smoke run is a correctness gate for the scatter-gather
# path. Smoke workloads are tiny so the scaling floors apply only to the
# checked-in full-size artifact. Regenerate with
#   TOPODB_BENCH_SHARD_JSON=BENCH_shard.json \
#     build/bench/bench_shard_scaling --benchmark_filter='^$'
TOPODB_BENCH_SMOKE=1 \
TOPODB_BENCH_SHARD_JSON=ci/artifacts/bench_shard.json \
  ./build-ci/bench/bench_shard_scaling --benchmark_min_time=0.01
python3 ci/check_bench_shard.py ci/artifacts/bench_shard.json
python3 ci/check_bench_shard.py BENCH_shard.json --min-2x 1.6 --min-4x 2.5

echo "==> ledger: build perfbench/, self-test, catalog_query answers"
# perfbench/replay.cc compiles against library names that nothing else in
# the tree calls, so this stage is what keeps them building. The
# self-test must catch a planted wrong answer, and a short catalog_query
# run exits 1 on any wrong EVAL_QUERY answer from the real daemon. No
# timing is gated here: --trace 1's residual bound is a benchmark gate
# that a loaded CI host could trip.
python3 perfbench/run.py --self-test
python3 perfbench/run.py --workload catalog_query --seconds 2 --trace 0 \
  | tee ci/artifacts/ledger_catalog_query.txt

if [[ "${1:-}" != "--no-sanitizers" ]]; then
  echo "==> sanitizers: ASan + UBSan (incl. float-cast-overflow)"
  # float-cast-overflow is not part of GCC's "undefined" group; it is named
  # explicitly so the predicate-filter fuzz suites (predicate_filter_test,
  # interval_test) run with their double<->rational conversion paths
  # checked for out-of-range casts.
  run_suite build-asan \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow"

  echo "==> sanitizers: TSan (concurrency, server, router, front door)"
  # A full TSan suite run would dominate CI wall-clock; these suites are
  # written to cover exactly the cross-thread access patterns (shared
  # InvariantCache, BoundedCache caps under contention of both policies,
  # shared MetricsRegistry, one engine serving many
  # threads, cancellation flipped mid-flight, the acceptor/reader/worker
  # handoffs of the serving layer, the front door's self-retiring
  # readers under connection churn and fd exhaustion, and the router's
  # scatter threads / health-prober / session handoffs on top of real
  # backend fleets).
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j --target concurrency_test server_test \
    shard_router_test transport_test front_door_test
  ctest --test-dir build-tsan --output-on-failure \
    -R "ConcurrencyTest|ServerTest|RouterTest|ServerTruncationTest|FrontDoorTest"
fi

echo "==> CI OK"
