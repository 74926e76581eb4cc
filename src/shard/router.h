#ifndef TOPODB_SHARD_ROUTER_H_
#define TOPODB_SHARD_ROUTER_H_

// The TopoDB shard router: a loopback TCP daemon speaking the wire
// protocol of src/server/wire.h on the front — through the same front
// door as topodb_server (src/server/frame_server.h) — and fanning out to
// a fleet of topodb_server backends on the back through pooled
// TopoDbClient connections (DESIGN.md §5i).
//
// Routing:
//   - Single-instance opcodes (COMPUTE_INVARIANT, EVAL_QUERY, LOAD,
//     DESCRIBE, same-shard ISO_CHECK) route by key — the catalog name
//     for name refs, the raw text for inline refs — to the key's ring
//     owner. Request payloads are forwarded byte-for-byte and response
//     bodies returned byte-for-byte, so a routed exchange is
//     byte-identical to a direct one.
//   - Inline-text keys are *relocatable*: any shard can compute them, so
//     a dead owner reroutes them down the ring walk (router.rerouted).
//     Name keys are not — the data lives where the ring put it, so a
//     request for a name whose owner is down fails with Unavailable
//     rather than silently asking a shard that never had it.
//   - BATCH_INVARIANTS scatter-gathers: items group by target shard,
//     sub-batches fly in parallel, and results reassemble positionally.
//     Per-item statuses stay per-item; a shard that dies mid-batch fails
//     over its relocatable items to the next replica and reports its
//     name-keyed items individually as Unavailable. The batch request
//     never fails because a backend did.
//   - Cross-shard ISO_CHECK decomposes into two COMPUTE_INVARIANT
//     sub-requests and compares canonicals (Theorem 3.4 equivalence is
//     canonical-string equality, so the decomposition is exact).
//   - LIST and METRICS fan out to every serving shard and merge: LIST as
//     a name-sorted first-wins union, METRICS through
//     src/shard/metrics_merge.h into one registry view with per-shard
//     labels.
//
// Deadlines: the client's budget is materialized into an obs::Deadline
// when the frame is read, and every backend frame carries what *remains*
// of it (Deadline::WireBudgetMs), so queue wait and earlier hops spend
// the same budget end-to-end.
//
// Health: a HealthChecker probes backends on an interval; transport
// failures on live traffic additionally mark the shard unhealthy in the
// same request that observed the death. A backend shedding with
// "queue full (N/N)" is overloaded, not dead: the shed propagates to the
// client as backpressure instead of triggering a reroute that would melt
// the remaining shards.

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/shard/topology.h"

namespace topodb {

struct RouterOptions {
  // Front loopback port; 0 binds an ephemeral port (read port() back).
  uint16_t port = 0;
  // Backend fleet. Ids are the ring identity: keep them stable across
  // restarts or placement moves.
  std::vector<ShardEndpoint> shards;
  int vnodes = 64;
  // Health probing. Disable to drive topology states manually in tests.
  bool health_checker = true;
  std::chrono::milliseconds health_interval{200};
  // Bounds each probe's whole exchange — dial, PING, reply — so a shard
  // that accepts but never answers reads as unhealthy.
  uint32_t health_probe_budget_ms = 1000;
  // Metrics sink for router.* (nullptr = router-owned registry).
  MetricsRegistry* metrics = nullptr;
};

class TopoDbRouter {
 public:
  explicit TopoDbRouter(RouterOptions options);
  ~TopoDbRouter();  // Shuts down gracefully if still running.

  TopoDbRouter(const TopoDbRouter&) = delete;
  TopoDbRouter& operator=(const TopoDbRouter&) = delete;

  // Builds the topology and pools, runs one synchronous health sweep (so
  // the first request sees real states), then binds and starts serving.
  Status Start();

  uint16_t port() const;

  // Graceful drain, idempotent: stop accepting, let in-flight requests
  // finish (each gets its response), join every session, stop the
  // health checker.
  Status Shutdown();

  MetricsRegistry& metrics();

  // The live topology (valid after Start). Tests use SetState to force
  // health transitions deterministically.
  ShardTopology& topology();

  // One synchronous health sweep (valid after Start).
  void ProbeNow();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace topodb

#endif  // TOPODB_SHARD_ROUTER_H_
