#ifndef TOPODB_SHARD_TOPOLOGY_H_
#define TOPODB_SHARD_TOPOLOGY_H_

// The router's live view of a shard fleet: a static consistent-hash ring
// (placement never moves while a cluster is up — data lives where the
// ring put it) plus a mutable health state per shard that only *filters*
// routing.
//
// Health state machine (DESIGN.md §5i):
//
//          probe ok, serving            probe ok, draining
//   kHealthy <------------- kUnhealthy ------------> kDraining
//      |  \___________________________^                  |
//      |    connect/transport failure                    | probe fails
//      |    (probe or live request)                      v (process gone)
//      +---------------------------------------------> kUnhealthy
//
// kDraining backends are still answering admitted work but reject new
// requests, so the router stops sending them traffic before they
// disappear; kUnhealthy backends take no traffic at all. Both states heal
// back to kHealthy the moment a probe sees a serving PING — shard restart
// is rejoin, no operator action.
//
// The HealthChecker probes on an interval with a fresh connection per
// probe (a pooled connection would test the pool, not the backend). The
// router additionally marks shards kUnhealthy reactively when a live
// request hits a transport failure, so routing reacts in the same request
// that observed the death rather than waiting out the probe interval.
// A backend that sheds ("queue full") is overloaded, not dead: it stays
// kHealthy and the shed propagates to the client as backpressure.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/shard/hash_ring.h"

namespace topodb {

enum class ShardState : uint8_t { kHealthy = 0, kDraining = 1, kUnhealthy = 2 };

// "healthy" / "draining" / "unhealthy".
std::string_view ShardStateName(ShardState state);

struct ShardEndpoint {
  std::string id;     // Ring identity; stable across restarts.
  uint16_t port = 0;  // Loopback port of the topodb_server backend.
};

struct ShardTopologyOptions {
  std::vector<ShardEndpoint> shards;
  int vnodes = 64;
  // Optional sink for router.health_transitions and the per-shard
  // router.shard.<id>.state gauges.
  MetricsRegistry* metrics = nullptr;
};

class ShardTopology {
 public:
  static Result<ShardTopology> Build(ShardTopologyOptions options);

  ShardTopology(ShardTopology&&) = default;

  size_t num_shards() const { return endpoints_.size(); }
  const ShardEndpoint& endpoint(size_t shard) const {
    return endpoints_[shard];
  }
  const ConsistentHashRing& ring() const { return ring_; }

  ShardState state(size_t shard) const;
  // Sets a shard's state, counting the change in
  // router.health_transitions (a no-op set does not count).
  void SetState(size_t shard, ShardState state);

  // The shard that owns `key` on the ring, regardless of health —
  // placement for name-keyed data.
  size_t Owner(std::string_view key) const { return ring_.ShardForKey(key); }

  // Serving-preference order for `key`: the ring walk from the owner,
  // filtered to kHealthy shards. Empty when the whole fleet is down.
  std::vector<size_t> Route(std::string_view key) const;

  // Every kHealthy shard, in shard order (fan-out targets for LIST /
  // METRICS).
  std::vector<size_t> AllServing() const;

 private:
  ShardTopology(std::vector<ShardEndpoint> endpoints, ConsistentHashRing ring,
                MetricsRegistry* metrics);

  std::vector<ShardEndpoint> endpoints_;
  ConsistentHashRing ring_;
  Counter* c_transitions_;
  std::vector<Gauge*> g_state_;

  // One atomic per shard (relaxed everywhere): health is advisory —
  // routing tolerates reading a state one transition stale, and the
  // reactive mark-unhealthy path corrects it within the same request.
  std::unique_ptr<std::atomic<uint8_t>[]> states_;
};

struct HealthCheckerOptions {
  std::chrono::milliseconds interval{200};
  // Budget for each probe's whole exchange (dial, PING, reply); a backend
  // that cannot complete it in this window is treated as unhealthy.
  uint32_t probe_budget_ms = 1000;
};

// Periodically probes every shard in `topology` and updates its state.
// One probe sweep is also callable synchronously (ProbeOnce) — the router
// runs one before accepting traffic so the first request sees real
// states, and tests drive sweeps deterministically.
class HealthChecker {
 public:
  HealthChecker(ShardTopology* topology, HealthCheckerOptions options)
      : topology_(topology), options_(options) {}
  ~HealthChecker() { Stop(); }

  HealthChecker(const HealthChecker&) = delete;
  HealthChecker& operator=(const HealthChecker&) = delete;

  // Runs one probe sweep synchronously, then starts the interval thread.
  void Start();
  // Stops and joins the probe thread; idempotent.
  void Stop();

  // One synchronous sweep over all shards.
  void ProbeOnce();

 private:
  void Loop();
  // Probes one shard and returns its observed state.
  ShardState Probe(const ShardEndpoint& endpoint) const;

  ShardTopology* topology_;
  const HealthCheckerOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace topodb

#endif  // TOPODB_SHARD_TOPOLOGY_H_
