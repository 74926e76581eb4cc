#include "src/shard/topology.h"

#include <utility>

#include "src/client/client.h"

namespace topodb {

std::string_view ShardStateName(ShardState state) {
  switch (state) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kDraining:
      return "draining";
    case ShardState::kUnhealthy:
      return "unhealthy";
  }
  return "?";
}

ShardTopology::ShardTopology(std::vector<ShardEndpoint> endpoints,
                             ConsistentHashRing ring, MetricsRegistry* metrics)
    : endpoints_(std::move(endpoints)),
      ring_(std::move(ring)),
      c_transitions_(RegistryCounter(metrics, "router.health_transitions")),
      states_(new std::atomic<uint8_t>[endpoints_.size()]) {
  g_state_.reserve(endpoints_.size());
  for (size_t s = 0; s < endpoints_.size(); ++s) {
    // Shards start healthy: the router's startup probe corrects this
    // before traffic, and optimism never strands a request — a dead
    // backend fails its first call and is marked reactively.
    states_[s].store(static_cast<uint8_t>(ShardState::kHealthy),
                     std::memory_order_relaxed);
    g_state_.push_back(RegistryGauge(
        metrics, "router.shard." + endpoints_[s].id + ".state"));
    GaugeSet(g_state_[s], 0);
  }
}

Result<ShardTopology> ShardTopology::Build(ShardTopologyOptions options) {
  if (options.shards.empty()) {
    return Status::InvalidArgument("shard topology needs at least one shard");
  }
  std::vector<std::string> ids;
  ids.reserve(options.shards.size());
  for (const ShardEndpoint& shard : options.shards) {
    if (shard.id.empty()) {
      return Status::InvalidArgument("shard id must be non-empty");
    }
    ids.push_back(shard.id);
  }
  TOPODB_ASSIGN_OR_RETURN(
      ConsistentHashRing ring,
      ConsistentHashRing::Build(std::move(ids), options.vnodes));
  return ShardTopology(std::move(options.shards), std::move(ring),
                       options.metrics);
}

ShardState ShardTopology::state(size_t shard) const {
  return static_cast<ShardState>(
      states_[shard].load(std::memory_order_relaxed));
}

void ShardTopology::SetState(size_t shard, ShardState state) {
  const uint8_t next = static_cast<uint8_t>(state);
  const uint8_t prev =
      states_[shard].exchange(next, std::memory_order_relaxed);
  if (prev != next) {
    CounterAdd(c_transitions_);
    GaugeSet(g_state_[shard], static_cast<int64_t>(next));
  }
}

std::vector<size_t> ShardTopology::Route(std::string_view key) const {
  std::vector<size_t> serving;
  for (const size_t shard : ring_.WalkOrder(key)) {
    if (state(shard) == ShardState::kHealthy) serving.push_back(shard);
  }
  return serving;
}

std::vector<size_t> ShardTopology::AllServing() const {
  std::vector<size_t> serving;
  for (size_t s = 0; s < endpoints_.size(); ++s) {
    if (state(s) == ShardState::kHealthy) serving.push_back(s);
  }
  return serving;
}

void HealthChecker::Start() {
  ProbeOnce();
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void HealthChecker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void HealthChecker::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cv_.wait_for(lock, options_.interval, [this] { return stopping_; })) {
      return;
    }
    lock.unlock();
    ProbeOnce();
    lock.lock();
  }
}

void HealthChecker::ProbeOnce() {
  for (size_t s = 0; s < topology_->num_shards(); ++s) {
    topology_->SetState(s, Probe(topology_->endpoint(s)));
  }
}

ShardState HealthChecker::Probe(const ShardEndpoint& endpoint) const {
  // A fresh connection per probe: reusing a pooled one would report on
  // the pool's socket, not on whether the backend still accepts work. The
  // budget bounds the whole exchange, so a backend that accepts but never
  // answers is unhealthy rather than a prober stuck in recv.
  const Result<PingBody> pong =
      TopoDbClient::ProbeHealth(endpoint.port, options_.probe_budget_ms);
  if (!pong.ok()) {
    // A reachable-but-refusing backend ("server draining" from the
    // pre-body race window) is draining; anything else — transport
    // failure, budget blown — is unhealthy.
    if (pong.status().code() == StatusCode::kUnavailable &&
        !TopoDbClient::IsTransportError(pong.status())) {
      return ShardState::kDraining;
    }
    return ShardState::kUnhealthy;
  }
  return pong->state == kPingStateDraining ? ShardState::kDraining
                                           : ShardState::kHealthy;
}

}  // namespace topodb
