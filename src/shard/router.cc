#include "src/shard/router.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/client/pool.h"
#include "src/obs/deadline.h"
#include "src/server/frame_server.h"
#include "src/server/wire.h"
#include "src/shard/metrics_merge.h"

namespace topodb {
namespace {

// Backend-pool retry: on (a dropped backend connection is routine during
// shard restarts), unlike the plain client default. Kept to one fast
// re-attempt — the ring walk, not the retry loop, is the failover
// mechanism.
constexpr RetryPolicy kBackendRetry{
    /*max_retries=*/1, /*initial_backoff=*/std::chrono::milliseconds(2),
    /*multiplier=*/2.0, /*max_backoff=*/std::chrono::milliseconds(50)};
// Idle connections kept per backend: enough for a handful of concurrent
// front sessions and scatter threads to reuse dials, without holding a
// socket per past traffic peak.
constexpr size_t kPoolMaxIdle = 8;

// The routing key of an instance ref: names key by name (placement
// identity), inline text keys by the full text (content identity — the
// same bytes always land on the same shard, which is what makes each
// shard's text cache converge on its slice of the keyspace).
std::string_view RefKey(const InstanceRef& ref) { return ref.value; }

bool Relocatable(const InstanceRef& ref) {
  return ref.kind == InstanceRef::Kind::kInlineText;
}

}  // namespace

struct TopoDbRouter::Impl {
  explicit Impl(RouterOptions opts)
      : options(std::move(opts)),
        registry(options.metrics != nullptr ? options.metrics
                                            : &owned_metrics),
        front("router", registry,
              [this](const std::shared_ptr<FrameSession>& session,
                     FrameRequest request) {
                Serve(*session, std::move(request));
              }) {}

  ~Impl() { (void)ShutdownImpl(); }

  RouterOptions options;
  MetricsRegistry owned_metrics;
  MetricsRegistry* registry;

  std::optional<ShardTopology> topo;
  std::optional<HealthChecker> checker;
  std::vector<std::unique_ptr<ClientPool>> pools;

  // Sockets, sessions, framing and the byte/protocol counters; readers
  // hand each request frame to Serve().
  FrameServer front;

  std::atomic<bool> started{false};
  std::atomic<bool> running{false};
  std::atomic<bool> draining{false};

  Counter* const c_requests = registry->counter("router.requests");
  Counter* const c_routed = registry->counter("router.routed");
  Counter* const c_rerouted = registry->counter("router.rerouted");
  Counter* const c_unroutable = registry->counter("router.unroutable");
  Counter* const c_backend_errors =
      registry->counter("router.backend_errors");
  Histogram* const h_request_us = registry->histogram("router.request_us");
  std::vector<Counter*> c_shard_requests;
  std::vector<Histogram*> h_shard_latency;

  Status StartImpl() {
    if (started.exchange(true)) {
      return Status::InvalidArgument("router already started");
    }
    ShardTopologyOptions topo_options;
    topo_options.shards = options.shards;
    topo_options.vnodes = options.vnodes;
    topo_options.metrics = registry;
    TOPODB_ASSIGN_OR_RETURN(ShardTopology built,
                            ShardTopology::Build(std::move(topo_options)));
    topo.emplace(std::move(built));
    for (size_t s = 0; s < topo->num_shards(); ++s) {
      ClientPoolOptions pool_options;
      pool_options.port = topo->endpoint(s).port;
      pool_options.max_idle = kPoolMaxIdle;
      pool_options.client.retry = kBackendRetry;
      pool_options.client.metrics = registry;
      pools.push_back(std::make_unique<ClientPool>(pool_options));
      c_shard_requests.push_back(registry->counter(
          "router.shard." + topo->endpoint(s).id + ".requests"));
      h_shard_latency.push_back(registry->histogram(
          "router.shard." + topo->endpoint(s).id + ".latency_us"));
    }

    HealthCheckerOptions checker_options;
    checker_options.interval = options.health_interval;
    checker_options.probe_budget_ms = options.health_probe_budget_ms;
    checker.emplace(&*topo, checker_options);
    if (options.health_checker) {
      checker->Start();  // Runs one synchronous sweep before returning.
    }

    TOPODB_RETURN_NOT_OK(front.Start(options.port));
    running.store(true);
    return Status::OK();
  }

  Status ShutdownImpl() {
    if (!running.exchange(false)) return Status::OK();
    draining.store(true);
    front.StopAccepting();
    // Sessions are synchronous: half-closing the read side lets each
    // reader finish the request it is on (its response still goes out),
    // then see EOF and exit.
    front.CloseSessions();
    if (checker.has_value()) checker->Stop();
    return Status::OK();
  }

  // One frame at a time per session, handled synchronously on its reader
  // thread: the blocking client holds one request in flight per
  // connection, so concurrency comes from sessions (and from the scatter
  // threads within a batch), not from pipelining.
  void Serve(FrameSession& session, FrameRequest request) {
    c_requests->Add();
    std::string body;
    Status status;
    {
      ScopedTimer timer(h_request_us);
      status = Handle(request.opcode, request.payload, request.deadline,
                      &body);
    }
    front.Respond(session, request.opcode, request.request_id, status, body);
  }

  // --- Backend forwarding -------------------------------------------------

  // One forwarded exchange with `shard`. Transport failures discard the
  // pooled connection (the stream may be desynchronized) and mark the
  // shard unhealthy so the very next routing decision avoids it.
  Result<std::string> ForwardOnce(size_t shard, uint16_t opcode,
                                  const std::string& payload,
                                  const Deadline& deadline) {
    if (deadline.HasExpired()) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    c_shard_requests[shard]->Add();
    ScopedTimer timer(h_shard_latency[shard]);
    auto lease = pools[shard]->Acquire();
    if (!lease.ok()) {
      MarkUnhealthy(shard);
      return lease.status();
    }
    Result<std::string> result =
        (*lease)->Call(opcode, payload, deadline.WireBudgetMs());
    if (!result.ok() && TopoDbClient::IsTransportError(result.status())) {
      lease->Discard();
      MarkUnhealthy(shard);
    }
    return result;
  }

  void MarkUnhealthy(size_t shard) {
    c_backend_errors->Add();
    topo->SetState(shard, ShardState::kUnhealthy);
  }

  // Routes one verbatim payload by key. Relocatable keys walk the ring
  // past transport failures; non-relocatable (catalog-name) keys fail
  // where their data lives.
  Status RouteSingle(uint16_t opcode, const std::string& payload,
                     std::string_view key, bool relocatable,
                     const Deadline& deadline, std::string* body) {
    if (!relocatable) {
      const size_t owner = topo->Owner(key);
      if (topo->state(owner) != ShardState::kHealthy) {
        c_unroutable->Add();
        return Status::Unavailable("shard '" + topo->endpoint(owner).id +
                                   "' is " +
                                   std::string(ShardStateName(
                                       topo->state(owner))));
      }
      TOPODB_ASSIGN_OR_RETURN(*body,
                              ForwardOnce(owner, opcode, payload, deadline));
      c_routed->Add();
      return Status::OK();
    }
    Status last = Status::Unavailable("no serving shard");
    const std::vector<size_t> order = topo->Route(key);
    if (order.empty()) {
      c_unroutable->Add();
      return last;
    }
    for (size_t i = 0; i < order.size(); ++i) {
      if (i > 0) c_rerouted->Add();
      Result<std::string> result =
          ForwardOnce(order[i], opcode, payload, deadline);
      if (result.ok()) {
        *body = *std::move(result);
        c_routed->Add();
        return Status::OK();
      }
      // A server-sent status (shed, per-request error, deadline) is the
      // authoritative answer — only transport failures keep walking.
      if (!TopoDbClient::IsTransportError(result.status())) {
        return result.status();
      }
      last = result.status();
    }
    return last;
  }

  // Forwards one ref as a COMPUTE_INVARIANT and decodes the canonical —
  // the cross-shard ISO_CHECK leg.
  Result<std::string> CanonicalForRef(const InstanceRef& ref,
                                      const Deadline& deadline) {
    std::string payload;
    AppendInstanceRef(&payload, ref);
    std::string body;
    TOPODB_RETURN_NOT_OK(
        RouteSingle(static_cast<uint16_t>(Opcode::kComputeInvariant), payload,
                    RefKey(ref), Relocatable(ref), deadline, &body));
    WireReader reader(body);
    TOPODB_ASSIGN_OR_RETURN(std::string canonical, reader.ReadWireString());
    TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
    return canonical;
  }

  // --- Scatter-gather BATCH_INVARIANTS ------------------------------------

  Status HandleBatch(const std::string& payload, const Deadline& deadline,
                     std::string* body) {
    TOPODB_ASSIGN_OR_RETURN(std::vector<InstanceRef> refs,
                            DecodeBatchRequest(payload));
    const size_t n = refs.size();

    // Per-item (wire status, canonical-or-message), positionally aligned
    // with the request.
    std::vector<std::pair<uint32_t, std::string>> results(
        n, {WireStatusFromCode(StatusCode::kInternal), "unresolved"});
    std::vector<size_t> pending(n);
    for (size_t i = 0; i < n; ++i) pending[i] = i;

    // Each pass groups the pending items by target shard and flies the
    // sub-batches in parallel. A transport failure fails the dead
    // shard's relocatable items over to the next pass (their Route now
    // excludes the shard just marked unhealthy); everything else
    // resolves in place. At most num_shards passes: each extra pass
    // means a shard died this request.
    for (size_t pass = 0; pass < topo->num_shards() && !pending.empty();
         ++pass) {
      std::vector<std::vector<size_t>> groups(topo->num_shards());
      for (const size_t idx : pending) {
        const InstanceRef& ref = refs[idx];
        if (!Relocatable(ref)) {
          const size_t owner = topo->Owner(RefKey(ref));
          if (topo->state(owner) != ShardState::kHealthy) {
            c_unroutable->Add();
            results[idx] = {
                WireStatusFromCode(StatusCode::kUnavailable),
                "shard '" + topo->endpoint(owner).id + "' is " +
                    std::string(ShardStateName(topo->state(owner)))};
          } else {
            groups[owner].push_back(idx);
          }
        } else {
          const std::vector<size_t> order = topo->Route(RefKey(ref));
          if (order.empty()) {
            c_unroutable->Add();
            results[idx] = {WireStatusFromCode(StatusCode::kUnavailable),
                            "no serving shard"};
          } else {
            if (pass > 0) c_rerouted->Add();
            groups[order[0]].push_back(idx);
          }
        }
      }
      pending.clear();
      std::mutex gather_mu;  // Guards `pending` across scatter threads.
      auto run_group = [&](size_t shard) {
        const std::vector<size_t>& group = groups[shard];
        std::string sub_payload;
        AppendU32(&sub_payload, static_cast<uint32_t>(group.size()));
        for (const size_t idx : group) {
          AppendInstanceRef(&sub_payload, refs[idx]);
        }
        Result<std::string> sub = ForwardOnce(
            shard, static_cast<uint16_t>(Opcode::kBatchInvariants),
            sub_payload, deadline);
        if (sub.ok()) {
          const Status aligned = ScatterDecode(*sub, group, &results);
          if (aligned.ok()) return;
          // A misaligned sub-response is a backend protocol bug; report
          // it per-item rather than trusting any of the positions.
          for (const size_t idx : group) {
            results[idx] = {WireStatusFromCode(StatusCode::kInternal),
                            aligned.message()};
          }
          return;
        }
        const Status st = sub.status();
        const bool transport = TopoDbClient::IsTransportError(st);
        for (const size_t idx : group) {
          if (transport && Relocatable(refs[idx])) {
            // Fails over on the next pass (the shard is now unhealthy).
            std::lock_guard<std::mutex> lock(gather_mu);
            pending.push_back(idx);
          } else {
            results[idx] = {WireStatusFromCode(st.code()), st.message()};
          }
        }
      };
      std::vector<std::thread> scatter;
      std::vector<size_t> targets;
      for (size_t s = 0; s < groups.size(); ++s) {
        if (!groups[s].empty()) targets.push_back(s);
      }
      for (size_t t = 1; t < targets.size(); ++t) {
        scatter.emplace_back(run_group, targets[t]);
      }
      if (!targets.empty()) run_group(targets[0]);
      for (std::thread& thread : scatter) thread.join();
      // Keep positional determinism for the next pass.
      std::sort(pending.begin(), pending.end());
    }
    for (const size_t idx : pending) {
      results[idx] = {WireStatusFromCode(StatusCode::kUnavailable),
                      "no serving shard"};
    }

    AppendU32(body, static_cast<uint32_t>(n));
    for (const auto& [wire_status, text] : results) {
      AppendU32(body, wire_status);
      AppendWireString(body, text);
    }
    c_routed->Add();
    return Status::OK();
  }

  // Splices one sub-batch response into `results` at the group's
  // positions. Internal if the backend's item count disagrees.
  static Status ScatterDecode(
      const std::string& sub_body, const std::vector<size_t>& group,
      std::vector<std::pair<uint32_t, std::string>>* results) {
    WireReader reader(sub_body);
    TOPODB_ASSIGN_OR_RETURN(uint32_t m, reader.ReadU32());
    if (m != group.size()) {
      return Status::Internal("sub-batch response has " + std::to_string(m) +
                              " items, sent " +
                              std::to_string(group.size()));
    }
    for (const size_t idx : group) {
      TOPODB_ASSIGN_OR_RETURN(uint32_t wire_status, reader.ReadU32());
      TOPODB_ASSIGN_OR_RETURN(std::string text, reader.ReadWireString());
      (*results)[idx] = {wire_status, std::move(text)};
    }
    return reader.ExpectEnd();
  }

  // --- Fan-out opcodes ----------------------------------------------------

  Status HandleList(const Deadline& deadline, std::string* body) {
    const std::vector<size_t> serving = topo->AllServing();
    if (serving.empty()) {
      c_unroutable->Add();
      return Status::Unavailable("no serving shard");
    }
    // First-wins union by name in shard order. The ring places each name
    // on one shard, so collisions only appear when a catalog was loaded
    // outside the router; first-wins keeps the merge deterministic.
    std::map<std::string, std::pair<uint64_t, uint64_t>> entries;
    bool any_ok = false;
    Status last_error = Status::OK();
    for (const size_t shard : serving) {
      Result<std::string> result = ForwardOnce(
          shard, static_cast<uint16_t>(Opcode::kList), {}, deadline);
      if (!result.ok()) {
        // A dead shard mid-fan-out is skipped — the merged listing covers
        // the shards that answered, mirroring the reroute story for
        // relocatable work.
        last_error = result.status();
        continue;
      }
      WireReader reader(*result);
      TOPODB_ASSIGN_OR_RETURN(uint32_t m, reader.ReadU32());
      for (uint32_t j = 0; j < m; ++j) {
        TOPODB_ASSIGN_OR_RETURN(std::string name, reader.ReadWireString());
        TOPODB_ASSIGN_OR_RETURN(uint64_t entry_id, reader.ReadU64());
        TOPODB_ASSIGN_OR_RETURN(uint64_t file_bytes, reader.ReadU64());
        entries.emplace(std::move(name),
                        std::make_pair(entry_id, file_bytes));
      }
      TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
      any_ok = true;
    }
    if (!any_ok) return last_error;
    AppendU32(body, static_cast<uint32_t>(entries.size()));
    for (const auto& [name, info] : entries) {
      AppendWireString(body, name);
      AppendU64(body, info.first);
      AppendU64(body, info.second);
    }
    c_routed->Add();
    return Status::OK();
  }

  Status HandleMetrics(const Deadline& deadline, std::string* body) {
    std::vector<std::pair<std::string, ParsedMetrics>> shard_metrics;
    for (const size_t shard : topo->AllServing()) {
      Result<std::string> result = ForwardOnce(
          shard, static_cast<uint16_t>(Opcode::kMetrics), {}, deadline);
      if (!result.ok()) continue;  // Skipped, like LIST.
      WireReader reader(*result);
      TOPODB_ASSIGN_OR_RETURN(std::string json, reader.ReadWireString());
      TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
      TOPODB_ASSIGN_OR_RETURN(ParsedMetrics parsed, ParseMetricsJson(json));
      shard_metrics.emplace_back(topo->endpoint(shard).id,
                                 std::move(parsed));
    }
    // The router's own registry export always parses (same code produced
    // it); a failure here is a genuine bug worth surfacing.
    TOPODB_ASSIGN_OR_RETURN(ParsedMetrics own,
                            ParseMetricsJson(registry->ExportJson()));
    AppendWireString(body, MergeMetricsJson(own, shard_metrics));
    return Status::OK();
  }

  // --- Dispatch -----------------------------------------------------------

  Status Handle(uint16_t opcode, const std::string& payload,
                const Deadline& deadline, std::string* body) {
    WireReader reader(payload);
    switch (static_cast<Opcode>(opcode)) {
      case Opcode::kPing: {
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        PingBody ping;
        ping.state =
            draining.load() ? kPingStateDraining : kPingStateServing;
        AppendPingBody(body, ping);
        return Status::OK();
      }

      case Opcode::kMetrics: {
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        return HandleMetrics(deadline, body);
      }

      case Opcode::kList: {
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        return HandleList(deadline, body);
      }

      case Opcode::kBatchInvariants:
        return HandleBatch(payload, deadline, body);

      case Opcode::kComputeInvariant:
      case Opcode::kEvalQuery: {
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref, reader.ReadInstanceRef());
        // EVAL_QUERY carries the query after the ref; the ref alone is
        // the routing key and the payload forwards verbatim either way.
        return RouteSingle(opcode, payload, RefKey(ref), Relocatable(ref),
                           deadline, body);
      }

      case Opcode::kIsoCheck: {
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref_a, reader.ReadInstanceRef());
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref_b, reader.ReadInstanceRef());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        // Same target shard: forward the pair verbatim. Different
        // shards: decompose into two invariant computations and compare
        // canonicals — exactly the server's own ISO_CHECK semantics.
        const size_t target_a = topo->Owner(RefKey(ref_a));
        const size_t target_b = topo->Owner(RefKey(ref_b));
        if (target_a == target_b) {
          const bool relocatable =
              Relocatable(ref_a) && Relocatable(ref_b);
          return RouteSingle(opcode, payload, RefKey(ref_a), relocatable,
                             deadline, body);
        }
        TOPODB_ASSIGN_OR_RETURN(std::string canonical_a,
                                CanonicalForRef(ref_a, deadline));
        TOPODB_ASSIGN_OR_RETURN(std::string canonical_b,
                                CanonicalForRef(ref_b, deadline));
        AppendU8(body, canonical_a == canonical_b ? 1 : 0);
        return Status::OK();
      }

      case Opcode::kLoad: {
        TOPODB_ASSIGN_OR_RETURN(std::string name, reader.ReadWireString());
        // LOAD routes by name so ingest placement matches every later
        // name lookup; never relocatable — loading into a fallback shard
        // would strand the entry where no lookup will ever go.
        return RouteSingle(opcode, payload, name, /*relocatable=*/false,
                           deadline, body);
      }

      case Opcode::kDescribe: {
        TOPODB_ASSIGN_OR_RETURN(std::string name, reader.ReadWireString());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        return RouteSingle(opcode, payload, name, /*relocatable=*/false,
                           deadline, body);
      }
    }
    return Status::Unsupported("unknown opcode " + std::to_string(opcode));
  }
};

TopoDbRouter::TopoDbRouter(RouterOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

TopoDbRouter::~TopoDbRouter() = default;

Status TopoDbRouter::Start() { return impl_->StartImpl(); }

uint16_t TopoDbRouter::port() const { return impl_->front.port(); }

Status TopoDbRouter::Shutdown() { return impl_->ShutdownImpl(); }

MetricsRegistry& TopoDbRouter::metrics() { return *impl_->registry; }

ShardTopology& TopoDbRouter::topology() { return *impl_->topo; }

void TopoDbRouter::ProbeNow() { impl_->checker->ProbeOnce(); }

}  // namespace topodb
