#ifndef TOPODB_CLIENT_CLIENT_H_
#define TOPODB_CLIENT_CLIENT_H_

// Blocking TCP client for the TopoDB server (src/server/server.h). One
// request is outstanding per connection at a time; every call sends a
// frame with a fresh request id and waits for the matching response,
// failing with Internal on a misrouted (id- or opcode-mismatched) reply.
//
// Wire error statuses are re-hydrated into their library Status codes, so
// a server-side shed arrives as StatusCode::kUnavailable and a spent
// budget as kDeadlineExceeded — callers branch on the same codes they
// would see calling the library in-process.
//
// `budget_ms` arguments fill the frame header's deadline-budget field;
// 0 (the default) means no deadline. The server starts the clock at
// admission, so the budget covers queue wait + execution.
//
// Transport-level failures (connect/send/recv, mid-frame EOF) surface as
// Unavailable with a "transport: " message prefix, distinguishing them
// from *server-sent* Unavailable (admission-queue shed, drain rejection):
// a transport failure means the reply was never produced and the call is
// safely retryable against a fresh connection, while a server-sent one is
// an authoritative answer. IsTransportError() tests the distinction; the
// optional RetryPolicy below retries only transport failures.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/server/wire.h"

namespace topodb {

// One LIST row: a catalog entry's name, stable content id, and on-disk
// size.
struct CatalogEntryInfo {
  std::string name;
  uint64_t entry_id = 0;
  uint64_t file_bytes = 0;
};

// The DESCRIBE body: everything the server knows about a catalog entry
// from its store file's stats and canonical sections, without parsing
// the instance. has_s_invariant is the stats flag "every region is
// rectilinear".
struct InstanceDescription {
  std::string name;
  uint64_t entry_id = 0;
  uint64_t file_bytes = 0;
  uint64_t num_regions = 0;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t num_faces = 0;
  bool has_s_invariant = false;
  uint64_t canonical_bytes = 0;
};

// Bounded retry with exponential backoff + jitter, applied only to
// transport-level Unavailable failures (see above). Off by default — a
// plain client reports the failure and lets the caller decide; the shard
// router turns it on for its backend pools, where a dropped connection is
// routine during shard restarts. Each re-attempt reconnects from scratch
// (the dead socket can never be resynced) and increments the
// `client.retries` counter when a registry is configured.
struct RetryPolicy {
  // Number of re-attempts after the initial try; 0 disables retry.
  int max_retries = 0;
  // Attempt n (1-based) sleeps jitter * initial_backoff * multiplier^(n-1),
  // capped at max_backoff, with jitter drawn uniformly from [0.5, 1.0) —
  // deterministic per client from jitter_seed, so tests can pin timing
  // bounds without racing a real RNG.
  std::chrono::milliseconds initial_backoff{5};
  double multiplier = 2.0;
  std::chrono::milliseconds max_backoff{200};
  uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

struct ClientOptions {
  RetryPolicy retry;
  // Optional sink for the client.retries counter.
  MetricsRegistry* metrics = nullptr;
};

class TopoDbClient {
 public:
  // Connects to a TopoDB server on the loopback interface.
  static Result<TopoDbClient> Connect(uint16_t port) {
    return Connect(port, ClientOptions{});
  }
  static Result<TopoDbClient> Connect(uint16_t port,
                                      const ClientOptions& options);

  // True for transport-level failures (the "transport: " Unavailable
  // convention above): the server never produced the reply, so the call
  // is retryable elsewhere. False for server-sent statuses — including
  // server-sent Unavailable like "queue full (N/N)" sheds, which are
  // backpressure from a live backend, not a dead one.
  static bool IsTransportError(const Status& status);

  // Test-only: adopts an already-connected socket (e.g. one end of a
  // socketpair) so transport-level failure paths — short reads, mid-frame
  // EOF — can be driven deterministically without a real server. The
  // client owns and closes the fd.
  static TopoDbClient WrapFdForTest(int fd) { return TopoDbClient(fd); }

  TopoDbClient(TopoDbClient&& other) noexcept;
  TopoDbClient& operator=(TopoDbClient&& other) noexcept;
  TopoDbClient(const TopoDbClient&) = delete;
  TopoDbClient& operator=(const TopoDbClient&) = delete;
  ~TopoDbClient();

  // PING: liveness round trip.
  Status Ping(uint32_t budget_ms = 0);

  // PING with the decoded state body: serving vs draining plus the
  // admission-queue snapshot. Servers predating the body read as serving
  // with an unknown (zero) queue.
  Result<PingBody> HealthPing(uint32_t budget_ms = 0);

  // The HealthChecker's probe: a HealthPing on a fresh connection whose
  // whole exchange — dial, PING, reply — is bounded by `budget_ms`
  // (0 = unbounded). Past the budget it fails as a transport error, so a
  // backend that accepts but never answers reads as down instead of
  // wedging the caller.
  static Result<PingBody> ProbeHealth(uint16_t port, uint32_t budget_ms);

  // Raw escape hatch: sends `payload` verbatim under `opcode` and returns
  // the response body (wire status already checked, like every typed
  // call). The shard router forwards request payloads through this so
  // routed responses are byte-identical to a direct server exchange.
  Result<std::string> Call(uint16_t opcode, const std::string& payload,
                           uint32_t budget_ms = 0) {
    return RoundTrip(opcode, payload, budget_ms);
  }

  // COMPUTE_INVARIANT: the canonical invariant string of the referenced
  // instance — inline text (format of src/region/io.h) or a catalog name
  // served from the server's precomputed store. The string overloads keep
  // the pre-catalog call sites working unchanged.
  Result<std::string> ComputeInvariant(const InstanceRef& ref,
                                       uint32_t budget_ms = 0);
  Result<std::string> ComputeInvariant(const std::string& instance_text,
                                       uint32_t budget_ms = 0) {
    return ComputeInvariant(InstanceRef::Text(instance_text), budget_ms);
  }

  // BATCH_INVARIANTS: positionally aligned per-item results; a per-item
  // failure (parse error, unknown name, deadline) never fails the request.
  Result<std::vector<Result<std::string>>> BatchInvariants(
      const std::vector<InstanceRef>& refs, uint32_t budget_ms = 0);
  Result<std::vector<Result<std::string>>> BatchInvariants(
      const std::vector<std::string>& instance_texts, uint32_t budget_ms = 0);

  // EVAL_QUERY: evaluates a query-language sentence against an instance.
  Result<bool> EvalQuery(const InstanceRef& ref, const std::string& query,
                         uint32_t budget_ms = 0);
  Result<bool> EvalQuery(const std::string& instance_text,
                         const std::string& query, uint32_t budget_ms = 0) {
    return EvalQuery(InstanceRef::Text(instance_text), query, budget_ms);
  }

  // ISO_CHECK: Theorem 3.4 equivalence of two instances.
  Result<bool> IsoCheck(const InstanceRef& ref_a, const InstanceRef& ref_b,
                        uint32_t budget_ms = 0);
  Result<bool> IsoCheck(const std::string& instance_a,
                        const std::string& instance_b,
                        uint32_t budget_ms = 0) {
    return IsoCheck(InstanceRef::Text(instance_a),
                    InstanceRef::Text(instance_b), budget_ms);
  }

  // LOAD: ingests instance text into the server's catalog under `name`
  // (parse + build + canonicalize + persist server-side), returning the
  // durable entry id and store-file size.
  struct LoadResult {
    uint64_t entry_id = 0;
    uint64_t file_bytes = 0;
  };
  Result<LoadResult> Load(const std::string& name,
                          const std::string& instance_text,
                          uint32_t budget_ms = 0);

  // LIST: every catalog entry, sorted by name.
  Result<std::vector<CatalogEntryInfo>> List(uint32_t budget_ms = 0);

  // DESCRIBE: stats for one catalog entry; NotFound for unknown names.
  Result<InstanceDescription> Describe(const std::string& name,
                                       uint32_t budget_ms = 0);

  // METRICS: the server registry's JSON export (topodb.metrics.v2).
  Result<std::string> Metrics(uint32_t budget_ms = 0);

 private:
  explicit TopoDbClient(int fd) : fd_(fd) {}

  // Sends one frame and reads the matching response, returning the
  // opcode-specific body bytes (the wire status has already been checked).
  // Applies the retry policy: a transport-level failure reconnects (when
  // the port is known — wrapped test fds cannot) and re-sends, up to
  // retry.max_retries times with jittered exponential backoff.
  Result<std::string> RoundTrip(uint16_t opcode, const std::string& payload,
                                uint32_t budget_ms);
  Result<std::string> RoundTripOnce(uint16_t opcode,
                                    const std::string& payload,
                                    uint32_t budget_ms);
  // Closes the current socket and dials port_ again.
  Status Reconnect();

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  // The dialed port (0 for wrapped fds, which have nothing to redial).
  uint16_t port_ = 0;
  ClientOptions options_;
  // Jitter PRNG state, advanced per retry sleep.
  uint64_t jitter_state_ = 0;
  Counter* c_retries_ = nullptr;
};

}  // namespace topodb

#endif  // TOPODB_CLIENT_CLIENT_H_
