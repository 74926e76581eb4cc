#ifndef TOPODB_SERVER_SERVER_H_
#define TOPODB_SERVER_SERVER_H_

// The TopoDB serving layer: a loopback-testable TCP server speaking the
// length-prefixed wire protocol of src/server/wire.h.
//
// Threading model (see DESIGN.md §5d):
//   - the shared front door (src/server/frame_server.h) runs one acceptor
//     thread and one reader thread per session;
//   - readers parse frames and *admit* requests into a bounded queue;
//     when the queue is full the request is shed immediately with
//     Unavailable (explicit backpressure — nothing waits unboundedly);
//   - a fixed worker pool (src/base/threading conventions) pops admitted
//     requests, executes them against the library, and writes the
//     response under a per-session write lock (workers may interleave
//     with reader-written shed responses on the same socket).
//
// Deadline propagation: the frame header's deadline-budget field is
// converted to an obs::Deadline at admission, so queue wait spends the
// client's budget; the same Deadline (plus the server-wide drain
// CancelToken) is threaded into BatchOptions/EvalOptions, reaching the
// pipeline's stage boundaries and the evaluator's quantifier-binding
// checkpoints. A request whose budget dies in the queue still gets an
// individual DeadlineExceeded response.
//
// Shutdown is graceful: stop accepting, stop admitting (readers answer
// Unavailable while draining), let workers finish every admitted request
// up to `drain_timeout`, then cancel stragglers through the shared
// CancelToken — they fail fast with DeadlineExceeded but still get a
// response. No admitted request is ever dropped without a reply.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/pipeline/invariant_cache.h"
#include "src/query/eval.h"
#include "src/store/catalog.h"

namespace topodb {

struct ServerOptions {
  // Loopback TCP port; 0 binds an ephemeral port (read it back from
  // port() after Start()). The server only ever binds 127.0.0.1 — it is
  // a serving layer for local front ends and tests, not a hardened
  // internet listener.
  uint16_t port = 0;
  // Fixed worker pool size; 0 means hardware concurrency, negative is
  // InvalidArgument (the ResolveWorkerCount convention). Clamped to the
  // admission-queue bound — more workers than admissible requests can
  // never run.
  int num_workers = 2;
  // Admission-queue bound. A request arriving while `max_queue_depth`
  // admitted requests are waiting is shed immediately with Unavailable.
  size_t max_queue_depth = 64;
  // How long Shutdown() lets admitted work finish before cancelling
  // stragglers via the shared CancelToken.
  std::chrono::milliseconds drain_timeout{2000};
  // Per-evaluation knobs for EVAL_QUERY (the enumeration budgets).
  // Deadline/cancel/metrics fields are overwritten per request, as are
  // the plan flag and the semantic-cache plumbing (see below).
  EvalOptions eval;
  // Run the query-planning pass (src/query/plan.h) on every EVAL_QUERY:
  // canonicalize, then reorder commutative operands and quantifier runs
  // by selectivity. Planned evaluation is verdict-identical to unplanned
  // (the differential suite pins this); on by default for serving, and
  // deliberately defaulted *off* in EvalOptions itself so oracle and
  // differential paths see the written query order.
  bool plan_queries = true;
  // Serve repeated catalog-backed EVAL_QUERY requests from the semantic
  // verdict cache (src/pipeline/semantic_cache.h). Only catalog refs are
  // cached — inline text has no durable identity. Entry/byte bounds;
  // evictions are LRU, and 0 entries disables (no key is even built).
  size_t semantic_cache_entries = 4096;
  size_t semantic_cache_bytes = size_t{4} << 20;
  // Cache canonical invariant responses for inline-text refs keyed by the
  // raw instance text (src/pipeline/text_cache.h): a repeated
  // COMPUTE_INVARIANT / BATCH_INVARIANTS item skips parsing and
  // arrangement building entirely. Admission-capped (first-in wins) so
  // sweep workloads keep a stable resident subset — the property the
  // shard router's scaling rests on (DESIGN.md §5i). 0 entries disables.
  size_t text_cache_entries = 4096;
  size_t text_cache_bytes = size_t{16} << 20;
  // Metrics sink for every stage (accept, admission, queue wait, execute,
  // write) and the METRICS opcode. nullptr = the server owns a private
  // registry, reachable via metrics().
  MetricsRegistry* metrics = nullptr;
  // Optional instance catalog (src/store/catalog.h), non-owning; must
  // outlive the server. With a catalog, LOAD/LIST/DESCRIBE are live and
  // catalog-name InstanceRefs serve precomputed invariants straight from
  // the mapped store files. Without one, LOAD is Unsupported, LIST is
  // empty, and every name lookup is NotFound — the same unified error an
  // absent name gets on a configured catalog.
  Catalog* catalog = nullptr;
};

class TopoDbServer {
 public:
  explicit TopoDbServer(ServerOptions options);
  ~TopoDbServer();  // Shuts down gracefully if still running.

  TopoDbServer(const TopoDbServer&) = delete;
  TopoDbServer& operator=(const TopoDbServer&) = delete;

  // Binds, listens, and starts the acceptor and worker threads. Fails
  // with InvalidArgument on bad options and Internal on socket errors.
  Status Start();

  // The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const;

  // Graceful drain, idempotent: stop accepting, answer Unavailable to
  // new requests, complete admitted work up to drain_timeout, cancel
  // stragglers, join every thread. Every admitted request has been
  // answered when this returns.
  Status Shutdown();

  // The effective registry (options.metrics or the server-owned one).
  MetricsRegistry& metrics();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace topodb

#endif  // TOPODB_SERVER_SERVER_H_
