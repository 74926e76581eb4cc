#include "src/server/server.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/threading.h"
#include "src/invariant/canonical.h"
#include "src/obs/deadline.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/engine_cache.h"
#include "src/pipeline/semantic_cache.h"
#include "src/pipeline/text_cache.h"
#include "src/region/io.h"
#include "src/server/frame_server.h"
#include "src/server/wire.h"
#include "src/store/catalog.h"

namespace topodb {

struct TopoDbServer::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        registry(options.metrics != nullptr ? options.metrics
                                            : &owned_metrics),
        cache(registry),
        engine_cache(registry),
        sem_cache(SemanticCacheOptions{options.semantic_cache_entries,
                                       options.semantic_cache_bytes,
                                       registry}),
        text_cache(TextCacheOptions{options.text_cache_entries,
                                    options.text_cache_bytes, registry}),
        front("server", registry,
              [this](const std::shared_ptr<FrameSession>& session,
                     FrameRequest request) {
                Admit(session, std::move(request));
              }) {}

  // An admitted request. The deadline was materialized when its frame was
  // read, so time spent queued counts against it.
  struct WorkItem {
    std::shared_ptr<FrameSession> session;
    uint16_t opcode = 0;
    uint64_t request_id = 0;
    Deadline deadline;
    std::string payload;
    std::chrono::steady_clock::time_point admitted_at;
  };

  ServerOptions options;
  MetricsRegistry owned_metrics;
  MetricsRegistry* registry;
  // Canonical strings repeat across requests exactly as they do across
  // batch items; one shared cache serves the whole process lifetime.
  InvariantCache cache;
  // Built QueryEngines for catalog-backed EVAL_QUERY requests, keyed by
  // (entry id, store format version): the arrangement is built once per
  // catalog entry, not once per request.
  EngineCache engine_cache;
  // Verdicts for catalog-backed EVAL_QUERY requests, keyed by (entry id,
  // format version, options fingerprint, canonical query): an equivalent
  // query against unchanged bytes is answered without evaluating. Shares
  // the EngineCache identity scheme, so re-ingest invalidates both.
  SemanticCache sem_cache;
  // Canonical invariant responses keyed by raw instance text: a text hit
  // skips parse + build entirely (the InvariantCache above only dedupes
  // *after* the arrangement is built). Admission-capped; see
  // src/pipeline/text_cache.h for why that beats LRU here.
  TextInvariantCache text_cache;

  // Sockets, sessions, framing and the byte/protocol counters; readers
  // hand each request frame to Admit().
  FrameServer front;
  std::vector<std::thread> workers;

  std::mutex queue_mu;
  std::condition_variable queue_cv;  // Workers: work available / stopping.
  std::condition_variable drain_cv;  // Shutdown: queue empty + idle.
  std::deque<WorkItem> queue;
  size_t in_flight = 0;

  std::atomic<bool> started{false};
  std::atomic<bool> running{false};
  std::atomic<bool> draining{false};
  std::atomic<bool> stopping{false};
  CancelToken drain_cancel;

  // Metric handles (the registry always exists, so these are never null).
  Counter* const c_requests = registry->counter("server.requests");
  Counter* const c_shed = registry->counter("server.shed");
  Counter* const c_rejected_draining =
      registry->counter("server.rejected_draining");
  Gauge* const g_queue_depth = registry->gauge("server.queue_depth");
  Gauge* const g_in_flight = registry->gauge("server.in_flight");
  Histogram* const h_queue_wait_us =
      registry->histogram("server.queue_wait_us");
  Histogram* const h_execute_us = registry->histogram("server.execute_us");
  Histogram* const h_request_us = registry->histogram("server.request_us");

  ~Impl() { (void)ShutdownImpl(); }

  Status StartImpl() {
    if (started.exchange(true)) {
      return Status::InvalidArgument("server already started");
    }
    if (options.max_queue_depth == 0) {
      return Status::InvalidArgument("max_queue_depth must be >= 1");
    }
    // The pool never exceeds the admission bound: a worker beyond it
    // could only ever idle.
    TOPODB_ASSIGN_OR_RETURN(
        size_t worker_count,
        ResolveWorkerCount(options.num_workers, options.max_queue_depth));
    // A frame admitted before the pool exists just waits in the queue.
    TOPODB_RETURN_NOT_OK(front.Start(options.port));
    running.store(true);
    workers.reserve(worker_count);
    for (size_t i = 0; i < worker_count; ++i) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
    return Status::OK();
  }

  Status ShutdownImpl() {
    if (!running.exchange(false)) return Status::OK();

    // 1. Stop accepting.
    draining.store(true);
    front.StopAccepting();

    // 2. Drain admitted work up to the drain deadline, then cancel
    // stragglers: every in-flight execution polls the shared token at its
    // next checkpoint and fails fast with DeadlineExceeded — but still
    // writes its response, so nothing admitted goes unanswered. Readers
    // stay live through this window: new requests are refused with
    // Unavailable, and PING is answered inline with the draining state,
    // so a health checker sees "draining" for the whole drain rather than
    // a connection that just went dark.
    {
      std::unique_lock<std::mutex> lock(queue_mu);
      const bool drained = drain_cv.wait_for(
          lock, options.drain_timeout,
          [this] { return queue.empty() && in_flight == 0; });
      if (!drained) {
        drain_cancel.Cancel();
        drain_cv.wait(lock,
                      [this] { return queue.empty() && in_flight == 0; });
      }
    }

    // 3. Stop the readers. Workers still owing responses keep their
    // sessions' write halves open until they are written.
    front.CloseSessions();

    // 4. Retire the worker pool.
    stopping.store(true);
    queue_cv.notify_all();
    for (auto& worker : workers) worker.join();
    workers.clear();
    return Status::OK();
  }

  // Runs on the session's reader thread for every request frame.
  void Admit(const std::shared_ptr<FrameSession>& session,
             FrameRequest request) {
    if (draining.load()) {
      // Health probes keep working during drain — that is exactly when
      // a router needs the answer. The reader responds inline (the
      // worker pool may already be retiring) with the draining state.
      if (static_cast<Opcode>(request.opcode) == Opcode::kPing) {
        std::string ping_body;
        AppendPingBody(&ping_body, SnapshotPingBody());
        front.Respond(*session, request.opcode, request.request_id,
                      Status::OK(), ping_body);
        return;
      }
      c_rejected_draining->Add();
      front.Respond(*session, request.opcode, request.request_id,
                    Status::Unavailable("server draining"), {});
      return;
    }
    WorkItem item{session, request.opcode, request.request_id,
                  request.deadline, std::move(request.payload),
                  std::chrono::steady_clock::now()};
    bool admitted = false;
    size_t depth_at_shed = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      if (queue.size() < options.max_queue_depth) {
        queue.push_back(std::move(item));
        g_queue_depth->Set(static_cast<int64_t>(queue.size()));
        admitted = true;
      } else {
        depth_at_shed = queue.size();
      }
    }
    if (admitted) {
      c_requests->Add();
      queue_cv.notify_one();
      return;
    }
    // Explicit backpressure: shed now with a retryable status instead of
    // queueing indefinitely. The depth/bound context lets a shard router
    // tell an overloaded-but-alive backend (do not reroute, propagate the
    // backpressure) from a dead one.
    c_shed->Add();
    front.Respond(*session, item.opcode, item.request_id,
                  Status::Unavailable(
                      "queue full (" + std::to_string(depth_at_shed) + "/" +
                      std::to_string(options.max_queue_depth) + ")"),
                  {});
  }

  void WorkerLoop() {
    for (;;) {
      WorkItem item;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock,
                      [this] { return stopping.load() || !queue.empty(); });
        if (queue.empty()) {
          if (stopping.load()) return;
          continue;
        }
        item = std::move(queue.front());
        queue.pop_front();
        g_queue_depth->Set(static_cast<int64_t>(queue.size()));
        ++in_flight;
        g_in_flight->Set(static_cast<int64_t>(in_flight));
      }
      h_queue_wait_us->Record(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - item.admitted_at)
              .count());
      std::string body;
      Status status;
      {
        ScopedTimer timer(h_execute_us);
        status = HandleRequest(item, &body);
      }
      front.Respond(*item.session, item.opcode, item.request_id, status,
                    body);
      h_request_us->Record(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - item.admitted_at)
              .count());
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        --in_flight;
        g_in_flight->Set(static_cast<int64_t>(in_flight));
        if (queue.empty() && in_flight == 0) drain_cv.notify_all();
      }
    }
  }

  // The PING response body: drain state plus a point-in-time admission
  // queue snapshot.
  PingBody SnapshotPingBody() {
    PingBody ping;
    ping.state = draining.load() ? kPingStateDraining : kPingStateServing;
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      ping.queue_depth = static_cast<uint32_t>(queue.size());
    }
    ping.queue_bound = static_cast<uint32_t>(options.max_queue_depth);
    return ping;
  }

  BatchOptions InvariantBatchOptions(const WorkItem& item) {
    BatchOptions batch;
    // Cross-request parallelism is the worker pool's job; keep each
    // request single-threaded inside the pipeline.
    batch.num_threads = 1;
    batch.cache = &cache;
    batch.deadline = item.deadline;
    batch.cancel = &drain_cancel;
    batch.metrics = registry;
    return batch;
  }

  Result<std::shared_ptr<const CatalogEntry>> FindCatalogEntry(
      const std::string& name) {
    // No catalog means no named instances: the same unified NotFound an
    // absent name gets on a configured catalog, so clients see one error
    // shape for "that name does not resolve" across every opcode.
    if (options.catalog == nullptr) return UnknownInstanceError(name);
    return options.catalog->Find(name);
  }

  // Resolves every ref to its canonical invariant string, positionally
  // aligned and never aborting (per-item failures stay per-item, the
  // batch contract). Catalog names are served from the precomputed
  // section of the mapped store file; text refs run through the shared
  // pipeline in one batch. Both paths produce the canonical form under
  // default options, so a catalog hit is byte-identical to what the text
  // path would have computed.
  std::vector<Result<std::string>> ResolveCanonicals(
      const std::vector<InstanceRef>& refs, const WorkItem& item) {
    std::vector<Result<std::string>> out(
        refs.size(), Result<std::string>(Status::Internal("unresolved")));
    std::vector<SpatialInstance> parsed;
    std::vector<size_t> parsed_index;
    for (size_t i = 0; i < refs.size(); ++i) {
      if (refs[i].kind == InstanceRef::Kind::kCatalogName) {
        Result<std::shared_ptr<const CatalogEntry>> entry =
            FindCatalogEntry(refs[i].value);
        if (entry.ok()) {
          out[i] = std::string((*entry)->view().canonical());
        } else {
          out[i] = entry.status();
        }
      } else {
        // Text fast path: a repeated text serves its canonical straight
        // from the text cache, skipping parse + build (and charging
        // nothing against the item's budget).
        if (std::optional<std::string> cached =
                text_cache.Lookup(refs[i].value)) {
          out[i] = *std::move(cached);
          continue;
        }
        Result<SpatialInstance> instance = ParseInstanceText(refs[i].value);
        if (instance.ok()) {
          parsed.push_back(std::move(instance).value());
          parsed_index.push_back(i);
        } else {
          out[i] = instance.status();
        }
      }
    }
    auto results = BatchComputeInvariants(parsed, InvariantBatchOptions(item));
    for (size_t j = 0; j < results.size(); ++j) {
      if (results[j].ok()) {
        out[parsed_index[j]] = results[j]->canonical();
        // Only successes are cached: a deadline-exceeded or otherwise
        // failed item must be retryable, never pinned as an error.
        text_cache.Insert(refs[parsed_index[j]].value,
                          results[j]->canonical());
      } else {
        out[parsed_index[j]] = results[j].status();
      }
    }
    return out;
  }

  Status HandleRequest(const WorkItem& item, std::string* body) {
    // A budget spent in the queue (or a drain cancellation) fails here,
    // before any parsing or geometry work starts.
    const StopSignal stop(item.deadline, &drain_cancel);
    TOPODB_RETURN_NOT_OK(stop.Check());
    WireReader reader(item.payload);
    switch (static_cast<Opcode>(item.opcode)) {
      case Opcode::kPing: {
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        AppendPingBody(body, SnapshotPingBody());
        return Status::OK();
      }

      case Opcode::kMetrics: {
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        AppendWireString(body, registry->ExportJson());
        return Status::OK();
      }

      case Opcode::kComputeInvariant: {
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref, reader.ReadInstanceRef());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        auto results = ResolveCanonicals({std::move(ref)}, item);
        TOPODB_RETURN_NOT_OK(results[0].status());
        AppendWireString(body, *results[0]);
        return Status::OK();
      }

      case Opcode::kBatchInvariants: {
        TOPODB_ASSIGN_OR_RETURN(std::vector<InstanceRef> refs,
                                DecodeBatchRequest(item.payload));
        // Parse failures and unknown names are per-item results, not
        // request failures — mirroring the batch pipeline's "never abort
        // the batch" contract.
        auto results = ResolveCanonicals(refs, item);
        const uint32_t n = static_cast<uint32_t>(refs.size());
        AppendU32(body, n);
        for (uint32_t i = 0; i < n; ++i) {
          const Status item_status = results[i].status();
          AppendU32(body, WireStatusFromCode(item_status.code()));
          AppendWireString(body, item_status.ok() ? *results[i]
                                                  : item_status.message());
        }
        return Status::OK();
      }

      case Opcode::kEvalQuery: {
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref, reader.ReadInstanceRef());
        TOPODB_ASSIGN_OR_RETURN(std::string query, reader.ReadWireString());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        EvalOptions eval = options.eval;
        eval.deadline = item.deadline;
        eval.cancel = &drain_cancel;
        eval.metrics = registry;
        eval.plan = true;  // Every path evaluates the canonical form.
        if (ref.kind == InstanceRef::Kind::kCatalogName) {
          TOPODB_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogEntry> entry,
                                  FindCatalogEntry(ref.value));
          TOPODB_RETURN_NOT_OK(stop.Check());
          TOPODB_ASSIGN_OR_RETURN(
              std::shared_ptr<const QueryEngine> engine,
              engine_cache.GetOrBuild(entry->entry_id(),
                                      entry->view().format_version(),
                                      entry->view().instance_text()));
          // Catalog refs have a durable identity (the entry id is the
          // payload checksum), so their verdicts are cacheable; a
          // re-ingest changes the id and routes around stale entries.
          if (options.semantic_cache_entries > 0) {
            eval.semantic_cache = &sem_cache;
            eval.cache_entry_id = entry->entry_id();
            eval.cache_format_version = entry->view().format_version();
          }
          TOPODB_ASSIGN_OR_RETURN(bool verdict,
                                  EvaluateQueryCached(*engine, query, eval));
          AppendU8(body, verdict ? 1 : 0);
          return Status::OK();
        }
        TOPODB_ASSIGN_OR_RETURN(SpatialInstance instance,
                                ParseInstanceText(ref.value));
        TOPODB_RETURN_NOT_OK(stop.Check());
        TOPODB_ASSIGN_OR_RETURN(QueryEngine engine,
                                QueryEngine::Build(instance));
        TOPODB_ASSIGN_OR_RETURN(bool verdict, engine.Evaluate(query, eval));
        AppendU8(body, verdict ? 1 : 0);
        return Status::OK();
      }

      case Opcode::kIsoCheck: {
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref_a, reader.ReadInstanceRef());
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref_b, reader.ReadInstanceRef());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        // Theorem 3.4 equivalence is canonical-string equality, so a
        // catalog ref's precomputed canonical and a text ref's freshly
        // computed one compare on equal footing.
        auto results =
            ResolveCanonicals({std::move(ref_a), std::move(ref_b)}, item);
        TOPODB_RETURN_NOT_OK(results[0].status());
        TOPODB_RETURN_NOT_OK(results[1].status());
        AppendU8(body, *results[0] == *results[1] ? 1 : 0);
        return Status::OK();
      }

      case Opcode::kLoad: {
        TOPODB_ASSIGN_OR_RETURN(std::string name, reader.ReadWireString());
        TOPODB_ASSIGN_OR_RETURN(std::string text, reader.ReadWireString());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        if (options.catalog == nullptr) {
          return Status::Unsupported(
              "no catalog configured (start the server with --catalog)");
        }
        TOPODB_ASSIGN_OR_RETURN(
            std::shared_ptr<const CatalogEntry> entry,
            options.catalog->Ingest(name, text, stop));
        AppendU64(body, entry->entry_id());
        AppendU64(body, entry->file_bytes());
        return Status::OK();
      }

      case Opcode::kList: {
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        std::vector<CatalogListing> listings;
        if (options.catalog != nullptr) listings = options.catalog->List();
        AppendU32(body, static_cast<uint32_t>(listings.size()));
        for (const CatalogListing& listing : listings) {
          AppendWireString(body, listing.name);
          AppendU64(body, listing.entry_id);
          AppendU64(body, listing.file_bytes);
        }
        return Status::OK();
      }

      case Opcode::kDescribe: {
        TOPODB_ASSIGN_OR_RETURN(std::string name, reader.ReadWireString());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        TOPODB_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogEntry> entry,
                                FindCatalogEntry(name));
        const StoreFileView& view = entry->view();
        const StoreStats stats = view.stats();
        AppendWireString(body, std::string(view.name()));
        AppendU64(body, entry->entry_id());
        AppendU64(body, entry->file_bytes());
        AppendU64(body, stats.num_regions);
        AppendU64(body, stats.num_vertices);
        AppendU64(body, stats.num_edges);
        AppendU64(body, stats.num_faces);
        AppendU8(body, view.has_s_invariant() ? 1 : 0);
        AppendU64(body, view.canonical().size());
        return Status::OK();
      }
    }
    return Status::Unsupported("unknown opcode " +
                               std::to_string(item.opcode));
  }
};

TopoDbServer::TopoDbServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

TopoDbServer::~TopoDbServer() = default;

Status TopoDbServer::Start() { return impl_->StartImpl(); }

uint16_t TopoDbServer::port() const { return impl_->front.port(); }

Status TopoDbServer::Shutdown() { return impl_->ShutdownImpl(); }

MetricsRegistry& TopoDbServer::metrics() { return *impl_->registry; }

}  // namespace topodb
