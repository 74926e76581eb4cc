#include "src/pipeline/batch.h"

#include <atomic>
#include <thread>
#include <utility>

#include "src/base/threading.h"
#include "src/invariant/data.h"

namespace topodb {

namespace {

// Metric handles resolved once per batch so workers record through plain
// pointers (all nullptr when no registry is attached).
struct BatchMetrics {
  Histogram* arrangement_us = nullptr;
  Histogram* extract_us = nullptr;
  Histogram* canonical_us = nullptr;
  Counter* items = nullptr;
  Counter* failures = nullptr;
  Counter* deadline_exceeded = nullptr;

  static BatchMetrics Resolve(MetricsRegistry* r) {
    BatchMetrics m;
    if (r == nullptr) return m;
    m.arrangement_us = r->histogram("pipeline.arrangement_us");
    m.extract_us = r->histogram("pipeline.extract_us");
    m.canonical_us = r->histogram("pipeline.canonical_us");
    m.items = r->counter("pipeline.items");
    m.failures = r->counter("pipeline.failures");
    m.deadline_exceeded = r->counter("pipeline.deadline_exceeded");
    return m;
  }
};

// One item through the three stages, with a cancellation checkpoint at
// every stage boundary: an expired deadline fails this item only.
Result<TopologicalInvariant> ComputeOne(const SpatialInstance& instance,
                                        const BatchOptions& options,
                                        const StopSignal& stop,
                                        const BatchMetrics& metrics) {
  TOPODB_RETURN_NOT_OK(stop.Check());
  CellComplex complex;
  {
    ScopedTimer timer(metrics.arrangement_us);
    TOPODB_ASSIGN_OR_RETURN(complex,
                            CellComplex::Build(instance, options.arrangement));
  }
  TOPODB_RETURN_NOT_OK(stop.Check());
  InvariantData data;
  {
    ScopedTimer timer(metrics.extract_us);
    data = InvariantData::FromComplex(complex);
  }
  TOPODB_RETURN_NOT_OK(stop.Check());
  ScopedTimer timer(metrics.canonical_us);
  if (options.cache == nullptr) {
    return TopologicalInvariant::FromData(std::move(data));
  }
  TOPODB_ASSIGN_OR_RETURN(std::string canonical,
                          options.cache->Canonical(data));
  return TopologicalInvariant::FromPrecomputed(std::move(data),
                                               std::move(canonical));
}

void RecordOutcome(const Result<TopologicalInvariant>& result,
                   const BatchMetrics& metrics) {
  CounterAdd(metrics.items);
  if (!result.ok()) {
    CounterAdd(metrics.failures);
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      CounterAdd(metrics.deadline_exceeded);
    }
  }
}

}  // namespace

std::vector<Result<TopologicalInvariant>> BatchComputeInvariants(
    std::span<const SpatialInstance> instances, const BatchOptions& options) {
  const size_t n = instances.size();
  std::vector<Result<TopologicalInvariant>> results(
      n, Result<TopologicalInvariant>(Status::Internal("not computed")));
  if (n == 0) return results;

  Result<size_t> workers_or = ResolveWorkerCount(options.num_threads, n);
  if (!workers_or.ok()) {
    // Malformed options fail every item uniformly: alignment is
    // preserved, nothing runs.
    for (size_t i = 0; i < n; ++i) results[i] = workers_or.status();
    return results;
  }
  const size_t workers = *workers_or;

  BatchOptions item_options = options;
  if (item_options.arrangement.metrics == nullptr) {
    item_options.arrangement.metrics = options.metrics;
  }
  const BatchMetrics metrics = BatchMetrics::Resolve(options.metrics);
  const StopSignal stop(options.deadline, options.cancel);
  ScopedTimer batch_timer(
      RegistryHistogram(options.metrics, "pipeline.batch_us"));
  const InvariantCache::Stats cache_before =
      options.cache != nullptr ? options.cache->stats()
                               : InvariantCache::Stats{};

  if (workers <= 1) {
    for (size_t i = 0; i < n; ++i) {
      results[i] = ComputeOne(instances[i], item_options, stop, metrics);
      RecordOutcome(results[i], metrics);
    }
  } else {
    std::atomic<size_t> next{0};
    auto worker = [&]() {
      while (true) {
        const size_t i = next.fetch_add(1);
        if (i >= n) return;
        results[i] = ComputeOne(instances[i], item_options, stop, metrics);
        RecordOutcome(results[i], metrics);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  if (options.metrics != nullptr && options.cache != nullptr) {
    const InvariantCache::Stats after = options.cache->stats();
    options.metrics->counter("pipeline.cache_hits")
        ->Add(after.hits - cache_before.hits);
    options.metrics->counter("pipeline.cache_misses")
        ->Add(after.misses - cache_before.misses);
    options.metrics->gauge("invariant_cache.entries")
        ->Set(static_cast<int64_t>(after.entries));
    options.metrics->gauge("invariant_cache.bytes")
        ->Set(static_cast<int64_t>(after.bytes));
  }
  return results;
}

}  // namespace topodb
