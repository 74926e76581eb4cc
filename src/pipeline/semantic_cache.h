#ifndef TOPODB_PIPELINE_SEMANTIC_CACHE_H_
#define TOPODB_PIPELINE_SEMANTIC_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/pipeline/bounded_cache.h"
#include "src/query/eval.h"

namespace topodb {

// Bounded LRU cache of query *verdicts*, the layer above EngineCache:
// where EngineCache avoids re-building an engine, this avoids re-running
// an evaluation whose answer is already known. Keys are semantic, not
// syntactic — the query component is CanonicalQueryKey (plan.h), so every
// query in a canonicalization equivalence class (operand order, double
// negation, implies-vs-or spelling, binder names, ...) shares one entry.
//
// Staleness is handled the same way EngineCache handles it: the key
// embeds (entry_id, format_version), and the entry id is the store
// file's payload checksum. A re-ingest — same catalog name, new bytes —
// produces a new entry id, so stale verdicts are never hit again; they
// age out of the LRU. Names are deliberately *not* part of the key.
//
// Verdicts also depend on evaluation limits (budget exhaustion points
// differ across budgets), so the key embeds a fingerprint of the
// verdict-relevant EvalOptions. Deadlines are
// excluded: they bound wall-clock, not the answer, and a cache hit under
// an expired deadline must still fail — EvaluateQueryCached checks the
// stop signal *before* the lookup. Errors are never cached: a budget or
// deadline failure says nothing about the query on a later, bigger
// budget.
struct SemanticCacheOptions {
  // Entry-count and byte ceilings; least-recently-used entries are
  // evicted when either would be exceeded. Bytes are accounted as key
  // size plus a fixed per-entry overhead estimate. Zero entries disables
  // the cache.
  size_t max_entries = 4096;
  size_t max_bytes = size_t{4} << 20;
  // Optional sink for the semcache.* series (see bounded_cache.h). Must
  // outlive the cache.
  MetricsRegistry* metrics = nullptr;
};

// Lookup(key) returns the cached verdict; Insert(key, verdict). A key
// wider than max_bytes is rejected.
class SemanticCache : public BoundedCache<std::string, bool> {
 public:
  explicit SemanticCache(SemanticCacheOptions options = {});
};

// The verdict-relevant slice of EvalOptions, rendered deterministically:
// the two budgets and the plan flag — everything that can move a
// budget-exhaustion point. Deadline, cancel token and metrics sink are
// excluded (they never change a successful verdict, and errors are not
// cached).
std::string EvalOptionsFingerprint(const EvalOptions& options);

// Full cache key: (entry_id, format_version, options fingerprint,
// canonical query). `canonical_query` must be CanonicalQueryKey output —
// passing a raw query string would fracture equivalence classes.
std::string SemanticCacheKey(uint64_t entry_id, uint32_t format_version,
                             const std::string& canonical_query,
                             const EvalOptions& options);

// Cache-aware evaluation entry point for the serving path. Behavior:
//   1. Checks the (deadline, cancel) stop signal first, so an expired
//      request fails with DeadlineExceeded even when the verdict is warm
//      — a cache hit must not bypass admission control.
//   2. Falls through to plain engine.Evaluate when options.semantic_cache
//      is null or options.cache_entry_id is 0 (no durable identity, e.g.
//      inline instance text).
//   3. Fails with NotFound when an atom names a region the instance does
//      not have (QueryEngine::ValidateAtomNames on the input query), warm
//      or cold: the canonical key may have folded that atom away.
//   4. On a hit, returns the cached verdict without evaluating: no
//      region-candidate or enumeration budget is consumed.
//   5. On a miss, evaluates and caches the verdict only on success.
Result<bool> EvaluateQueryCached(const QueryEngine& engine,
                                 const FormulaPtr& query,
                                 const EvalOptions& options);

// Parse + evaluate. Parse errors are returned directly (never cached).
Result<bool> EvaluateQueryCached(const QueryEngine& engine,
                                 const std::string& query,
                                 const EvalOptions& options);

}  // namespace topodb

#endif  // TOPODB_PIPELINE_SEMANTIC_CACHE_H_
