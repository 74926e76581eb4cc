#include "src/pipeline/semantic_cache.h"

#include <sstream>
#include <utility>

#include "src/query/plan.h"

namespace topodb {

SemanticCache::SemanticCache(SemanticCacheOptions options)
    : BoundedCache(
          CachePolicy::kLru, options.max_entries, options.max_bytes,
          // Key bytes plus a flat estimate of node overhead; exactness does
          // not matter, only that the bound scales with what is stored.
          [](const std::string& key, const bool&) { return key.size() + 96; },
          options.metrics, "semcache") {}

std::string EvalOptionsFingerprint(const EvalOptions& options) {
  std::ostringstream os;
  os << "rc=" << options.max_region_candidates
     << ";es=" << options.max_enumeration_steps;
  return os.str();
}

std::string SemanticCacheKey(uint64_t entry_id, uint32_t format_version,
                             const std::string& canonical_query,
                             const EvalOptions& options) {
  std::ostringstream os;
  // entry_id first: after a re-ingest every component but it is
  // unchanged, and a differing prefix fails the key comparison earliest.
  os << entry_id << "/" << format_version << "/"
     << EvalOptionsFingerprint(options) << "/" << canonical_query;
  return os.str();
}

Result<bool> EvaluateQueryCached(const QueryEngine& engine,
                                 const FormulaPtr& query,
                                 const EvalOptions& options) {
  // Admission checkpoint: a warm verdict must not let an expired or
  // cancelled request through — the deadline bounds the request, not the
  // computation that once produced the answer.
  TOPODB_RETURN_NOT_OK(StopSignal(options.deadline, options.cancel).Check());
  if (options.semantic_cache == nullptr || options.cache_entry_id == 0) {
    return engine.Evaluate(query, options);
  }
  // Name check on the input: the key is canonical, and canonicalization
  // folds `connect(Z, Z) and false` to `false`, so a warm `false` would
  // otherwise answer a query the engine rejects with NotFound.
  TOPODB_RETURN_NOT_OK(engine.ValidateAtomNames(*query));
  // One canonicalization per request: its rendering is the key's query
  // component, and a miss evaluates its AST.
  FormulaPtr canonical;
  std::string key;
  {
    ScopedTimer timer(RegistryHistogram(options.metrics, "semcache.key_us"));
    std::string rendering;
    {
      ScopedTimer plan_timer(
          RegistryHistogram(options.metrics, "planner.plan_us"));
      canonical = CanonicalizeQuery(query, &rendering);
    }
    CounterAdd(RegistryCounter(options.metrics, "planner.plans"));
    key = SemanticCacheKey(options.cache_entry_id,
                           options.cache_format_version, rendering, options);
  }
  if (std::optional<bool> verdict = options.semantic_cache->Lookup(key)) {
    return *verdict;
  }
  // Already canonical and name-checked: evaluate it as written.
  EvalOptions written = options;
  written.plan = false;
  Result<bool> result = engine.Evaluate(canonical, written);
  // Errors are never cached: budget and deadline failures are properties
  // of this request's limits, not of the query.
  if (result.ok()) options.semantic_cache->Insert(std::move(key), *result);
  return result;
}

Result<bool> EvaluateQueryCached(const QueryEngine& engine,
                                 const std::string& query,
                                 const EvalOptions& options) {
  TOPODB_ASSIGN_OR_RETURN(FormulaPtr formula, ParseQuery(query));
  return EvaluateQueryCached(engine, formula, options);
}

}  // namespace topodb
