#ifndef TOPODB_PIPELINE_TEXT_CACHE_H_
#define TOPODB_PIPELINE_TEXT_CACHE_H_

// A bounded cache of canonical invariant strings keyed by the *raw
// instance text*, consulted before any parsing. It complements the
// structural InvariantCache (src/pipeline/invariant_cache.h), whose key
// is derived from the built arrangement: a structural hit still pays the
// full parse + arrangement build, while a text hit here skips everything.
// Two spellings of the same instance miss here and fall through to the
// structural cache — text identity is a fast path, not the identity
// scheme.
//
// Eviction policy: admission-capped (CachePolicy::kAdmit), not LRU. The
// serving workload this cache exists for is a round-robin sweep over a
// working set of distinct instances (closed-loop batch clients); when the
// working set exceeds the capacity, LRU evicts every entry just before its
// next use and the hit rate collapses to zero, while first-in-wins
// admission keeps a stable resident subset and degrades linearly (hits =
// capacity / working set). Since a miss costs a full parse + build, the
// stable subset wins. This is also what makes shard scaling effective:
// each shard pins the subset of keys the ring routes to it, so the
// aggregate resident set grows linearly with the number of shards (see
// DESIGN.md §5i).
//
// Errors are never inserted (the server only stores successful
// canonicals), and a hit does no pipeline work, so it charges nothing
// against a request's deadline budget.

#include <cstddef>
#include <string>

#include "src/obs/metrics.h"
#include "src/pipeline/bounded_cache.h"

namespace topodb {

struct TextCacheOptions {
  // Admission bounds; an insert that would exceed either is rejected
  // (counted in textcache.rejected). Bytes charge text + canonical sizes.
  // Zero entries disables the cache.
  size_t max_entries = 4096;
  size_t max_bytes = size_t{16} << 20;
  // Optional sink for the textcache.* series (see bounded_cache.h).
  MetricsRegistry* metrics = nullptr;
};

// Lookup(text) returns the cached canonical; Insert(text, canonical).
class TextInvariantCache : public BoundedCache<std::string, std::string> {
 public:
  explicit TextInvariantCache(const TextCacheOptions& options)
      : BoundedCache(
            CachePolicy::kAdmit, options.max_entries, options.max_bytes,
            [](const std::string& text, const std::string& canonical) {
              return text.size() + canonical.size();
            },
            options.metrics, "textcache") {}

  size_t entries() const { return size(); }
};

}  // namespace topodb

#endif  // TOPODB_PIPELINE_TEXT_CACHE_H_
