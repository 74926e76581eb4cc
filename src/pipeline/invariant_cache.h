#ifndef TOPODB_PIPELINE_INVARIANT_CACHE_H_
#define TOPODB_PIPELINE_INVARIANT_CACHE_H_

#include <cstddef>
#include <string>
#include <utility>

#include "src/base/status.h"
#include "src/invariant/canonical.h"
#include "src/invariant/data.h"
#include "src/obs/metrics.h"
#include "src/pipeline/bounded_cache.h"

namespace topodb {

// A linear-time serialization of everything CanonicalInvariantString reads
// from an InvariantData (region names, labels, incidences, rotation, face
// assignment, exterior face). Two InvariantData have equal structural keys
// iff they are identical structures, so a cache keyed by it can never
// conflate distinct inputs; computing it is far cheaper than the
// canonical form, which retries the flag traversal from every dart.
std::string StructuralKey(const InvariantData& data);

// Memoizes CanonicalInvariantString results, keyed by the full structural
// key plus the option bits, so a cached answer is always exactly what the
// uncached computation would return. LRU within kMaxEntries and kMaxBytes;
// an entry charges its key and canonical sizes. Thread-safe; one instance
// can be shared by all workers of a batch (see batch.h).
class InvariantCache {
 public:
  // About 4x what a 12-s invariant_stream ledger run leaves resident (1490
  // entries, 15.2 MB), so that workload never evicts.
  static constexpr size_t kMaxEntries = 16384;
  static constexpr size_t kMaxBytes = size_t{64} << 20;
  using Stats = CacheStats;

  // `metrics` (optional, must outlive the cache) receives the
  // invariant_cache.* series (see bounded_cache.h).
  explicit InvariantCache(MetricsRegistry* metrics = nullptr);

  // Cache-through equivalent of CanonicalInvariantString(data, options).
  Result<std::string> Canonical(const InvariantData& data,
                                const CanonicalOptions& options);
  Result<std::string> Canonical(const InvariantData& data) {
    return Canonical(data, CanonicalOptions{});
  }

  // Cache-through equivalents of the equivalence predicates.
  Result<bool> Isomorphic(const InvariantData& a, const InvariantData& b);
  Result<bool> IsotopyEquivalent(const InvariantData& a,
                                 const InvariantData& b);

  Stats stats() const { return canonicals_.stats(); }
  size_t size() const { return canonicals_.size(); }

 private:
  // (structural key, option bits): the bits tell the four CanonicalOptions
  // variants of one structure apart.
  using Key = std::pair<std::string, int>;
  BoundedCache<Key, std::string, PairHash> canonicals_;
};

}  // namespace topodb

#endif  // TOPODB_PIPELINE_INVARIANT_CACHE_H_
