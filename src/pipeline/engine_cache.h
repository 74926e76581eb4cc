#ifndef TOPODB_PIPELINE_ENGINE_CACHE_H_
#define TOPODB_PIPELINE_ENGINE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>

#include "src/base/status.h"
#include "src/obs/metrics.h"
#include "src/pipeline/bounded_cache.h"
#include "src/query/eval.h"

namespace topodb {

// Caches built QueryEngines for catalog-backed instances, keyed by
// (entry_id, store format_version). The entry id is the store file's
// payload checksum, so any change to the persisted instance — a re-ingest
// under the same name included — changes the key and the stale engine is
// simply never hit again (it ages out of the LRU); the format version
// rides along so bytes decoded under a different layout can never alias.
// Inline-text requests are *not* cached here: their text has no durable
// identity, and hashing it per request would just duplicate the parse
// cost the cache exists to avoid.
//
// Engines are handed out as shared_ptr<const QueryEngine>; Evaluate is
// const and internally synchronized, so one cached engine serves many
// concurrent requests, and neither eviction nor Clear() can free an engine
// still in use.
class EngineCache {
 public:
  // LRU entry cap. The ledger's catalog_query builds 256 engines and
  // catalog_rw 111; engine size is not measured, so there is no byte cap.
  static constexpr size_t kMaxEngines = 1024;

  // `metrics` (optional, must outlive the cache) receives the
  // enginecache.* series (see bounded_cache.h).
  explicit EngineCache(MetricsRegistry* metrics = nullptr);

  // Returns the engine for the key, building it from `instance_text` on a
  // miss. The build runs outside the cache lock (two concurrent misses on
  // the same key may both build; the first insert wins and both callers
  // get it — a duplicate build is cheaper than serializing every build
  // behind one mutex). A failed build is not cached.
  Result<std::shared_ptr<const QueryEngine>> GetOrBuild(
      uint64_t entry_id, uint32_t format_version,
      std::string_view instance_text);

  CacheStats stats() const { return engines_.stats(); }
  size_t size() const { return engines_.size(); }
  void Clear() { engines_.Clear(); }

 private:
  BoundedCache<std::pair<uint64_t, uint32_t>,
               std::shared_ptr<const QueryEngine>, PairHash>
      engines_;
};

}  // namespace topodb

#endif  // TOPODB_PIPELINE_ENGINE_CACHE_H_
