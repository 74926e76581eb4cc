#include "src/pipeline/engine_cache.h"

#include <limits>
#include <string>

#include "src/region/io.h"

namespace topodb {

EngineCache::EngineCache(MetricsRegistry* metrics)
    : engines_(CachePolicy::kLru, kMaxEngines,
               std::numeric_limits<size_t>::max(), nullptr, metrics,
               "enginecache") {}

Result<std::shared_ptr<const QueryEngine>> EngineCache::GetOrBuild(
    uint64_t entry_id, uint32_t format_version,
    std::string_view instance_text) {
  return engines_.GetOrCompute(
      {entry_id, format_version},
      [&]() -> Result<std::shared_ptr<const QueryEngine>> {
        TOPODB_ASSIGN_OR_RETURN(SpatialInstance instance,
                                ParseInstanceText(std::string(instance_text)));
        TOPODB_ASSIGN_OR_RETURN(QueryEngine engine,
                                QueryEngine::Build(instance));
        return std::make_shared<const QueryEngine>(std::move(engine));
      });
}

}  // namespace topodb
