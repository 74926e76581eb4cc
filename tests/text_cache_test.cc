// TextInvariantCache: its key + value byte charge and its textcache.*
// series. The admission mechanism itself is tested in bounded_cache_test.cc.

#include "src/pipeline/text_cache.h"

#include <string>

#include "gtest/gtest.h"

namespace topodb {
namespace {

TEST(TextCacheTest, LookupAfterInsertHits) {
  TextInvariantCache cache(TextCacheOptions{});
  EXPECT_FALSE(cache.Lookup("poly A").has_value());
  cache.Insert("poly A", "canonical-A");
  ASSERT_TRUE(cache.Lookup("poly A").has_value());
  EXPECT_EQ(*cache.Lookup("poly A"), "canonical-A");
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), std::string("poly A").size() +
                               std::string("canonical-A").size());
}

TEST(TextCacheTest, MetricsCountHitsMissesAndRejections) {
  MetricsRegistry registry;
  TextCacheOptions options;
  options.max_entries = 1;
  options.metrics = &registry;
  TextInvariantCache cache(options);
  cache.Lookup("a");              // miss
  cache.Insert("a", "1");         // insertion
  cache.Lookup("a");              // hit
  cache.Insert("b", "2");         // rejected (cap)
  cache.Lookup("b");              // miss
  EXPECT_EQ(registry.counter("textcache.hits")->value(), 1u);
  EXPECT_EQ(registry.counter("textcache.misses")->value(), 2u);
  EXPECT_EQ(registry.counter("textcache.insertions")->value(), 1u);
  EXPECT_EQ(registry.counter("textcache.rejected")->value(), 1u);
  EXPECT_EQ(registry.gauge("textcache.entries")->value(), 1);
}

}  // namespace
}  // namespace topodb
