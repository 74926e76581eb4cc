// EngineCache tests: hit/miss accounting, identity of cached engines,
// invalidation by key (entry id and format version), that build failures
// are not cached, and the LRU entry cap.

#include "src/pipeline/engine_cache.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

namespace topodb {
namespace {

constexpr char kText[] =
    "A: (0 0, 4 0, 4 4, 0 4)\n"
    "B: (1 1, 3 1, 3 2, 1 2)\n";

TEST(EngineCacheTest, SecondLookupIsAHitOnTheSameEngine) {
  EngineCache cache;
  const auto first = cache.GetOrBuild(1, 1, kText);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const auto second = cache.GetOrBuild(1, 1, kText);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // Same engine object, not a copy.
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EngineCacheTest, EntryIdAndFormatVersionBothKeyTheCache) {
  EngineCache cache;
  ASSERT_TRUE(cache.GetOrBuild(1, 1, kText).ok());
  // A re-ingest changes the entry id; a format migration changes the
  // version. Either way the old engine must not be served.
  ASSERT_TRUE(cache.GetOrBuild(2, 1, kText).ok());
  ASSERT_TRUE(cache.GetOrBuild(1, 2, kText).ok());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(EngineCacheTest, BuildFailureIsNotCached) {
  EngineCache cache;
  const auto bad = cache.GetOrBuild(9, 1, "not an instance");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(cache.size(), 0u);
  // The same key with good text afterwards builds normally (the failure
  // did not poison the slot).
  const auto good = cache.GetOrBuild(9, 1, kText);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
}

TEST(EngineCacheTest, CachedEngineAnswersQueries) {
  EngineCache cache;
  const auto engine = cache.GetOrBuild(3, 1, kText);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto held = *engine;
  cache.Clear();  // A held engine survives eviction.
  EXPECT_EQ(cache.size(), 0u);
  const auto verdict = held->Evaluate("connect(A, B)");
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
}

TEST(EngineCacheTest, LruCapBoundsResidentEnginesAndHeldEnginesSurvive) {
  EngineCache cache;
  const auto held = cache.GetOrBuild(0, 1, kText);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  // cap + 1 distinct entry ids, as re-ingests churn them: the least
  // recently used one, id 0, is evicted.
  for (uint64_t id = 1; id <= EngineCache::kMaxEngines; ++id) {
    ASSERT_TRUE(cache.GetOrBuild(id, 1, kText).ok()) << id;
  }
  EXPECT_EQ(cache.size(), EngineCache::kMaxEngines);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const uint64_t misses = cache.stats().misses;
  const auto rebuilt = cache.GetOrBuild(0, 1, kText);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_NE(rebuilt->get(), held->get());
  EXPECT_EQ(cache.size(), EngineCache::kMaxEngines);
  // The engine held across its eviction still answers.
  const auto verdict = (*held)->Evaluate("connect(A, B)");
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  EXPECT_TRUE(*verdict);
}

}  // namespace
}  // namespace topodb
