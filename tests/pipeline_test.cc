// The batched invariant pipeline: canonical-string cache exactness and the
// thread-pooled batch API (src/pipeline/).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/invariant/data.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/invariant_cache.h"
#include "src/region/fixtures.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

std::vector<SpatialInstance> MixedWorkload() {
  return {Fig1aInstance(),        Fig1bInstance(),
          Fig1cInstance(),        Fig1dInstance(),
          NestedInstance(),       *ChainInstance(4),
          *CombInstance(3),       *NestedRingsInstance(3),
          *RandomRectInstance(5, 40, 7), *RandomRectInstance(6, 40, 8)};
}

TEST(InvariantCacheTest, AgreesWithUncachedComputation) {
  InvariantCache cache;
  for (const SpatialInstance& instance : MixedWorkload()) {
    InvariantData data = *ComputeInvariant(instance);
    Result<std::string> direct = CanonicalInvariantString(data);
    Result<std::string> cached = cache.Canonical(data);
    ASSERT_TRUE(direct.ok());
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(*direct, *cached);
    // Second lookup of the same structure must hit.
    EXPECT_EQ(*cache.Canonical(data), *direct);
  }
  const InvariantCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, MixedWorkload().size());
  EXPECT_EQ(stats.hits, MixedWorkload().size());
}

TEST(InvariantCacheTest, OptionVariantsAreCachedSeparately) {
  InvariantCache cache;
  InvariantData data = *ComputeInvariant(Fig1aInstance());
  CanonicalOptions isotopy;
  isotopy.allow_reflection = false;
  EXPECT_EQ(*cache.Canonical(data), *CanonicalInvariantString(data));
  EXPECT_EQ(*cache.Canonical(data, isotopy),
            *CanonicalInvariantString(data, isotopy));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(InvariantCacheTest, CachedPredicatesMatchDirectOnes) {
  InvariantCache cache;
  InvariantData a = *ComputeInvariant(*CombInstance(2));
  InvariantData b = *ComputeInvariant(*CombInstance(3));
  EXPECT_EQ(*cache.Isomorphic(a, a), *Isomorphic(a, a));
  EXPECT_EQ(*cache.Isomorphic(a, b), *Isomorphic(a, b));
  EXPECT_EQ(*cache.IsotopyEquivalent(a, b), *IsotopyEquivalent(a, b));
}

TEST(InvariantCacheTest, MalformedDataErrorsAndIsNotCached) {
  InvariantData bad;
  bad.region_names = {"A"};
  bad.vertices.push_back({CellLabel{Sign::kExterior}});
  bad.edges.push_back({0, 0, CellLabel{Sign::kBoundary}});
  // next_ccw/face_of_dart left empty: dart table size mismatch.
  InvariantCache cache;
  EXPECT_FALSE(cache.Canonical(bad).ok());
  EXPECT_FALSE(cache.Canonical(bad).ok());
  EXPECT_EQ(cache.size(), 0u);
}

TEST(InvariantCacheTest, LruCapsBoundEntriesAndBytes) {
  // cap + 1 distinct tiny structures: one region, renamed each time.
  const InvariantData base = *ComputeInvariant(SingleRegionInstance());
  auto renamed = [&base](size_t i) {
    InvariantData data = base;
    data.region_names[0] = "R" + std::to_string(i);
    return data;
  };
  InvariantCache cache;
  for (size_t i = 0; i <= InvariantCache::kMaxEntries; ++i) {
    const InvariantData data = renamed(i);
    const Result<std::string> cached = cache.Canonical(data);
    ASSERT_TRUE(cached.ok()) << i;
    ASSERT_EQ(*cached, *CanonicalInvariantString(data)) << i;
  }
  EXPECT_EQ(cache.size(), InvariantCache::kMaxEntries);
  EXPECT_LE(cache.stats().bytes, InvariantCache::kMaxBytes);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The oldest structure was the one evicted: it misses again.
  const uint64_t misses = cache.stats().misses;
  EXPECT_EQ(*cache.Canonical(renamed(0)),
            *CanonicalInvariantString(renamed(0)));
  EXPECT_EQ(cache.stats().misses, misses + 1);
  EXPECT_EQ(cache.size(), InvariantCache::kMaxEntries);
}

TEST(StructuralKeyTest, LengthPrefixKeepsNameListsDistinct) {
  InvariantData a, b;
  a.region_names = {"a,b"};
  b.region_names = {"a", "b"};
  EXPECT_NE(StructuralKey(a), StructuralKey(b));
}

TEST(BatchTest, MatchesSerialComputation) {
  const std::vector<SpatialInstance> instances = MixedWorkload();
  for (int threads : {1, 4}) {
    BatchOptions options;
    options.num_threads = threads;
    auto results = BatchComputeInvariants(instances, options);
    ASSERT_EQ(results.size(), instances.size());
    for (size_t i = 0; i < instances.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      Result<TopologicalInvariant> serial =
          TopologicalInvariant::Compute(instances[i]);
      ASSERT_TRUE(serial.ok());
      EXPECT_EQ(results[i]->canonical(), serial->canonical()) << i;
    }
  }
}

TEST(BatchTest, SharedCacheDeduplicatesRepeatedStructures) {
  std::vector<SpatialInstance> instances(8, *CombInstance(2));
  InvariantCache cache;
  BatchOptions options;
  options.num_threads = 4;
  options.cache = &cache;
  auto results = BatchComputeInvariants(instances, options);
  const std::string expected =
      TopologicalInvariant::Compute(instances[0])->canonical();
  for (const auto& result : results) {
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->canonical(), expected);
  }
  // All eight instances share one structure: one cache entry, and every
  // lookup is accounted for.
  EXPECT_EQ(cache.size(), 1u);
  const InvariantCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, instances.size());
}

TEST(BatchTest, AllPairsBroadPhaseProducesSameInvariants) {
  const std::vector<SpatialInstance> instances = MixedWorkload();
  BatchOptions grid;
  BatchOptions all_pairs;
  all_pairs.arrangement.broad_phase = BroadPhase::kAllPairs;
  auto with_grid = BatchComputeInvariants(instances, grid);
  auto with_all_pairs = BatchComputeInvariants(instances, all_pairs);
  for (size_t i = 0; i < instances.size(); ++i) {
    ASSERT_TRUE(with_grid[i].ok());
    ASSERT_TRUE(with_all_pairs[i].ok());
    EXPECT_EQ(with_grid[i]->canonical(), with_all_pairs[i]->canonical()) << i;
  }
}

TEST(BatchTest, EmptyBatchReturnsNoResults) {
  EXPECT_TRUE(BatchComputeInvariants({}).empty());
}

TEST(BatchTest, DefaultThreadCountHandlesLargeBatch) {
  std::vector<SpatialInstance> instances;
  for (int seed = 1; seed <= 24; ++seed) {
    instances.push_back(*RandomRectInstance(4, 30, seed));
  }
  auto results = BatchComputeInvariants(instances);
  for (const auto& result : results) EXPECT_TRUE(result.ok());
}

// --- Deadlines, cancellation, worker-count validation, metrics ---

TEST(BatchDeadlineTest, ExpiredDeadlineFailsEveryItemIndividually) {
  const std::vector<SpatialInstance> instances = MixedWorkload();
  for (int threads : {1, 4}) {
    BatchOptions options;
    options.num_threads = threads;
    options.deadline = Deadline::Expired();
    auto results = BatchComputeInvariants(instances, options);
    ASSERT_EQ(results.size(), instances.size());
    for (const auto& result : results) {
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    }
  }
}

TEST(BatchDeadlineTest, GenerousDeadlineLeavesResultsByteIdentical) {
  const std::vector<SpatialInstance> instances = MixedWorkload();
  BatchOptions plain;
  BatchOptions bounded;
  bounded.deadline = Deadline::AfterMillis(3'600'000);
  auto without = BatchComputeInvariants(instances, plain);
  auto with = BatchComputeInvariants(instances, bounded);
  ASSERT_EQ(without.size(), with.size());
  for (size_t i = 0; i < without.size(); ++i) {
    ASSERT_TRUE(without[i].ok());
    ASSERT_TRUE(with[i].ok()) << with[i].status().ToString();
    EXPECT_EQ(with[i]->canonical(), without[i]->canonical()) << i;
  }
}

TEST(BatchDeadlineTest, OnePathologicalItemFailsAloneRestByteIdentical) {
  // Tiny items first, one huge all-pairs arrangement last (sequential
  // workers): the fast items complete far inside the deadline, the
  // pathological one blows it and hits the post-arrangement checkpoint.
  // Margins are ~50x on both sides of the 50ms budget, so the test stays
  // deterministic across machine speeds and sanitizer slowdowns. The
  // undeadlined reference run covers only the fast items — completing the
  // pathological invariant for real would dominate the suite's runtime,
  // and the byte-identical claim is about the unaffected slots.
  const std::vector<SpatialInstance> fast = {
      Fig1aInstance(), Fig1cInstance(), NestedInstance(), *ChainInstance(3)};
  std::vector<SpatialInstance> instances = fast;
  const size_t pathological = instances.size();
  instances.push_back(*RandomRectInstance(128, 12 * 128, 42));

  BatchOptions options;
  options.num_threads = 1;
  options.arrangement.broad_phase = BroadPhase::kAllPairs;
  auto unbounded = BatchComputeInvariants(fast, options);
  options.deadline = Deadline::AfterMillis(50);
  auto bounded = BatchComputeInvariants(instances, options);

  ASSERT_EQ(bounded.size(), instances.size());
  ASSERT_FALSE(bounded[pathological].ok());
  EXPECT_EQ(bounded[pathological].status().code(),
            StatusCode::kDeadlineExceeded);
  for (size_t i = 0; i < pathological; ++i) {
    ASSERT_TRUE(unbounded[i].ok());
    ASSERT_TRUE(bounded[i].ok()) << i << ": " << bounded[i].status().ToString();
    EXPECT_EQ(bounded[i]->canonical(), unbounded[i]->canonical()) << i;
  }
}

TEST(BatchDeadlineTest, PreCancelledTokenFailsEveryItem) {
  CancelToken token;
  token.Cancel();
  BatchOptions options;
  options.num_threads = 4;
  options.cancel = &token;
  auto results = BatchComputeInvariants(MixedWorkload(), options);
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(BatchDeadlineTest, NegativeThreadCountFailsEveryItemWithInvalidArgument) {
  const std::vector<SpatialInstance> instances = MixedWorkload();
  BatchOptions options;
  options.num_threads = -2;
  auto results = BatchComputeInvariants(instances, options);
  ASSERT_EQ(results.size(), instances.size());
  for (const auto& result : results) {
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(BatchMetricsTest, RecordsPerStageTimingsAndItemCounts) {
  const std::vector<SpatialInstance> instances = MixedWorkload();
  MetricsRegistry registry;
  InvariantCache cache;
  BatchOptions options;
  options.cache = &cache;
  options.metrics = &registry;
  auto results = BatchComputeInvariants(instances, options);
  for (const auto& result : results) ASSERT_TRUE(result.ok());
  EXPECT_EQ(registry.counter("pipeline.items")->value(), instances.size());
  EXPECT_EQ(registry.counter("pipeline.failures")->value(), 0u);
  // Every successful item passes through every stage exactly once.
  EXPECT_EQ(registry.histogram("pipeline.arrangement_us")->count(),
            instances.size());
  EXPECT_EQ(registry.histogram("pipeline.extract_us")->count(),
            instances.size());
  EXPECT_EQ(registry.histogram("pipeline.canonical_us")->count(),
            instances.size());
  EXPECT_EQ(registry.histogram("pipeline.batch_us")->count(), 1u);
  // Cache traffic and footprint surfaced as counters/gauges.
  const InvariantCache::Stats stats = cache.stats();
  EXPECT_EQ(registry.counter("pipeline.cache_hits")->value(), stats.hits);
  EXPECT_EQ(registry.counter("pipeline.cache_misses")->value(), stats.misses);
  EXPECT_EQ(registry.gauge("invariant_cache.entries")->value(),
            static_cast<int64_t>(cache.size()));
  EXPECT_GT(registry.gauge("invariant_cache.bytes")->value(), 0);
  // Arrangement metrics propagate through BatchOptions::metrics.
  EXPECT_EQ(registry.counter("arrangement.builds")->value(), instances.size());
  EXPECT_GT(registry.counter("arrangement.candidate_pairs")->value(), 0u);
}

}  // namespace
}  // namespace topodb
