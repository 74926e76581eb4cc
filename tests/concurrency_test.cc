// Thread-interaction coverage, built for TSan: shared caches, shared
// metric registries, one query engine serving many threads, and
// mid-flight cancellation. CI runs exactly this suite under -fsanitize=thread
// (filtered via `ctest -R ConcurrencyTest`), so every cross-thread
// access pattern the serving path supports should be exercised here.

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/deadline.h"
#include "src/obs/metrics.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/bounded_cache.h"
#include "src/pipeline/invariant_cache.h"
#include "src/query/eval.h"
#include "src/region/fixtures.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

std::vector<SpatialInstance> SmallWorkload() {
  std::vector<SpatialInstance> instances = {
      Fig1aInstance(), Fig1bInstance(), Fig1cInstance(), Fig1dInstance()};
  // Duplicates make the shared invariant cache see hits from several
  // threads at once, not just insertions.
  instances.push_back(Fig1aInstance());
  instances.push_back(Fig1cInstance());
  instances.push_back(*ChainInstance(3));
  instances.push_back(*ChainInstance(3));
  return instances;
}

// Evaluates every query on `engine` from `threads` std::threads sharing
// `options` (thread t takes queries t, t + threads, ...); results stay
// aligned with the queries.
std::vector<Result<bool>> EvaluateOnThreads(
    const QueryEngine& engine, const std::vector<std::string>& queries,
    const EvalOptions& options, int threads) {
  std::vector<Result<bool>> results(queries.size(),
                                    Result<bool>(Status::Internal("not run")));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < queries.size(); i += threads) {
        results[i] = engine.Evaluate(queries[i], options);
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  return results;
}

TEST(ConcurrencyTest, SharedCacheAndRegistryAcrossInvariantBatch) {
  const std::vector<SpatialInstance> instances = SmallWorkload();
  InvariantCache cache;
  MetricsRegistry registry;
  BatchOptions options;
  options.num_threads = 4;
  options.cache = &cache;
  options.metrics = &registry;
  auto results = BatchComputeInvariants(instances, options);
  ASSERT_EQ(results.size(), instances.size());
  for (const auto& result : results) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  const InvariantCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, instances.size());
  EXPECT_EQ(registry.counter("pipeline.items")->value(), instances.size());
  EXPECT_EQ(registry.counter("pipeline.failures")->value(), 0u);
}

TEST(ConcurrencyTest, SharedEngineAndRegistryAcrossQueryBatch) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  std::vector<std::string> queries = {
      "connect(A, B)",
      "exists name a . exists name b . not (a = b) and overlap(a, b)",
      "forall region r . connect(r, r)",
      "exists region r . subset(r, A) and subset(r, B)",
  };
  // Duplicates drive the shared quantifier range from several threads.
  queries.push_back(queries[2]);
  queries.push_back(queries[3]);

  MetricsRegistry registry;
  EvalOptions options;
  options.metrics = &registry;
  const std::vector<Result<bool>> results =
      EvaluateOnThreads(engine, queries, options, 4);
  for (size_t i = 0; i < queries.size(); ++i) {
    const Result<bool> serial = engine.Evaluate(queries[i]);
    ASSERT_TRUE(results[i].ok()) << queries[i];
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(*results[i], *serial) << queries[i];
  }
  EXPECT_EQ(registry.counter("query.evaluations")->value(), queries.size());
}

TEST(ConcurrencyTest, ConcurrentEvaluationsOnOneEngineShareCaches) {
  QueryEngine engine = *QueryEngine::Build(Fig1bInstance());
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  std::vector<Result<bool>> verdicts(4, Result<bool>(false));
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&engine, &registry, &verdicts, t] {
      EvalOptions options;
      options.metrics = &registry;
      verdicts[t] =
          engine.Evaluate("exists region r . subset(r, A)", options);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Result<bool>& verdict : verdicts) {
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_TRUE(*verdict);
  }
  EXPECT_EQ(registry.counter("query.evaluations")->value(), 4u);
}

TEST(ConcurrencyTest, CancellationFlippedMidFlightIsObservedSafely) {
  // A worker thread flips the token while the batch runs. There is no
  // guarantee which items are past their checkpoints when the flip lands,
  // so each result must be either a real verdict or DeadlineExceeded —
  // never a crash, a hang, or a mixed-up slot.
  std::vector<SpatialInstance> instances;
  for (int seed = 1; seed <= 8; ++seed) {
    instances.push_back(*RandomRectInstance(5, 40, seed));
  }
  CancelToken token;
  BatchOptions options;
  options.num_threads = 4;
  options.cancel = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    token.Cancel();
  });
  auto results = BatchComputeInvariants(instances, options);
  canceller.join();
  ASSERT_EQ(results.size(), instances.size());
  for (const auto& result : results) {
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
          << result.status().ToString();
    }
  }
}

TEST(ConcurrencyTest, QueryBatchCancellationMidFlightIsObservedSafely) {
  QueryEngine engine = *QueryEngine::Build(Fig1dInstance());
  const std::vector<std::string> queries(
      8, "forall region r . exists region s . connect(r, s)");
  CancelToken token;
  MetricsRegistry registry;
  EvalOptions options;
  options.cancel = &token;
  options.metrics = &registry;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    token.Cancel();
  });
  const std::vector<Result<bool>> results =
      EvaluateOnThreads(engine, queries, options, 4);
  canceller.join();
  for (const Result<bool>& result : results) {
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
          << result.status().ToString();
    }
  }
  EXPECT_EQ(registry.counter("query.evaluations")->value(), queries.size());
}

// A region quantifier extends the engine's shared range under one lock. On
// ChainInstance(40) the range holds its last disc before the 1000th raw
// candidate and none after it for millions of candidates, so an evaluation
// that needs a later disc holds that lock for its whole step budget. A
// second evaluation on the same engine, with a short deadline and metrics
// on (their export reads the range's counts), must still fail with
// DeadlineExceeded while the first is extending, not wait it out.
TEST(ConcurrencyTest, DeadlinedEvaluationDoesNotWaitOutARangeExtension) {
  QueryEngine engine = *QueryEngine::Build(*ChainInstance(40));
  const std::string query = "exists region r . subset(r, R039)";
  CancelToken stop_extending;
  std::atomic<bool> extender_done{false};
  std::thread extender([&] {
    EvalOptions options;
    options.max_enumeration_steps = int64_t{1} << 62;
    options.cancel = &stop_extending;
    options.deadline = Deadline::AfterMillis(5000);  // A hang guard.
    const Result<bool> result = engine.Evaluate(query, options);
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
    extender_done = true;
  });
  // Past the last disc, the extender stays inside one extension.
  while (engine.cache_stats().raw_candidates < 2000 && !extender_done) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  MetricsRegistry registry;
  EvalOptions options;
  options.max_enumeration_steps = int64_t{1} << 62;
  options.deadline = Deadline::AfterMillis(50);
  options.metrics = &registry;
  const auto start = std::chrono::steady_clock::now();
  const Result<bool> result = engine.Evaluate(query, options);
  const auto waited = std::chrono::steady_clock::now() - start;
  const bool extender_was_running = !extender_done;
  stop_extending.Cancel();
  extender.join();
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  EXPECT_TRUE(extender_was_running);
  EXPECT_LT(waited, std::chrono::seconds(2));
  EXPECT_EQ(registry.counter("query.deadline_exceeded")->value(), 1u);
}

TEST(ConcurrencyTest, BoundedCacheHoldsItsCapsUnderContention) {
  // Four threads run Lookup, Insert and GetOrCompute on one of 32 keys per
  // round, against room for 8 entries or 16 bytes, whichever binds first.
  // A thread's GetOrCompute can hit the entry it has just inserted, so
  // both policies see hits however the threads are scheduled. Every 5th
  // key's compute fails, and nothing inserts those keys any other way.
  constexpr size_t kMaxEntries = 8;
  constexpr size_t kMaxBytes = 16;
  constexpr int kKeys = 32;
  constexpr int kFailEvery = 5;
  auto value_for = [](int key) { return std::string(1 + key % 4, 'v'); };
  for (CachePolicy policy : {CachePolicy::kAdmit, CachePolicy::kLru}) {
    BoundedCache<int, std::string> cache(
        policy, kMaxEntries, kMaxBytes,
        [](const int&, const std::string& value) { return value.size(); },
        nullptr, "");
    std::atomic<uint64_t> lookups{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < 1000; ++round) {
          const int key = (round * 7 + t * 13) % kKeys;
          const bool poisoned = key % kFailEvery == 0;
          ++lookups;
          if (std::optional<std::string> hit = cache.Lookup(key)) {
            EXPECT_FALSE(poisoned) << key;
            EXPECT_EQ(*hit, value_for(key));
          }
          if (!poisoned) cache.Insert(key, value_for(key));
          ++lookups;
          const Result<std::string> got =
              cache.GetOrCompute(key, [&]() -> Result<std::string> {
                if (poisoned) return Status::Internal("planted failure");
                return value_for(key);
              });
          EXPECT_EQ(got.ok(), !poisoned) << key;
          if (got.ok()) {
            EXPECT_EQ(*got, value_for(key));
          }
          const CacheStats stats = cache.stats();
          EXPECT_LE(stats.entries, kMaxEntries);
          EXPECT_LE(stats.bytes, kMaxBytes);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, lookups.load());
    EXPECT_GT(stats.hits, 0u);
    for (int key = 0; key < kKeys; key += kFailEvery) {
      EXPECT_EQ(cache.Lookup(key), std::nullopt) << key;
    }
  }
}

}  // namespace
}  // namespace topodb
