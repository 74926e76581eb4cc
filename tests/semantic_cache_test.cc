// Tests for the semantic verdict cache (src/pipeline/semantic_cache.h):
// its semcache.* series, key structure (entry identity, options
// fingerprint, canonical query), the cache-hit contract (no budget
// consumed, deadline still enforced), and the errors-are-never-cached
// rule. The LRU mechanism itself is tested in bounded_cache_test.cc.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/pipeline/semantic_cache.h"
#include "src/query/eval.h"
#include "src/region/fixtures.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

TEST(SemanticCacheTest, MetricsExportThroughRegistry) {
  MetricsRegistry registry;
  SemanticCacheOptions options;
  options.max_entries = 1;
  options.metrics = &registry;
  SemanticCache cache(options);

  cache.Insert("a", true);
  cache.Insert("b", true);  // Evicts "a".
  (void)cache.Lookup("b");
  (void)cache.Lookup("a");
  EXPECT_EQ(registry.counter("semcache.hits")->value(), 1u);
  EXPECT_EQ(registry.counter("semcache.misses")->value(), 1u);
  EXPECT_EQ(registry.counter("semcache.evictions")->value(), 1u);
  EXPECT_EQ(registry.counter("semcache.insertions")->value(), 2u);
  EXPECT_EQ(registry.gauge("semcache.entries")->value(), 1);
  EXPECT_GT(registry.gauge("semcache.bytes")->value(), 0);
}

TEST(SemanticCacheTest, KeySeparatesEntryIdentityAndOptions) {
  EvalOptions base;
  const std::string canonical = "connect(A, B)";
  const std::string key = SemanticCacheKey(7, 1, canonical, base);

  // Same inputs -> same key (the cache depends on determinism).
  EXPECT_EQ(SemanticCacheKey(7, 1, canonical, base), key);
  // Any identity component fractures the key: a re-ingest (new entry id),
  // a store format bump, or another query.
  EXPECT_NE(SemanticCacheKey(8, 1, canonical, base), key);
  EXPECT_NE(SemanticCacheKey(7, 2, canonical, base), key);
  EXPECT_NE(SemanticCacheKey(7, 1, "connect(A, C)", base), key);

  // Verdict-relevant options fracture it too...
  EvalOptions other = base;
  other.max_region_candidates = 1;
  EXPECT_NE(SemanticCacheKey(7, 1, canonical, other), key);
  other = base;
  other.max_enumeration_steps = 1;
  EXPECT_NE(SemanticCacheKey(7, 1, canonical, other), key);

  // ...while the plan flag does not (a cached evaluation always runs the
  // canonical form), nor do the wall-clock knobs: a verdict is equally
  // valid under any deadline, and admission checks handle expiry.
  other = base;
  other.plan = true;
  EXPECT_EQ(SemanticCacheKey(7, 1, canonical, other), key);
  other = base;
  other.deadline = Deadline::AfterMillis(1);
  CancelToken cancel;
  other.cancel = &cancel;
  EXPECT_EQ(SemanticCacheKey(7, 1, canonical, other), key);
}

TEST(SemanticCacheTest, EquivalentQueriesShareOneEntry) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;
  eval.cache_format_version = 1;

  // Four spellings of one query: operand order, double negation, the
  // implies expansion. All collapse to one canonical key.
  const char* spellings[] = {
      "connect(A, B) and connect(A, C)",
      "connect(C, A) and connect(B, A)",
      "not (not (connect(A, B) and connect(A, C)))",
      "not (connect(A, B) implies not connect(A, C))",
  };
  std::optional<bool> verdict;
  for (const char* spelling : spellings) {
    const auto result = EvaluateQueryCached(engine, spelling, eval);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!verdict) verdict = *result;
    EXPECT_EQ(*result, *verdict) << spelling;
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 3u);
}

// One canonicalization per request, hit or miss: it builds the key, and
// a miss evaluates its output instead of rewriting the query again.
TEST(SemanticCacheTest, EachCallCanonicalizesExactlyOnce) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  MetricsRegistry registry;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;
  eval.metrics = &registry;
  const char* spellings[] = {
      "exists region r . subset(r, A) and subset(r, B)",  // Miss.
      "exists region s . subset(s, B) and subset(s, A)",  // Hit.
      "exists region r . subset(r, A) and subset(r, B)",  // Hit.
      "connect(A, B)",                                    // Miss.
  };
  for (const bool plan : {false, true}) {
    eval.plan = plan;
    for (const char* spelling : spellings) {
      const uint64_t before = registry.counter("planner.plans")->value();
      ASSERT_TRUE(EvaluateQueryCached(engine, spelling, eval).ok());
      EXPECT_EQ(registry.counter("planner.plans")->value(), before + 1)
          << spelling << " (plan " << plan << ")";
    }
  }
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 6u);
  EXPECT_EQ(registry.histogram("planner.plan_us")->count(), 8u);
}

// Families of equivalent spellings (operand flips, dualized quantifiers,
// renamed binders, permuted conjuncts, double negation, and a short
// circuit the canonical order takes): every spelling gives one verdict as
// written, as the canonical form and through the cache, and each family
// occupies exactly one cache entry.
TEST(SemanticCacheTest, SpellingFamiliesShareOneVerdictAndOneEntry) {
  struct Family {
    SpatialInstance instance;
    std::vector<std::string> spellings;
  };
  const Family families[] = {
      {*ChainInstance(2),
       {"forall region r . exists region s . not connect(r, s)",
        "forall region r . exists region s . not connect(s, r)",
        "not (exists region r . forall region s . connect(r, s))",
        "forall region t . exists region u . not connect(t, u)"}},
      {Fig1bInstance(),
       {"exists region r . subset(r, A) and subset(r, B) and subset(r, C)",
        "exists region r . subset(r, C) and subset(r, A) and subset(r, B)",
        "not (not (exists region r . subset(r, B) and subset(r, C) "
        "and subset(r, A)))"}},
      {*RectGridInstance(1, 2),
       {"forall region r . exists region s . not connect(r, s)",
        "not (exists region r . forall region s . not (not connect(r, "
        "s)))"}},
      {*ChainInstance(2),
       {"forall region r . ((exists region s . not connect(s, r)) "
        "or connect(r, r))"}},
  };
  for (const Family& family : families) {
    QueryEngine engine = *QueryEngine::Build(family.instance);
    SemanticCache cache;
    EvalOptions written;
    EvalOptions planned;
    planned.plan = true;
    EvalOptions cached;
    cached.semantic_cache = &cache;
    cached.cache_entry_id = 1;
    const bool truth = *engine.Evaluate(family.spellings.front(), written);
    for (const std::string& spelling : family.spellings) {
      for (const EvalOptions& options : {written, planned}) {
        const Result<bool> verdict = engine.Evaluate(spelling, options);
        ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
        EXPECT_EQ(*verdict, truth) << spelling << " (plan " << options.plan
                                   << ")";
      }
      const Result<bool> verdict =
          EvaluateQueryCached(engine, spelling, cached);
      ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
      EXPECT_EQ(*verdict, truth) << spelling << " (cached)";
    }
    EXPECT_EQ(cache.size(), 1u) << family.spellings.front();
  }
}

TEST(SemanticCacheTest, UnknownNamesStayNotFoundAfterAFoldedVerdictIsCached) {
  // Canonicalization folds each query below to a bare literal, so its key
  // is that literal's key. Once the literal's verdict is cached, the key
  // alone would answer a query the engine rejects.
  const std::pair<const char*, const char*> cases[] = {
      {"connect(Z, Z) and false", "false"},
      {"subset(Nope, A) or not subset(Nope, A)", "true"},
  };
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  for (const bool plan : {false, true}) {
    for (const auto& [query, literal] : cases) {
      SemanticCache cache;
      EvalOptions eval;
      eval.semantic_cache = &cache;
      eval.cache_entry_id = 42;
      eval.plan = plan;
      EXPECT_EQ(EvaluateQueryCached(engine, query, eval).status().code(),
                StatusCode::kNotFound)
          << query << " (cold)";
      ASSERT_TRUE(EvaluateQueryCached(engine, literal, eval).ok());
      ASSERT_EQ(cache.size(), 1u);
      EXPECT_EQ(EvaluateQueryCached(engine, query, eval).status().code(),
                StatusCode::kNotFound)
          << query << " (after " << literal << " was cached)";
      EXPECT_EQ(cache.stats().hits, 0u) << query;
    }
  }
}

TEST(SemanticCacheTest, ReingestIdentityChangeRoutesAroundStaleVerdicts) {
  // The same query against the "same" catalog name must re-evaluate when
  // the underlying bytes changed. Identity is the entry id (payload
  // checksum), never the name: simulate a re-ingest by switching ids.
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 1;
  eval.cache_format_version = 1;

  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  eval.cache_entry_id = 2;  // Re-ingest under the same name: new id.
  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(SemanticCacheTest, ZeroEntryIdDisablesCaching) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 0;  // Inline text: no durable identity.

  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(SemanticCacheTest, HitDoesNotReevaluateOrConsumeBudget) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  MetricsRegistry registry;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;
  eval.metrics = &registry;

  const char* query = "exists region r . subset(r, A) and subset(r, B)";
  ASSERT_TRUE(EvaluateQueryCached(engine, query, eval).ok());
  const uint64_t atoms_after_miss = registry.counter("query.atoms")->value();
  const auto raw_after_miss = engine.cache_stats().raw_candidates;
  EXPECT_GT(atoms_after_miss, 0u);

  // The warm evaluation answers from the cache: the engine never runs, so
  // no atoms are evaluated and no enumeration budget is charged.
  ASSERT_TRUE(EvaluateQueryCached(engine, query, eval).ok());
  EXPECT_EQ(registry.counter("query.atoms")->value(), atoms_after_miss);
  EXPECT_EQ(engine.cache_stats().raw_candidates, raw_after_miss);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(SemanticCacheTest, ExpiredDeadlineFailsEvenOnWarmEntry) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;

  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  ASSERT_EQ(cache.size(), 1u);

  // A warm verdict must not bypass admission control: the expired request
  // fails before the lookup, and the hit counter stays untouched.
  eval.deadline = Deadline::Expired();
  const auto expired = EvaluateQueryCached(engine, "connect(A, B)", eval);
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cache.stats().hits, 0u);

  eval.deadline = Deadline::Infinite();
  CancelToken cancel;
  cancel.Cancel();
  eval.cancel = &cancel;
  const auto cancelled = EvaluateQueryCached(engine, "connect(A, B)", eval);
  EXPECT_EQ(cancelled.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(SemanticCacheTest, ErrorsAreNeverCached) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;
  eval.max_enumeration_steps = 1;  // Guaranteed ResourceExhausted below.

  // The body is false for every binding, so the exists must exhaust the
  // whole region range — which the 1-step budget cannot cover.
  const char* query = "exists region r . not connect(r, r)";
  const auto exhausted = EvaluateQueryCached(engine, query, eval);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);

  // With a workable budget the same key gets a verdict; the earlier
  // failure left nothing behind to shadow it.
  eval.max_enumeration_steps = int64_t{1} << 22;
  const auto ok = EvaluateQueryCached(engine, query, eval);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SemanticCacheTest, DistinctBudgetsDoNotShareVerdicts) {
  // A verdict computed under one budget must not answer a request with
  // another: exhaustion points differ, so the keys differ.
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  SemanticCache cache;
  EvalOptions eval;
  eval.semantic_cache = &cache;
  eval.cache_entry_id = 42;

  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  eval.max_region_candidates = 1000;
  ASSERT_TRUE(EvaluateQueryCached(engine, "connect(A, B)", eval).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

}  // namespace
}  // namespace topodb
