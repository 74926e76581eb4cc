// BoundedCache (src/pipeline/bounded_cache.h), the mechanism behind the
// text, invariant, engine and semantic caches. Each case is a script of
// cache operations run against one policy, and every case checks the same
// seven-series metrics scheme against stats().
//
// Script steps, space-separated, with an entry charging key + value bytes:
//   +k=v  Insert(k, v)
//   ?k=v  Lookup(k) must hit with v;  ?k  Lookup(k) must miss
//   ~k=v  GetOrCompute(k) with a compute yielding v must return v
//   ~k!   GetOrCompute(k) with a failing compute must fail

#include "src/pipeline/bounded_cache.h"

#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"

namespace topodb {
namespace {

struct CacheCase {
  std::string name;
  CachePolicy policy;
  size_t max_entries;
  size_t max_bytes;
  std::string script;
  CacheStats expected;  // {hits, misses, insertions, evictions, rejected,
                        //  entries, bytes}
};

// `passes` sweeps over keys k0..k<keys-1>, each a GetOrCompute.
std::string CyclicSweep(int keys, int passes) {
  std::string script;
  for (int pass = 0; pass < passes; ++pass) {
    for (int k = 0; k < keys; ++k) script += "~k" + std::to_string(k) + "=v ";
  }
  return script;
}

constexpr size_t kNoCap = size_t{1} << 40;

const std::vector<CacheCase> kCases = {
    // kAdmit, the text cache's policy.
    {"AdmitFirstInsertWins", CachePolicy::kAdmit, 4096, kNoCap,
     "+k=first +k=second ?k=first", {1, 0, 1, 0, 0, 1, 6}},
    {"AdmitEntryCapRejectsNotEvicts", CachePolicy::kAdmit, 2, kNoCap,
     "+a=1 +b=2 +c=3 ?a=1 ?b=2 ?c", {2, 1, 2, 0, 1, 2, 4}},
    {"AdmitByteCapRejects", CachePolicy::kAdmit, 4096, 10,
     "+aaaa=bbbb +cc=dd ?aaaa=bbbb ?cc", {1, 1, 1, 0, 1, 1, 8}},
    {"AdmitZeroEntriesDisables", CachePolicy::kAdmit, 0, kNoCap,
     "+a=1 ?a ~a=1", {0, 2, 0, 0, 2, 0, 0}},
    {"AdmitFailedComputeIsNotStored", CachePolicy::kAdmit, 4096, kNoCap,
     "~a! ?a ~a=1 ?a=1", {1, 3, 1, 0, 0, 1, 2}},
    // The policy rationale: under a cyclic sweep of 12 keys over room for 4,
    // first-in-wins keeps 4 stable residents that every later pass hits.
    {"AdmitCyclicSweepKeepsStableResidents", CachePolicy::kAdmit, 4, kNoCap,
     CyclicSweep(12, 3), {8, 28, 4, 0, 24, 4, 12}},
    // kLru, the invariant, engine and semantic caches' policy.
    {"LruEvictsLeastRecentlyUsed", CachePolicy::kLru, 3, kNoCap,
     "?a +a=1 +b=0 +c=1 ?a=1 ?b=0 +d=1 ?c ?a=1 ?d=1", {4, 2, 4, 1, 0, 3, 6}},
    {"LruInsertOfAResidentKeyRefreshesIt", CachePolicy::kLru, 2, kNoCap,
     "+a=1 +b=2 +a=3 +c=4 ?a=1 ?b", {1, 1, 3, 1, 0, 2, 4}},
    // A newcomer that could never fit is rejected without disturbing the
    // residents.
    {"LruByteBoundEvictsAndOversizedKeysAreRejected", CachePolicy::kLru, 4096,
     8, "+aaaa=1 +bbbb=2 ?aaaa ?bbbb=2 +xxxxxxxxxx=3 ?bbbb=2",
     {2, 1, 2, 1, 1, 1, 5}},
    {"LruZeroEntriesDisables", CachePolicy::kLru, 0, kNoCap, "+a=1 ?a ~a=1",
     {0, 2, 0, 0, 2, 0, 0}},
    {"LruFailedComputeIsNotStored", CachePolicy::kLru, 4096, kNoCap,
     "~a! ?a ~a=1 ?a=1", {1, 3, 1, 0, 0, 1, 2}},
    // Where kAdmit keeps residents, LRU evicts each key just before its next
    // use and never hits.
    {"LruCyclicSweepEvictsEveryEntry", CachePolicy::kLru, 4, kNoCap,
     CyclicSweep(12, 3), {0, 36, 36, 32, 0, 4, 14}},
};

void PrintTo(const CacheCase& c, std::ostream* os) { *os << c.name; }

class BoundedCacheTest : public ::testing::TestWithParam<CacheCase> {};

TEST_P(BoundedCacheTest, Script) {
  const CacheCase& c = GetParam();
  MetricsRegistry registry;
  BoundedCache<std::string, std::string> cache(
      c.policy, c.max_entries, c.max_bytes,
      [](const std::string& key, const std::string& value) {
        return key.size() + value.size();
      },
      &registry, "test");
  std::istringstream steps(c.script);
  for (std::string step; steps >> step;) {
    SCOPED_TRACE(step);
    const char op = step[0];
    std::string key = step.substr(1);
    std::optional<std::string> value;  // None: a miss or a failing compute.
    if (const size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (key.back() == '!') {
      key.pop_back();
    }
    if (op == '+') {
      cache.Insert(key, *value);
    } else if (op == '?') {
      EXPECT_EQ(cache.Lookup(key), value);
    } else {
      ASSERT_EQ(op, '~');
      const Result<std::string> got =
          cache.GetOrCompute(key, [&]() -> Result<std::string> {
            if (!value) return Status::Internal("planted failure");
            return *value;
          });
      ASSERT_EQ(got.ok(), value.has_value());
      if (got.ok()) {
        EXPECT_EQ(*got, *value);
      }
    }
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, c.expected.hits);
  EXPECT_EQ(s.misses, c.expected.misses);
  EXPECT_EQ(s.insertions, c.expected.insertions);
  EXPECT_EQ(s.evictions, c.expected.evictions);
  EXPECT_EQ(s.rejected, c.expected.rejected);
  EXPECT_EQ(s.entries, c.expected.entries);
  EXPECT_EQ(s.bytes, c.expected.bytes);
  EXPECT_EQ(cache.size(), s.entries);
  EXPECT_EQ(cache.bytes(), s.bytes);
  // One metrics scheme, mirroring stats().
  EXPECT_EQ(registry.counter("test.hits")->value(), s.hits);
  EXPECT_EQ(registry.counter("test.misses")->value(), s.misses);
  EXPECT_EQ(registry.counter("test.insertions")->value(), s.insertions);
  EXPECT_EQ(registry.counter("test.evictions")->value(), s.evictions);
  EXPECT_EQ(registry.counter("test.rejected")->value(), s.rejected);
  EXPECT_EQ(registry.gauge("test.entries")->value(),
            static_cast<int64_t>(s.entries));
  EXPECT_EQ(registry.gauge("test.bytes")->value(),
            static_cast<int64_t>(s.bytes));

  // Clear empties the cache and its gauges, and keeps the counters.
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().hits, s.hits);
  EXPECT_EQ(registry.gauge("test.entries")->value(), 0);
  EXPECT_EQ(registry.gauge("test.bytes")->value(), 0);
}

INSTANTIATE_TEST_SUITE_P(Policies, BoundedCacheTest,
                         ::testing::ValuesIn(kCases),
                         [](const ::testing::TestParamInfo<CacheCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace topodb
