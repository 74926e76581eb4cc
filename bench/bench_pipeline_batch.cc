// The batched invariant pipeline (src/pipeline/): old-vs-new timings for
// the arrangement broad phase (all-pairs baseline vs uniform grid), the
// canonical-string cache on repeated equivalence queries, and the
// thread-pooled batch API, all on the existing generator workloads.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/topodb.h"

namespace topodb {
namespace {

using bench::Unwrap;

// CI sets TOPODB_BENCH_SMOKE=1: the reports shrink to their smallest
// workloads so every code path still runs, in well under a second.
bool SmokeMode() {
  const char* env = std::getenv("TOPODB_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

double TimeMs(const std::function<void()>& fn) {
  // Best of two runs: enough to shed one-off allocator noise without
  // making the report slow on the O(n^2) baseline.
  double best = 0;
  for (int rep = 0; rep < 2; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

void BuildWith(const SpatialInstance& instance, BroadPhase phase) {
  ArrangementOptions options;
  options.broad_phase = phase;
  benchmark::DoNotOptimize(Unwrap(CellComplex::Build(instance, options)));
}

void ReportBroadPhase() {
  bench::Header("Arrangement broad phase: all-pairs baseline vs uniform grid");
  std::printf("%-22s | %10s | %10s | %7s\n", "workload", "all-pairs",
              "grid", "speedup");
  std::printf("%-22s | %10s | %10s | %7s\n", "", "(ms)", "(ms)", "");
  auto row = [](const char* name, const SpatialInstance& instance) {
    const double all_pairs =
        TimeMs([&] { BuildWith(instance, BroadPhase::kAllPairs); });
    const double grid = TimeMs([&] { BuildWith(instance, BroadPhase::kGrid); });
    std::printf("%-22s | %10.2f | %10.2f | %6.1fx\n", name, all_pairs, grid,
                grid > 0 ? all_pairs / grid : 0.0);
  };
  const std::vector<int> chain_sizes =
      SmokeMode() ? std::vector<int>{16} : std::vector<int>{64, 128, 256, 512};
  const std::vector<int> rect_sizes =
      SmokeMode() ? std::vector<int>{16} : std::vector<int>{64, 128, 256};
  for (int n : chain_sizes) {
    char name[32];
    std::snprintf(name, sizeof(name), "chain(%d)", n);
    row(name, Unwrap(ChainInstance(n)));
  }
  for (int n : rect_sizes) {
    char name[32];
    std::snprintf(name, sizeof(name), "random-rect(%d)", n);
    row(name, Unwrap(RandomRectInstance(n, 12 * n, 42)));
  }
}

// Filtered vs pure-rational predicates on the broad-phase workloads. The
// acceptance bar for the three-stage filter (ISSUE 6): >= 3x faster
// arrangement construction with identical output complexes.
void ReportPredicateFilter() {
  bench::PredicateFilterReport report("bench_pipeline_batch");
  const std::vector<int> chain_sizes =
      SmokeMode() ? std::vector<int>{16} : std::vector<int>{64, 128, 256, 512};
  const std::vector<int> rect_sizes =
      SmokeMode() ? std::vector<int>{16} : std::vector<int>{64, 128, 256};
  for (int n : chain_sizes) {
    char name[32];
    std::snprintf(name, sizeof(name), "chain(%d)", n);
    report.Row(name, Unwrap(ChainInstance(n)));
  }
  for (int n : rect_sizes) {
    char name[32];
    std::snprintf(name, sizeof(name), "random-rect(%d)", n);
    report.Row(name, Unwrap(RandomRectInstance(n, 12 * n, 42)));
  }
  if (!SmokeMode()) {
    // Larger coordinates: where filtering pays off most, since the
    // pure-rational baseline's multiplication cost grows with operand
    // bit-length while the certified double stage's does not. 40-bit integer
    // coordinates model survey/CAD-scale fixed-point data; the stretched
    // variant forces non-integer rationals through the whole overlay.
    report.Row("random-rect(128) 40-bit",
               Unwrap(RandomRectInstance(128, int64_t{1} << 40, 42)));
    BigInt factor(1);
    for (int i = 0; i < 64; ++i) factor = factor * BigInt(2);
    AffineTransform stretch = Unwrap(AffineTransform::Make(
        Rational(factor, BigInt(3)), 0, Rational(BigInt(7), factor), 0,
        Rational(factor, BigInt(5)), Rational(1, 3)));
    report.Row("stretch-64bit(rect 64)",
               Unwrap(stretch.ApplyToInstance(
                   Unwrap(RandomRectInstance(64, 12 * 64, 42)))));
  }
  report.WriteJsonIfRequested();
}

void ReportCache() {
  bench::Header("Canonical-string cache: repeated Isomorphic on one instance");
  const int kQueries = 50;
  std::printf("%-22s | %10s | %10s | %7s\n", "instance pair", "uncached",
              "cached", "speedup");
  std::printf("%-22s | %10s | %10s | %7s  (%d queries)\n", "", "(ms)", "(ms)",
              "", kQueries);
  auto row = [&](const char* name, const InvariantData& a,
                 const InvariantData& b) {
    const double uncached = TimeMs([&] {
      for (int q = 0; q < kQueries; ++q) {
        benchmark::DoNotOptimize(Unwrap(Isomorphic(a, b)));
      }
    });
    InvariantCache cache;
    const double cached = TimeMs([&] {
      for (int q = 0; q < kQueries; ++q) {
        benchmark::DoNotOptimize(Unwrap(cache.Isomorphic(a, b)));
      }
    });
    std::printf("%-22s | %10.2f | %10.2f | %6.1fx\n", name, uncached, cached,
                cached > 0 ? uncached / cached : 0.0);
  };
  const int comb = SmokeMode() ? 3 : 8;
  row("comb vs comb",
      Unwrap(ComputeInvariant(Unwrap(CombInstance(comb)))),
      Unwrap(ComputeInvariant(Unwrap(CombInstance(comb)))));
  if (!SmokeMode()) {
    row("random(16) vs self",
        Unwrap(ComputeInvariant(Unwrap(RandomRectInstance(16, 120, 3)))),
        Unwrap(ComputeInvariant(Unwrap(RandomRectInstance(16, 120, 3)))));
    row("rings(12) vs rings(12)",
        Unwrap(ComputeInvariant(Unwrap(NestedRingsInstance(12)))),
        Unwrap(ComputeInvariant(Unwrap(NestedRingsInstance(12)))));
  }
}

void ReportBatch() {
  const int batch = SmokeMode() ? 4 : 32;
  const int size = SmokeMode() ? 4 : 12;
  bench::Header("BatchComputeInvariants: thread scaling");
  std::vector<SpatialInstance> instances;
  for (int seed = 1; seed <= batch; ++seed) {
    instances.push_back(Unwrap(RandomRectInstance(size, 12 * size, seed)));
  }
  std::printf("%-22s | %10s\n", "threads", "(ms)");
  for (int threads : {1, 2, 4, 8}) {
    BatchOptions options;
    options.num_threads = threads;
    const double ms = TimeMs([&] {
      auto results = BatchComputeInvariants(instances, options);
      for (const auto& result : results) bench::Check(result.status());
    });
    std::printf("%-22d | %10.2f\n", threads, ms);
  }
}

// Runs one instrumented batch (shared cache + registry), prints the
// per-stage breakdown, and honors TOPODB_METRICS_JSON=<path> by writing
// the JSON export there (CI archives it and validates the schema).
void ReportMetrics() {
  const int batch = SmokeMode() ? 4 : 16;
  const int size = SmokeMode() ? 4 : 12;
  bench::Header("Per-stage metrics: one instrumented batch (JSON exportable)");
  std::vector<SpatialInstance> instances;
  for (int seed = 1; seed <= batch; ++seed) {
    instances.push_back(Unwrap(RandomRectInstance(size, 12 * size, seed)));
  }
  // Duplicate the batch so the cache sees hits, not just misses.
  const size_t unique = instances.size();
  for (size_t i = 0; i < unique; ++i) instances.push_back(instances[i]);

  MetricsRegistry registry;
  InvariantCache cache;
  BatchOptions options;
  options.num_threads = 1;
  options.cache = &cache;
  options.metrics = &registry;
  auto results = BatchComputeInvariants(instances, options);
  for (const auto& result : results) bench::Check(result.status());
  std::fputs(registry.ExportText().c_str(), stdout);

  if (const char* path = std::getenv("TOPODB_METRICS_JSON");
      path != nullptr && path[0] != '\0') {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write TOPODB_METRICS_JSON=%s\n", path);
      std::exit(1);
    }
    const std::string json = registry.ExportJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("metrics JSON written to %s\n", path);
  }
}

// The acceptance bar for the observability layer: with a null registry
// the instrumented batch path must cost < 1% over the pre-metrics code.
// (Wall-clock comparison of the same workload with metrics off vs on
// shows both the disabled overhead and the enabled cost.)
void ReportMetricsOverhead() {
  const int batch = SmokeMode() ? 4 : 24;
  const int size = SmokeMode() ? 4 : 12;
  bench::Header("Metrics overhead: BatchComputeInvariants, off vs on");
  std::vector<SpatialInstance> instances;
  for (int seed = 1; seed <= batch; ++seed) {
    instances.push_back(Unwrap(RandomRectInstance(size, 12 * size, seed)));
  }
  const int reps = SmokeMode() ? 1 : 5;
  auto run = [&](MetricsRegistry* registry) {
    double best = 0;
    for (int rep = 0; rep < reps; ++rep) {
      BatchOptions options;
      options.num_threads = 1;
      options.metrics = registry;
      const auto t0 = std::chrono::steady_clock::now();
      auto results = BatchComputeInvariants(instances, options);
      const auto t1 = std::chrono::steady_clock::now();
      for (const auto& result : results) bench::Check(result.status());
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (rep == 0 || ms < best) best = ms;
    }
    return best;
  };
  const double off = run(nullptr);
  MetricsRegistry registry;
  const double on = run(&registry);
  std::printf("%-22s | %10.2f ms\n", "metrics off (null)", off);
  std::printf("%-22s | %10.2f ms  (%+.2f%%)\n", "metrics on", on,
              off > 0 ? 100.0 * (on - off) / off : 0.0);
}

void BM_ArrangementAllPairs(benchmark::State& state) {
  SpatialInstance instance = Unwrap(
      RandomRectInstance(static_cast<int>(state.range(0)),
                         12 * state.range(0), 42));
  for (auto _ : state) BuildWith(instance, BroadPhase::kAllPairs);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ArrangementAllPairs)->RangeMultiplier(2)->Range(16, 128)
    ->Complexity();

void BM_ArrangementGrid(benchmark::State& state) {
  SpatialInstance instance = Unwrap(
      RandomRectInstance(static_cast<int>(state.range(0)),
                         12 * state.range(0), 42));
  for (auto _ : state) BuildWith(instance, BroadPhase::kGrid);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ArrangementGrid)->RangeMultiplier(2)->Range(16, 128)
    ->Complexity();

void BM_IsomorphicUncached(benchmark::State& state) {
  InvariantData data = Unwrap(ComputeInvariant(Unwrap(CombInstance(8))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(Isomorphic(data, data)));
  }
}
BENCHMARK(BM_IsomorphicUncached);

void BM_IsomorphicCached(benchmark::State& state) {
  InvariantData data = Unwrap(ComputeInvariant(Unwrap(CombInstance(8))));
  InvariantCache cache;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(cache.Isomorphic(data, data)));
  }
}
BENCHMARK(BM_IsomorphicCached);

void BM_BatchThreads(benchmark::State& state) {
  std::vector<SpatialInstance> instances;
  for (int seed = 1; seed <= 16; ++seed) {
    instances.push_back(Unwrap(RandomRectInstance(8, 96, seed)));
  }
  BatchOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto results = BatchComputeInvariants(instances, options);
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_BatchThreads)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace topodb

int main(int argc, char** argv) {
  topodb::ReportBroadPhase();
  topodb::ReportPredicateFilter();
  topodb::ReportCache();
  topodb::ReportBatch();
  topodb::ReportMetrics();
  topodb::ReportMetricsOverhead();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
