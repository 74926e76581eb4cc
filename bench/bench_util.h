#ifndef TOPODB_BENCH_BENCH_UTIL_H_
#define TOPODB_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/arrangement/cell_complex.h"
#include "src/base/status.h"
#include "src/geom/predicates.h"
#include "src/obs/metrics.h"
#include "src/region/instance.h"

namespace topodb::bench {

// Aborts on error; benches run on known-good inputs.
template <typename T>
T Unwrap(Result<T> result) {
  if (!result.ok()) {
    std::cerr << "bench error: " << result.status().ToString() << "\n";
    std::abort();
  }
  return std::move(result).value();
}

inline void Check(const Status& status) {
  if (!status.ok()) {
    std::cerr << "bench error: " << status.ToString() << "\n";
    std::abort();
  }
}

// Emphasized section header for the paper-row report that precedes the
// google-benchmark timings.
inline void Header(const char* title) {
  std::cout << "\n=== " << title << " ===\n";
}

// Filtered-vs-exact predicate comparison shared by the arrangement benches:
// times CellComplex construction with the semi-static double filter on and
// off (both settings build bit-identical complexes), collects the
// predicates.{static_hits,exact_fallbacks} counters of one filtered build,
// and writes the rows as JSON artifacts on request (WriteJsonIfRequested;
// CI archives and validates them, and full runs are checked in as
// BENCH_predicates.json and BENCH_exact_arith.json).
class PredicateFilterReport {
 public:
  explicit PredicateFilterReport(const char* bench_name)
      : bench_name_(bench_name) {
    Header("Predicate filter: pure-rational vs filtered arrangement build");
    std::printf("%-22s | %10s | %10s | %7s | %s\n", "workload", "exact",
                "filtered", "speedup",
                "hits static/exact");
    std::printf("%-22s | %10s | %10s | %7s |\n", "", "(ms)", "(ms)", "");
  }

  void Row(const std::string& name, const SpatialInstance& instance) {
    auto time_build = [&](bool exact) {
      ScopedPredicateMode mode(exact ? PredicateMode::kExact
                                     : PredicateMode::kFiltered);
      // Minimum over adaptively many reps: sub-5ms builds are smaller than
      // a scheduler tick, so keep repeating until ~20ms of samples have
      // accumulated (two reps suffice for the big rows). The minimum is the
      // build's true cost; everything above it is preemption.
      double best = 0;
      double total = 0;
      for (int rep = 0; rep < 32 && (rep < 2 || total < 20.0); ++rep) {
        const auto t0 = std::chrono::steady_clock::now();
        Unwrap(CellComplex::Build(instance));
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || ms < best) best = ms;
        total += ms;
      }
      return best;
    };
    // The filter changes how a sign is decided, never which: a row whose
    // two builds differ would time two different complexes.
    std::string dumps[2];
    for (const bool exact : {false, true}) {
      ScopedPredicateMode mode(exact ? PredicateMode::kExact
                                     : PredicateMode::kFiltered);
      dumps[exact] = Unwrap(CellComplex::Build(instance)).DebugString();
    }
    if (dumps[0] != dumps[1]) {
      std::fprintf(stderr, "%s: filtered and exact builds differ\n",
                   name.c_str());
      std::abort();
    }
    Entry e;
    e.name = name;
    e.exact_ms = time_build(true);
    e.filtered_ms = time_build(false);
    MetricsRegistry registry;
    ArrangementOptions counted;
    counted.metrics = &registry;
    Unwrap(CellComplex::Build(instance, counted));
    e.static_hits = registry.counter("predicates.static_hits")->value();
    e.exact_fallbacks =
        registry.counter("predicates.exact_fallbacks")->value();
    std::printf("%-22s | %10.2f | %10.2f | %6.1fx | %llu/%llu\n",
                e.name.c_str(), e.exact_ms, e.filtered_ms,
                e.filtered_ms > 0 ? e.exact_ms / e.filtered_ms : 0.0,
                static_cast<unsigned long long>(e.static_hits),
                static_cast<unsigned long long>(e.exact_fallbacks));
    entries_.push_back(std::move(e));
  }

  // Writes the rows as topodb.bench_predicates.v1 to
  // $TOPODB_BENCH_PREDICATES_JSON and as topodb.bench_exact_arith.v1 to
  // $TOPODB_BENCH_EXACT_ARITH_JSON, each only when its variable is set. The
  // filtered timings of the second are what ci/check_bench_exact_arith.py
  // holds against the baseline's (>=2x on stretch-* rows, >=1.5x elsewhere).
  void WriteJsonIfRequested() const {
    WriteRows("TOPODB_BENCH_PREDICATES_JSON", "topodb.bench_predicates.v1",
              "predicate");
    WriteRows("TOPODB_BENCH_EXACT_ARITH_JSON", "topodb.bench_exact_arith.v1",
              "exact-arith");
  }

 private:
  void WriteRows(const char* env, const char* schema, const char* what) const {
    const char* path = std::getenv(env);
    if (path == nullptr || path[0] == '\0') return;
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s=%s\n", env, path);
      std::exit(1);
    }
    std::fprintf(f, "{\n  \"schema\": \"%s\",\n", schema);
    std::fprintf(f, "  \"bench\": \"%s\",\n  \"workloads\": [", bench_name_);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(
          f,
          "%s\n    {\"name\": \"%s\", \"exact_ms\": %.3f, "
          "\"filtered_ms\": %.3f, \"speedup\": %.2f, \"static_hits\": %llu, "
          "\"exact_fallbacks\": %llu}",
          i ? "," : "", e.name.c_str(), e.exact_ms, e.filtered_ms,
          e.filtered_ms > 0 ? e.exact_ms / e.filtered_ms : 0.0,
          static_cast<unsigned long long>(e.static_hits),
          static_cast<unsigned long long>(e.exact_fallbacks));
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("%s bench JSON written to %s\n", what, path);
  }

  struct Entry {
    std::string name;
    double exact_ms = 0;
    double filtered_ms = 0;
    uint64_t static_hits = 0;
    uint64_t exact_fallbacks = 0;
  };

  const char* bench_name_;
  std::vector<Entry> entries_;
};

}  // namespace topodb::bench

#endif  // TOPODB_BENCH_BENCH_UTIL_H_
