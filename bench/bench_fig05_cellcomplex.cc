// Reproduces Fig 5 / Example 3.1 (the cell complex of Fig 1c) and the
// polynomial-time claim of Theorem 3.5: cell counts and build time as the
// instance grows. Ablation: the cost of exactness — build time as input
// coordinates grow from single-limb to multi-limb rationals.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/topodb.h"

namespace topodb {
namespace {

using bench::Unwrap;

void ReportFig5() {
  bench::Header("Fig 5 / Ex 3.1: the cell complex of instance Fig 1c");
  CellComplex complex = Unwrap(CellComplex::Build(Fig1cInstance()));
  std::printf("%s", complex.DebugString().c_str());
  std::printf("(paper: two vertices v1, v2; four edges e1..e4; faces f0..f3 "
              "with f0 exterior)\n");

  bench::Header("Theorem 3.5 (PTIME): cells vs instance size");
  std::printf("%-22s | %8s | %8s | %8s | %8s\n", "workload", "regions",
              "vertices", "edges", "faces");
  for (int n : {2, 4, 8, 16, 32}) {
    CellComplex chain = Unwrap(CellComplex::Build(Unwrap(ChainInstance(n))));
    std::printf("chain(%2d)              | %8d | %8zu | %8zu | %8zu\n", n, n,
                chain.vertices().size(), chain.edges().size(),
                chain.faces().size());
  }
  for (int g : {2, 3, 4, 5}) {
    CellComplex grid =
        Unwrap(CellComplex::Build(Unwrap(RectGridInstance(g, g))));
    std::printf("grid(%dx%d)              | %8d | %8zu | %8zu | %8zu\n", g, g,
                g * g, grid.vertices().size(), grid.edges().size(),
                grid.faces().size());
  }
}

// Filtered vs pure-rational predicates on the Fig-5 workloads plus the
// multi-limb stretch from the exactness ablation — the adversarial case for
// the static filter stage, since the stretched coordinates fall far outside
// the exact-small-integer range, so no zero can be certified in doubles
// and every collinear configuration goes to the exact tier.
void ReportPredicateFilter() {
  bench::PredicateFilterReport report("bench_fig05_cellcomplex");
  report.Row("chain(32)", Unwrap(ChainInstance(32)));
  report.Row("grid(5x5)", Unwrap(RectGridInstance(5, 5)));
  report.Row("random-rect(32)", Unwrap(RandomRectInstance(32, 80, 11)));
  BigInt factor(1);
  for (int i = 0; i < 96; ++i) factor = factor * BigInt(2);
  AffineTransform stretch = Unwrap(AffineTransform::Make(
      Rational(factor, BigInt(3)), 0, Rational(BigInt(7), factor), 0,
      Rational(factor, BigInt(5)), Rational(1, 3)));
  report.Row("stretch-96bit(chain 8)",
             Unwrap(stretch.ApplyToInstance(Unwrap(ChainInstance(8)))));
  report.WriteJsonIfRequested();
}

void BM_BuildChain(benchmark::State& state) {
  SpatialInstance instance = Unwrap(ChainInstance(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(CellComplex::Build(instance)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildChain)->RangeMultiplier(2)->Range(2, 64)->Complexity();

void BM_BuildGrid(benchmark::State& state) {
  const int g = static_cast<int>(state.range(0));
  SpatialInstance instance = Unwrap(RectGridInstance(g, g));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(CellComplex::Build(instance)));
  }
  state.SetComplexityN(g * g);
}
BENCHMARK(BM_BuildGrid)->DenseRange(2, 6, 1)->Complexity();

void BM_BuildRandom(benchmark::State& state) {
  SpatialInstance instance =
      Unwrap(RandomRectInstance(static_cast<int>(state.range(0)), 80, 11));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(CellComplex::Build(instance)));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildRandom)->RangeMultiplier(2)->Range(4, 32)->Complexity();

// Ablation: exact arithmetic cost as coordinate bit-length grows. The same
// chain topology with coordinates scaled by huge factors plus offsets that
// force multi-limb rationals throughout the overlay.
void BM_ExactnessAblation(benchmark::State& state) {
  const int64_t bits = state.range(0);
  SpatialInstance base = Unwrap(ChainInstance(8));
  BigInt factor(1);
  for (int64_t i = 0; i < bits; ++i) factor = factor * BigInt(2);
  AffineTransform stretch = Unwrap(AffineTransform::Make(
      Rational(factor, BigInt(3)), 0, Rational(BigInt(7), factor), 0,
      Rational(factor, BigInt(5)), Rational(1, 3)));
  SpatialInstance scaled = Unwrap(stretch.ApplyToInstance(base));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unwrap(CellComplex::Build(scaled)));
  }
  state.SetComplexityN(bits);
}
BENCHMARK(BM_ExactnessAblation)->DenseRange(8, 128, 40);

}  // namespace
}  // namespace topodb

int main(int argc, char** argv) {
  topodb::ReportFig5();
  topodb::ReportPredicateFilter();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
