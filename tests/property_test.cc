// Property suites over randomized workloads: the cross-module invariants
// that must hold for every instance, swept over seeds and generator
// families with parameterized gtest.

#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "src/arrangement/cell_complex.h"
#include "src/embed/embed.h"
#include "src/fourint/four_intersection.h"
#include "src/geom/predicates.h"
#include "src/invariant/canonical.h"
#include "src/invariant/validate.h"
#include "src/pipeline/invariant_cache.h"
#include "src/query/eval.h"
#include "src/region/transform.h"
#include "src/thematic/thematic.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

// --- Random rectangle instances, parameterized by (seed, size). ---

class RandomInstanceProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  SpatialInstance Instance() const {
    auto [seed, size] = GetParam();
    return *RandomRectInstance(size, 50, static_cast<uint64_t>(seed));
  }
};

TEST_P(RandomInstanceProperty, InvariantValidates) {
  InvariantData data = *ComputeInvariant(Instance());
  EXPECT_TRUE(ValidateInvariant(data).ok()) << data.DebugString();
}

TEST_P(RandomInstanceProperty, EulerPerComponent) {
  InvariantData data = *ComputeInvariant(Instance());
  std::vector<int> cycle_of_dart, reps;
  data.ComputeCycles(&cycle_of_dart, &reps);
  const std::vector<int> comp = data.VertexComponents();
  const int num_comps = data.ComponentCount();
  std::vector<int> v(num_comps, 0), e(num_comps, 0), c(num_comps, 0);
  for (size_t i = 0; i < data.vertices.size(); ++i) ++v[comp[i]];
  for (const auto& edge : data.edges) ++e[comp[edge.v1]];
  for (int rep : reps) ++c[comp[data.Origin(rep)]];
  for (int k = 0; k < num_comps; ++k) {
    EXPECT_EQ(c[k], e[k] - v[k] + 2);
  }
}

TEST_P(RandomInstanceProperty, ThematicRoundTrip) {
  InvariantData data = *ComputeInvariant(Instance());
  Result<InvariantData> back = FromThematic(ToThematic(data));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(*Isomorphic(data, *back));
}

TEST_P(RandomInstanceProperty, AffineAndMirrorInvariance) {
  SpatialInstance instance = Instance();
  InvariantData original = *ComputeInvariant(instance);
  AffineTransform affine = *AffineTransform::Make(3, 1, -7, 1, 2, 4);
  Result<SpatialInstance> moved = affine.ApplyToInstance(instance);
  ASSERT_TRUE(moved.ok());
  EXPECT_TRUE(*Isomorphic(original, *ComputeInvariant(*moved)));
  Result<SpatialInstance> mirrored =
      AffineTransform::MirrorX().ApplyToInstance(instance);
  ASSERT_TRUE(mirrored.ok());
  EXPECT_TRUE(*Isomorphic(original, *ComputeInvariant(*mirrored)));
}

TEST_P(RandomInstanceProperty, GridAndAllPairsArrangementsAgree) {
  SpatialInstance instance = Instance();
  ArrangementOptions grid;
  ArrangementOptions all_pairs;
  all_pairs.broad_phase = BroadPhase::kAllPairs;
  Result<CellComplex> with_grid = CellComplex::Build(instance, grid);
  Result<CellComplex> with_all_pairs = CellComplex::Build(instance, all_pairs);
  ASSERT_TRUE(with_grid.ok());
  ASSERT_TRUE(with_all_pairs.ok());
  // The broad phases must produce identical complexes cell by cell; the
  // debug dump covers vertices, edges, faces, labels and incidences.
  EXPECT_EQ(with_grid->DebugString(), with_all_pairs->DebugString());
}

TEST_P(RandomInstanceProperty, FilteredAndExactArrangementsAreIdentical) {
  // The acceptance bar for the predicate filter (src/geom/predicates.h): a
  // filter stage may only answer "uncertain", never a wrong sign, so the
  // filtered build must be byte-for-byte the exact-rational build — same
  // node numbering, same subsegments, same labels, same face structure.
  SpatialInstance instance = Instance();
  Result<CellComplex> with_filter = CellComplex::Build(instance);
  Result<CellComplex> with_exact = [&] {
    ScopedPredicateMode exact(PredicateMode::kExact);
    return CellComplex::Build(instance);
  }();
  ASSERT_TRUE(with_filter.ok());
  ASSERT_TRUE(with_exact.ok());
  EXPECT_EQ(with_filter->DebugString(), with_exact->DebugString());
}

TEST_P(RandomInstanceProperty, CachedCanonicalAgreesWithUncached) {
  InvariantData data = *ComputeInvariant(Instance());
  InvariantCache cache;
  Result<std::string> direct = CanonicalInvariantString(data);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(*cache.Canonical(data), *direct);  // Cold: computes.
  EXPECT_EQ(*cache.Canonical(data), *direct);  // Warm: cache hit.
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_P(RandomInstanceProperty, FourIntInverseConsistency) {
  SpatialInstance instance = Instance();
  const auto names = instance.names();
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      Result<FourIntRelation> fwd = Relate(instance, names[i], names[j]);
      Result<FourIntRelation> bwd = Relate(instance, names[j], names[i]);
      ASSERT_TRUE(fwd.ok());
      ASSERT_TRUE(bwd.ok());
      EXPECT_EQ(Inverse(*fwd), *bwd);
    }
  }
}

TEST_P(RandomInstanceProperty, FourIntAgreesWithQueryAtoms) {
  // The relation computed from labels must agree with the query-language
  // atom of the same name.
  SpatialInstance instance = Instance();
  Result<QueryEngine> engine = QueryEngine::Build(instance);
  ASSERT_TRUE(engine.ok());
  const auto names = instance.names();
  for (size_t i = 0; i < names.size(); ++i) {
    for (size_t j = i + 1; j < names.size(); ++j) {
      FourIntRelation r = *Relate(instance, names[i], names[j]);
      std::string atom = std::string(FourIntRelationName(r)) + "(" +
                         names[i] + ", " + names[j] + ")";
      EXPECT_TRUE(*engine->Evaluate(atom)) << atom;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomInstanceProperty,
    ::testing::Combine(::testing::Range(1, 9), ::testing::Values(3, 5, 7)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// --- Generator families, parameterized by size. ---

class CombFamilyProperty : public ::testing::TestWithParam<int> {};

TEST_P(CombFamilyProperty, CellCountsAreLinear) {
  const int teeth = GetParam();
  InvariantData data = *ComputeInvariant(*CombInstance(teeth));
  EXPECT_EQ(data.vertices.size(), 2u * teeth);
  EXPECT_EQ(data.edges.size(), 4u * teeth);
  EXPECT_EQ(data.faces.size(), 2u * teeth + 2);
}

TEST_P(CombFamilyProperty, TeethCountIsInvariant) {
  const int teeth = GetParam();
  InvariantData a = *ComputeInvariant(*CombInstance(teeth));
  InvariantData b = *ComputeInvariant(*CombInstance(teeth + 1));
  EXPECT_FALSE(*Isomorphic(a, b));
  EXPECT_TRUE(*Isomorphic(a, *ComputeInvariant(*CombInstance(teeth))));
}

TEST_P(CombFamilyProperty, EmbedRoundTrip) {
  const int teeth = GetParam();
  InvariantData data = *ComputeInvariant(*CombInstance(teeth));
  Result<SpatialInstance> rebuilt = ReconstructPolyInstance(data);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(*Isomorphic(data, *ComputeInvariant(*rebuilt)));
}

INSTANTIATE_TEST_SUITE_P(Teeth, CombFamilyProperty,
                         ::testing::Values(1, 2, 3, 4, 6));

class NestedFamilyProperty : public ::testing::TestWithParam<int> {};

TEST_P(NestedFamilyProperty, ContainmentChainDepth) {
  const int depth = GetParam();
  InvariantData data = *ComputeInvariant(*NestedRingsInstance(depth));
  EXPECT_EQ(data.ComponentCount(), depth);
  EXPECT_TRUE(ValidateInvariant(data).ok());
  // Depth is a topological invariant of the family.
  InvariantData deeper = *ComputeInvariant(*NestedRingsInstance(depth + 1));
  EXPECT_FALSE(*Isomorphic(data, deeper));
}

TEST_P(NestedFamilyProperty, EmbedRoundTrip) {
  const int depth = GetParam();
  InvariantData data = *ComputeInvariant(*NestedRingsInstance(depth));
  Result<SpatialInstance> rebuilt = ReconstructPolyInstance(data);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(*Isomorphic(data, *ComputeInvariant(*rebuilt)));
}

INSTANTIATE_TEST_SUITE_P(Depth, NestedFamilyProperty,
                         ::testing::Values(1, 2, 3, 5));

// --- Random-instance embed round trips (small sizes). ---

class EmbedRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(EmbedRoundTripProperty, RandomInstances) {
  SpatialInstance instance =
      *RandomRectInstance(4, 40, static_cast<uint64_t>(GetParam()));
  InvariantData data = *ComputeInvariant(instance);
  Result<SpatialInstance> rebuilt = ReconstructPolyInstance(data);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(*Isomorphic(data, *ComputeInvariant(*rebuilt)))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbedRoundTripProperty,
                         ::testing::Range(1, 13));

// Filtered == exact differential across the structured generator families,
// whose degeneracies (shared corners, T-joints, collinear overlaps) differ
// from the random rectangles covered by RandomInstanceProperty.
TEST(FilteredExactDifferentialTest, GeneratorFamilies) {
  const SpatialInstance instances[] = {
      *ChainInstance(12),      *RectGridInstance(3, 4), *CombInstance(4),
      *FlowerInstance(5),      *NestedRingsInstance(3),
      *RandomRectInstance(10, 1'000'000'000'000, 99),  // 40-bit coordinates.
  };
  for (const SpatialInstance& instance : instances) {
    Result<CellComplex> with_filter = CellComplex::Build(instance);
    Result<CellComplex> with_exact = [&] {
      ScopedPredicateMode exact(PredicateMode::kExact);
      return CellComplex::Build(instance);
    }();
    ASSERT_TRUE(with_filter.ok());
    ASSERT_TRUE(with_exact.ok());
    EXPECT_EQ(with_filter->DebugString(), with_exact->DebugString());
  }
}

}  // namespace
}  // namespace topodb
