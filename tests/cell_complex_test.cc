#include "src/arrangement/cell_complex.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/geom/predicates.h"
#include "src/region/fixtures.h"
#include "src/region/transform.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

// Multiset of face label strings, e.g. {"--", "o-", "-o", "oo"}.
std::multiset<std::string> FaceLabels(const CellComplex& complex) {
  std::multiset<std::string> labels;
  for (const auto& face : complex.faces()) {
    labels.insert(LabelString(face.label));
  }
  return labels;
}

// Checks structural invariants every cell complex must satisfy.
void CheckWellFormed(const CellComplex& complex) {
  const auto& darts = complex.darts();
  ASSERT_EQ(darts.size(), 2 * complex.edges().size());
  for (size_t d = 0; d < darts.size(); ++d) {
    EXPECT_EQ(darts[darts[d].twin].twin, static_cast<int>(d));
    EXPECT_NE(darts[d].face, -1);
    EXPECT_EQ(darts[darts[d].next_ccw].prev_ccw, static_cast<int>(d));
    // Face walk is a permutation cycle.
    EXPECT_EQ(darts[darts[d].next_in_face].face, darts[d].face);
  }
  // Each vertex's rotation covers exactly its darts.
  size_t dart_count = 0;
  for (const auto& vertex : complex.vertices()) {
    dart_count += vertex.darts.size();
    for (int d : vertex.darts) {
      EXPECT_EQ(darts[d].origin,
                static_cast<int>(&vertex - complex.vertices().data()));
    }
  }
  EXPECT_EQ(dart_count, darts.size());
  // Exactly one unbounded face, and it is the exterior face.
  int unbounded = 0;
  for (const auto& face : complex.faces()) {
    if (face.unbounded) ++unbounded;
  }
  EXPECT_EQ(unbounded, 1);
  EXPECT_TRUE(complex.faces()[complex.exterior_face()].unbounded);
  // Exterior face labeled all-exterior.
  for (Sign s : complex.faces()[complex.exterior_face()].label) {
    EXPECT_EQ(s, Sign::kExterior);
  }
  // Labels of the two faces across an edge differ exactly on the owners.
  for (size_t e = 0; e < complex.edges().size(); ++e) {
    auto [lf, rf] = complex.EdgeFaces(static_cast<int>(e));
    const auto& left = complex.faces()[lf].label;
    const auto& right = complex.faces()[rf].label;
    const auto& owners = complex.edges()[e].owners;
    for (size_t r = 0; r < left.size(); ++r) {
      const bool owned =
          std::find(owners.begin(), owners.end(), static_cast<int>(r)) !=
          owners.end();
      EXPECT_EQ(left[r] != right[r], owned);
    }
  }
}

TEST(CellComplexTest, EmptyInstance) {
  Result<CellComplex> complex = CellComplex::Build(SpatialInstance());
  ASSERT_TRUE(complex.ok());
  EXPECT_EQ(complex->vertices().size(), 0u);
  EXPECT_EQ(complex->edges().size(), 0u);
  EXPECT_EQ(complex->faces().size(), 1u);
  EXPECT_EQ(complex->exterior_face(), 0);
}

TEST(CellComplexTest, SingleRegionDegenerate) {
  // The paper's degenerate case: one region. We anchor the vertex-free
  // boundary cycle with one artificial vertex, giving 1 vertex, 1 loop
  // edge, 2 faces.
  Result<CellComplex> complex = CellComplex::Build(SingleRegionInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 1u);
  EXPECT_EQ(complex->edges().size(), 1u);
  EXPECT_EQ(complex->faces().size(), 2u);
  EXPECT_TRUE(complex->IsConnected());
  EXPECT_TRUE(complex->IsSimple());
  EXPECT_EQ(FaceLabels(*complex), (std::multiset<std::string>{"-", "o"}));
  // Loop edge: both endpoints are the anchor vertex.
  auto [u, v] = complex->EdgeEndpoints(0);
  EXPECT_EQ(u, v);
  EXPECT_EQ(LabelString(complex->edges()[0].label), "b");
  EXPECT_EQ(LabelString(complex->vertices()[0].label), "b");
}

TEST(CellComplexTest, Fig1cMatchesFig5) {
  // The paper's Fig 5: instance Fig 1c has two vertices, four edges, four
  // faces.
  Result<CellComplex> complex = CellComplex::Build(Fig1cInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 2u);
  EXPECT_EQ(complex->edges().size(), 4u);
  EXPECT_EQ(complex->faces().size(), 4u);
  EXPECT_TRUE(complex->IsConnected());
  EXPECT_TRUE(complex->IsSimple());
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "o-", "-o", "oo"}));
  // Vertices are the two boundary crossings, labeled boundary-boundary.
  for (const auto& vertex : complex->vertices()) {
    EXPECT_EQ(LabelString(vertex.label), "bb");
    EXPECT_EQ(vertex.darts.size(), 4u);
  }
  // Edge labels: each boundary is split into an arc inside and an arc
  // outside the other region.
  std::multiset<std::string> edge_labels;
  for (const auto& edge : complex->edges()) {
    edge_labels.insert(LabelString(edge.label));
  }
  EXPECT_EQ(edge_labels,
            (std::multiset<std::string>{"b-", "bo", "-b", "ob"}));
}

TEST(CellComplexTest, Fig1dHasPocket) {
  Result<CellComplex> complex = CellComplex::Build(Fig1dInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 4u);
  EXPECT_EQ(complex->edges().size(), 8u);
  EXPECT_EQ(complex->faces().size(), 6u);
  EXPECT_TRUE(complex->IsConnected());
  // Two faces labeled exterior-to-all: the unbounded face and the pocket.
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "--", "o-", "-o", "oo", "oo"}));
  // The exterior face is determined by unboundedness, not by its label.
  int all_minus = 0;
  for (const auto& face : complex->faces()) {
    if (LabelString(face.label) == "--") ++all_minus;
  }
  EXPECT_EQ(all_minus, 2);
}

TEST(CellComplexTest, Fig1aTripleOverlay) {
  Result<CellComplex> complex = CellComplex::Build(Fig1aInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 6u);
  EXPECT_EQ(complex->edges().size(), 12u);
  EXPECT_EQ(complex->faces().size(), 8u);
  // All eight label combinations occur: the instance realizes the full
  // Venn diagram of three regions.
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"---", "o--", "-o-", "--o", "oo-",
                                        "o-o", "-oo", "ooo"}));
}

TEST(CellComplexTest, Fig1bNoTripleFace) {
  Result<CellComplex> complex = CellComplex::Build(Fig1bInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_TRUE(complex->IsConnected());
  // Euler's formula for connected instances.
  EXPECT_EQ(complex->faces().size(),
            complex->edges().size() - complex->vertices().size() + 2);
  // No face is interior to all three regions, but every pairwise
  // combination occurs.
  std::multiset<std::string> labels = FaceLabels(*complex);
  EXPECT_EQ(labels.count("ooo"), 0u);
  EXPECT_GE(labels.count("oo-"), 1u);
  EXPECT_GE(labels.count("o-o"), 1u);
  EXPECT_GE(labels.count("-oo"), 1u);
}

TEST(CellComplexTest, NestedInstanceContainment) {
  Result<CellComplex> complex = CellComplex::Build(NestedInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 2u);  // Two anchors.
  EXPECT_EQ(complex->edges().size(), 2u);
  EXPECT_EQ(complex->faces().size(), 3u);
  EXPECT_FALSE(complex->IsConnected());
  EXPECT_EQ(complex->SkeletonComponentCount(), 2);
  EXPECT_FALSE(complex->IsSimple());
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "o-", "oo"}));
  // The ring face (A interior, B exterior) has two boundary cycles.
  for (const auto& face : complex->faces()) {
    if (LabelString(face.label) == "o-") {
      EXPECT_EQ(face.cycle_darts.size(), 2u);
    } else {
      EXPECT_EQ(face.cycle_darts.size(), 1u);
    }
  }
}

TEST(CellComplexTest, DisjointPair) {
  Result<CellComplex> complex = CellComplex::Build(DisjointPairInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->SkeletonComponentCount(), 2);
  EXPECT_EQ(complex->faces().size(), 3u);
  // The unbounded face has both hole cycles.
  EXPECT_EQ(complex->faces()[complex->exterior_face()].cycle_darts.size(),
            2u);
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "o-", "-o"}));
}

TEST(CellComplexTest, Fig7bTangentDiamonds) {
  Result<CellComplex> complex = CellComplex::Build(Fig7bInstance());
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 1u);
  EXPECT_EQ(complex->edges().size(), 4u);
  EXPECT_EQ(complex->faces().size(), 5u);
  EXPECT_TRUE(complex->IsConnected());
  EXPECT_FALSE(complex->IsSimple());  // Exterior boundary pinches 4 times.
  EXPECT_EQ(complex->vertices()[0].darts.size(), 8u);
  EXPECT_EQ(LabelString(complex->vertices()[0].label), "bbbb");
  // All four edges are loops at the origin vertex.
  for (size_t e = 0; e < 4; ++e) {
    auto [u, v] = complex->EdgeEndpoints(static_cast<int>(e));
    EXPECT_EQ(u, 0);
    EXPECT_EQ(v, 0);
  }
}

TEST(CellComplexTest, Fig7aTwoComponents) {
  Result<CellComplex> i = CellComplex::Build(Fig7aInstance());
  Result<CellComplex> ip = CellComplex::Build(Fig7aPrimeInstance());
  ASSERT_TRUE(i.ok());
  ASSERT_TRUE(ip.ok());
  CheckWellFormed(*i);
  CheckWellFormed(*ip);
  EXPECT_EQ(i->SkeletonComponentCount(), 2);
  EXPECT_EQ(ip->SkeletonComponentCount(), 2);
  // Mirroring preserves all counts and labels.
  EXPECT_EQ(i->vertices().size(), ip->vertices().size());
  EXPECT_EQ(i->edges().size(), ip->edges().size());
  EXPECT_EQ(i->faces().size(), ip->faces().size());
  EXPECT_EQ(FaceLabels(*i), FaceLabels(*ip));
}

TEST(CellComplexTest, SharedBoundaryArc) {
  // Two rectangles sharing a boundary segment: the shared arc is one edge
  // owned by both regions (meet relation).
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(4, 4)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("B", *Region::MakeRect(Point(4, 1), Point(8, 3)))
                  .ok());
  Result<CellComplex> complex = CellComplex::Build(instance);
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  // One edge owned by both regions.
  int shared = 0;
  for (const auto& edge : complex->edges()) {
    if (edge.owners.size() == 2) {
      ++shared;
      EXPECT_EQ(LabelString(edge.label), "bb");
    }
  }
  EXPECT_EQ(shared, 1);
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "o-", "-o"}));
  EXPECT_TRUE(complex->IsConnected());
}

TEST(CellComplexTest, CornerTouch) {
  // Two squares meeting at exactly one corner point.
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(2, 2)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("B", *Region::MakeRect(Point(2, 2), Point(4, 4)))
                  .ok());
  Result<CellComplex> complex = CellComplex::Build(instance);
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  EXPECT_EQ(complex->vertices().size(), 1u);
  EXPECT_EQ(complex->edges().size(), 2u);  // Two loops at the touch point.
  EXPECT_EQ(complex->faces().size(), 3u);
  EXPECT_EQ(LabelString(complex->vertices()[0].label), "bb");
}

TEST(CellComplexTest, TJunction) {
  // B's corner lies in the interior of A's edge: a degree-4 vertex whose
  // incident arcs have mixed owners, no crossing into A.
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(4, 4)))
                  .ok());
  ASSERT_TRUE(instance.AddRegion(
      "B", *Region::MakePoly({Point(4, 2), Point(7, 0), Point(7, 5)})).ok());
  Result<CellComplex> complex = CellComplex::Build(instance);
  ASSERT_TRUE(complex.ok());
  CheckWellFormed(*complex);
  // Vertex at (4,2).
  bool found = false;
  for (const auto& vertex : complex->vertices()) {
    if (vertex.point == Point(4, 2)) {
      found = true;
      EXPECT_EQ(vertex.darts.size(), 4u);
      EXPECT_EQ(LabelString(vertex.label), "bb");
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(FaceLabels(*complex),
            (std::multiset<std::string>{"--", "o-", "-o"}));
}

TEST(CellComplexTest, DebugStringMentionsCounts) {
  Result<CellComplex> complex = CellComplex::Build(Fig1cInstance());
  ASSERT_TRUE(complex.ok());
  std::string dump = complex->DebugString();
  EXPECT_NE(dump.find("2 vertices"), std::string::npos);
  EXPECT_NE(dump.find("4 edges"), std::string::npos);
  EXPECT_NE(dump.find("4 faces"), std::string::npos);
}

TEST(CellComplexTest, RegionIndexLookup) {
  Result<CellComplex> complex = CellComplex::Build(Fig1aInstance());
  ASSERT_TRUE(complex.ok());
  EXPECT_EQ(complex->region_index("A"), 0);
  EXPECT_EQ(complex->region_index("B"), 1);
  EXPECT_EQ(complex->region_index("C"), 2);
  EXPECT_EQ(complex->region_index("Z"), -1);
}

// Every coordinate times 2^64/3: numerators past the filter's
// exact-integer range, over a non-unit denominator.
SpatialInstance Stretched(const SpatialInstance& instance) {
  const Rational s(BigInt(1).ShiftLeft(64), BigInt(3));
  return *AffineTransform::Scale(s, s).ApplyToInstance(instance);
}

// A rational shear: no segment stays axis-parallel, and intersection
// points get non-trivial denominators.
SpatialInstance Sheared(const SpatialInstance& instance) {
  return *AffineTransform::Make(2, 1, 3, Rational(1, 3), 1, -2)
              ->ApplyToInstance(instance);
}

TEST(CellComplexTest, GoldenDebugStringDigest) {
  // Pins the overlay's output across commits: the FNV-1a-64 digest of the
  // concatenated DebugStrings (numbering, exact coordinates, labels) of a
  // fixed corpus, in both predicate modes. A change to the build that
  // renumbers a cell or moves a coordinate moves the digest.
  std::vector<SpatialInstance> corpus;
  for (const std::string& name : FixtureNames()) {
    corpus.push_back(*FixtureByName(name));
  }
  for (int n : {2, 8, 32}) corpus.push_back(*ChainInstance(n));
  for (int g : {3, 5}) corpus.push_back(*RectGridInstance(g, g));
  corpus.push_back(*RandomRectInstance(4, 48, 42));
  const SpatialInstance families[] = {
      *ChainInstance(8),       *RectGridInstance(3, 4),
      *NestedRingsInstance(6), *CombInstance(16),
      *FlowerInstance(16),     *RandomRectInstance(8, 96, 42),
      *RandomRectInstance(16, 192, 42), *RandomRectInstance(32, 384, 42),
      *RandomRectInstance(64, 768, 42)};
  for (const SpatialInstance& instance : families) {
    corpus.push_back(instance);
    corpus.push_back(Stretched(instance));
    corpus.push_back(Sheared(instance));
  }
  for (const PredicateMode mode :
       {PredicateMode::kFiltered, PredicateMode::kExact}) {
    ScopedPredicateMode scoped(mode);
    uint64_t digest = 0xcbf29ce484222325ULL;
    for (const SpatialInstance& instance : corpus) {
      Result<CellComplex> complex = CellComplex::Build(instance);
      ASSERT_TRUE(complex.ok());
      for (const unsigned char c : complex->DebugString()) {
        digest = (digest ^ c) * 0x100000001b3ULL;
      }
    }
    EXPECT_EQ(digest, 0x6ca4236d11e9d204ULL)
        << (mode == PredicateMode::kExact ? "exact" : "filtered") << " 0x"
        << std::hex << digest;
  }
}

TEST(CellComplexTest, FilteredAndExactBuildsAreBitIdentical) {
  // The predicate filter changes how a sign is decided, never which sign:
  // the filtered build and the pure exact-predicate build must produce the
  // same complex down to every rational coordinate (DebugString prints them
  // exactly). The crossing diagonals make intersection points with
  // non-trivial denominators; the copy scaled by 2^64/3 pushes every
  // coordinate past the filter's exact-integer range, so its collinear and
  // touching configurations reach the exact tier.
  const auto instance_at = [](const Rational& scale) {
    const auto p = [&](int64_t x, int64_t y) {
      return Point(Rational(x) * scale, Rational(y) * scale);
    };
    SpatialInstance instance;
    EXPECT_TRUE(
        instance.AddRegion("A", *Region::MakeRect(p(0, 0), p(7, 5))).ok());
    EXPECT_TRUE(instance
                    .AddRegion("B", *Region::MakePoly(
                                        {p(-2, -1), p(9, 4), p(3, 8)}))
                    .ok());
    EXPECT_TRUE(instance
                    .AddRegion("C", *Region::MakePoly(
                                        {p(1, 6), p(6, -2), p(8, 7)}))
                    .ok());
    EXPECT_TRUE(instance
                    .AddRegion("D", *Region::MakeRect(p(7, 0), p(9, 5)))
                    .ok());
    return instance;
  };
  const auto build = [](const SpatialInstance& instance, bool exact,
                        MetricsRegistry* metrics) {
    ScopedPredicateMode mode(exact ? PredicateMode::kExact
                                   : PredicateMode::kFiltered);
    ArrangementOptions options;
    options.metrics = metrics;
    Result<CellComplex> complex = CellComplex::Build(instance, options);
    EXPECT_TRUE(complex.ok());
    return complex->DebugString();
  };
  for (const Rational& scale :
       {Rational(1), Rational(BigInt(1).ShiftLeft(64), BigInt(3))}) {
    const SpatialInstance instance = instance_at(scale);
    MetricsRegistry metrics;
    const std::string filtered = build(instance, false, &metrics);
    EXPECT_EQ(filtered, build(instance, true, nullptr)) << scale.ToString();
    EXPECT_NE(filtered.find("vertices"), std::string::npos);
    EXPECT_GT(metrics.counter("predicates.static_hits")->value(), 0u);
    if (!scale.is_integer()) {
      EXPECT_GT(metrics.counter("predicates.exact_fallbacks")->value(), 0u);
    }
  }
  // Larger inputs: a stretched random-rect (cut points sorted past the
  // exact-integer range), a sheared one (no axis-parallel segment), and
  // nested rings, whose inner holes each lie inside two or more outer
  // cycles, so the build compares exact cycle areas.
  const SpatialInstance random = *RandomRectInstance(24, 288, 7);
  for (const SpatialInstance& instance :
       {Stretched(random), Sheared(random), *NestedRingsInstance(5)}) {
    EXPECT_EQ(build(instance, false, nullptr), build(instance, true, nullptr))
        << instance.names().front();
  }
}

}  // namespace
}  // namespace topodb
