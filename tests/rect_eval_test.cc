#include "src/query/rect_eval.h"

#include <gtest/gtest.h>

#include "src/region/fixtures.h"

namespace topodb {
namespace {

SpatialInstance Rects(
    const std::vector<std::tuple<std::string, int64_t, int64_t, int64_t,
                                 int64_t>>& rects) {
  SpatialInstance instance;
  for (const auto& [name, x1, y1, x2, y2] : rects) {
    EXPECT_TRUE(instance
                    .AddRegion(name, *Region::MakeRect(Point(x1, y1),
                                                       Point(x2, y2)))
                    .ok());
  }
  return instance;
}

bool Ask(const SpatialInstance& instance, const std::string& query) {
  Result<RectQueryEngine> engine = RectQueryEngine::Build(instance);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  Result<bool> result = engine->Evaluate(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << " for " << query;
  return result.ok() && *result;
}

TEST(RectEvalTest, RequiresRectangles) {
  SpatialInstance poly;
  ASSERT_TRUE(poly.AddRegion("A", *Region::MakePoly({Point(0, 0), Point(4, 0),
                                                     Point(2, 3)}))
                  .ok());
  EXPECT_FALSE(RectQueryEngine::Build(poly).ok());
}

TEST(RectEvalTest, AtomicRelations) {
  SpatialInstance instance = Rects({{"A", 0, 0, 4, 4},
                                    {"B", 2, 2, 6, 6},
                                    {"C", 10, 0, 12, 2},
                                    {"D", 4, 0, 8, 4},
                                    {"E", 1, 1, 3, 3}});
  EXPECT_TRUE(Ask(instance, "overlap(A, B)"));
  EXPECT_TRUE(Ask(instance, "disjoint(A, C)"));
  EXPECT_TRUE(Ask(instance, "meet(A, D)"));
  EXPECT_TRUE(Ask(instance, "contains(A, E)"));
  EXPECT_TRUE(Ask(instance, "inside(E, A)"));
  EXPECT_FALSE(Ask(instance, "overlap(A, E)"));
}

TEST(RectEvalTest, RectQuantifierFindsWitness) {
  SpatialInstance instance = Rects({{"A", 0, 0, 4, 4}, {"B", 8, 0, 12, 4}});
  // A rectangle overlapping both disjoint rectangles exists.
  EXPECT_TRUE(Ask(instance, "exists rect r . overlap(r, A) and overlap(r, B)"));
  // But none is inside both.
  EXPECT_FALSE(
      Ask(instance, "exists rect r . inside(r, A) and inside(r, B)"));
}

TEST(RectEvalTest, IsRectOf4CornersStyle) {
  // Theorem 4.4's (-) flavour: a rectangle admits 4 pairwise disjoint
  // corner-meeting rectangles but not 5.
  SpatialInstance instance = Rects({{"A", 0, 0, 4, 4}});
  const char* four =
      "exists rect p . exists rect q . exists rect r . exists rect s . "
      "meet(p, A) and meet(q, A) and meet(r, A) and meet(s, A) and "
      "disjoint(p, q) and disjoint(p, r) and disjoint(p, s) and "
      "disjoint(q, r) and disjoint(q, s) and disjoint(r, s) and "
      "connect(p, q) and false or true";
  // (The full 5-corner impossibility is expensive; spot check existence.)
  EXPECT_TRUE(Ask(instance, four));
}

TEST(RectEvalTest, Fig13EdgeCornerOneEdge) {
  SpatialInstance instance = Rects({{"A", 0, 0, 4, 4},
                                    {"B", 4, 0, 8, 4},    // Full shared side.
                                    {"C", 4, 4, 8, 8},    // Corner with A.
                                    {"D", 4, 1, 8, 3},    // Partial side of A.
                                    {"E", 20, 20, 24, 24}});
  Result<RectQueryEngine> engine = RectQueryEngine::Build(instance);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(*engine->Edge("A", "B"));
  EXPECT_TRUE(*engine->OneEdge("A", "B"));
  EXPECT_TRUE(*engine->Edge("A", "D"));
  EXPECT_FALSE(*engine->OneEdge("A", "D"));
  EXPECT_FALSE(*engine->Edge("A", "C"));
  EXPECT_TRUE(*engine->Corner("A", "C"));
  EXPECT_FALSE(*engine->Corner("A", "B"));
  EXPECT_FALSE(*engine->Edge("A", "E"));
  EXPECT_FALSE(*engine->Corner("A", "E"));
}

TEST(RectEvalTest, Fig13EdgePredicateInTheLanguage) {
  // The paper's edge(r, r') with the containment guard: meet(r, r') and
  // some rect x overlaps both while staying within closure(r u r')
  // (expressed with a universal rect quantifier).
  SpatialInstance edge_contact = Rects({{"P", 0, 0, 4, 4}, {"Q", 4, 0, 8, 4}});
  SpatialInstance corner_contact =
      Rects({{"P", 0, 0, 4, 4}, {"Q", 4, 4, 8, 8}});
  const char* edge_query =
      "meet(P, Q) and exists rect x . overlap(x, P) and overlap(x, Q) and "
      "(forall rect q . connect(x, q) implies "
      "(connect(P, q) or connect(Q, q)))";
  EXPECT_TRUE(Ask(edge_contact, edge_query));
  EXPECT_FALSE(Ask(corner_contact, edge_query));
}

TEST(RectEvalTest, NameQuantifier) {
  SpatialInstance instance = Rects({{"A", 0, 0, 4, 4},
                                    {"B", 2, 2, 6, 6},
                                    {"C", 20, 0, 24, 4}});
  EXPECT_TRUE(Ask(instance,
                  "exists name a . exists name b . not (a = b) and "
                  "overlap(a, b)"));
  EXPECT_FALSE(Ask(instance, "forall name a . forall name b . "
                             "(not (a = b)) implies connect(a, b)"));
}

TEST(RectEvalTest, RegionQuantifierUnsupported) {
  SpatialInstance instance = Rects({{"A", 0, 0, 4, 4}});
  Result<RectQueryEngine> engine = RectQueryEngine::Build(instance);
  ASSERT_TRUE(engine.ok());
  Result<bool> result =
      engine->Evaluate("exists region r . connect(r, A)");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

TEST(RectEvalTest, SGenericityCheck) {
  // Theorem 5.8 flavor: stretching coordinates by a monotone map does not
  // change any query answer in this language.
  SpatialInstance base = Rects({{"A", 0, 0, 4, 4}, {"B", 3, 1, 9, 3}});
  SpatialInstance stretched = Rects({{"A", 0, 0, 100, 4}, {"B", 50, 1, 901, 3}});
  for (const char* query :
       {"overlap(A, B)", "exists rect r . inside(r, A) and inside(r, B)",
        "forall rect r . connect(r, A) implies connect(r, r)"}) {
    EXPECT_EQ(Ask(base, query), Ask(stretched, query)) << query;
  }
}

// A variable rebound inside its binder's body names the inner binding
// there and the outer one again once the inner quantifier closes, whatever
// the two binders' sorts, so a query gets the verdict of its rendering,
// which renames the inner variable.
TEST(RectEvalTest, RebindingANameShadowsItAcrossSorts) {
  using VarKind = Formula::VarKind;
  const Term v = Var("v");
  // An atom on v, plus a name equality where v is a name binder there.
  const auto use = [&](VarKind kind, Predicate p, const char* other,
                       const char* eq) {
    const FormulaPtr atom = MakeAtom(p, v, NameConstant(other));
    if (kind != VarKind::kName) return atom;
    return MakeOr(MakeNameEq(v, NameConstant(eq)), atom);
  };
  const auto expect_scoped = [](const RectQueryEngine& engine,
                                const FormulaPtr& query) {
    const std::string text = query->ToString();
    const Result<bool> want = engine.Evaluate(text);
    ASSERT_TRUE(want.ok()) << text << ": " << want.status().ToString();
    const Result<bool> got = engine.Evaluate(query);
    EXPECT_TRUE(got.ok() && *got == *want)
        << text << " should be " << *want << ", got "
        << (got.ok() ? (*got ? "true" : "false") : got.status().ToString());
  };
  // Small enough that a rect quantifier nested in another stays cheap.
  const RectQueryEngine small = *RectQueryEngine::Build(
      Rects({{"A", 0, 0, 2, 2}, {"B", 2, 0, 4, 2}}));
  int checked = 0;
  for (const VarKind outer : {VarKind::kRect, VarKind::kName}) {
    for (const VarKind inner : {VarKind::kRect, VarKind::kName}) {
      for (const Formula::Kind q :
           {Formula::Kind::kExists, Formula::Kind::kForall}) {
        const Formula::Kind dual = q == Formula::Kind::kExists
                                       ? Formula::Kind::kForall
                                       : Formula::Kind::kExists;
        const FormulaPtr inner_use = use(inner, Predicate::kSubset, "A", "B");
        // Q v . not (Q' v . inner-use) and outer-use, Q' the dual of Q.
        expect_scoped(
            small,
            MakeQuantifier(
                q, outer, "v",
                MakeAnd(MakeNot(MakeQuantifier(dual, inner, "v", inner_use)),
                        use(outer, Predicate::kConnect, "B", "A"))));
        // Q v . (Q v . inner-use) or outer-use.
        expect_scoped(
            small,
            MakeQuantifier(q, outer, "v",
                           MakeOr(MakeQuantifier(q, inner, "v", inner_use),
                                  use(outer, Predicate::kMeet, "B", "A"))));
        checked += 2;
      }
    }
  }
  EXPECT_EQ(checked, 16);
  // forall rect v . exists name v . equal(v, A), and
  // exists rect v . (exists rect v . true) and subset(v, A), on Fig 1a.
  const RectQueryEngine fig1a = *RectQueryEngine::Build(Fig1aInstance());
  expect_scoped(fig1a,
                MakeQuantifier(Formula::Kind::kForall, VarKind::kRect, "v",
                               MakeQuantifier(Formula::Kind::kExists,
                                              VarKind::kName, "v",
                                              MakeAtom(Predicate::kEqual, v,
                                                       NameConstant("A")))));
  expect_scoped(
      fig1a,
      MakeQuantifier(
          Formula::Kind::kExists, VarKind::kRect, "v",
          MakeAnd(MakeQuantifier(Formula::Kind::kExists, VarKind::kRect, "v",
                                 *ParseQuery("true")),
                  MakeAtom(Predicate::kSubset, v, NameConstant("A")))));
}

}  // namespace
}  // namespace topodb
