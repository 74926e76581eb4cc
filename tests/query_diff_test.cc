// Differential properties of the query layer: QueryEngine and the
// byte-per-cell reference evaluator (tests/reference_eval.h, built from
// the same CellComplex) must produce identical verdicts AND identical
// error points on every input, and the name-level atoms must agree with
// verdicts derived independently from the thematic mapping's RegionFaces
// table. These suites are what licenses every optimization in eval.cc:
// any divergence is a bug in one of the two, never acceptable drift.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/invariant/data.h"
#include "src/query/eval.h"
#include "src/query/parser.h"
#include "src/query/plan.h"
#include "src/region/fixtures.h"
#include "src/thematic/thematic.h"
#include "src/workload/generators.h"
#include "tests/reference_eval.h"

namespace topodb {
namespace {

// Name-generic corpus: only quantified variables, so every instance —
// whatever its region names — can answer each query.
const char* const kGenericQueries[] = {
    "forall region r . connect(r, r)",
    "exists region r . forall name a . subset(r, a)",
    "forall name a . exists region r . subset(r, a) and connect(r, a)",
    "exists name a . exists name b . not (a = b) and overlap(a, b)",
    "forall name a . forall name b . (not (a = b)) implies "
    "(connect(a, b) iff connect(b, a))",
    "exists cell c . forall name a . subset(c, a)",
    "forall cell c . exists region r . subset(c, r)",
    // Closure-sensitive: meet needs the boundary cells of both operands.
    "exists name a . exists region r . meet(r, a)",
};

std::vector<SpatialInstance> DiffWorkload() {
  std::vector<SpatialInstance> instances = {
      Fig1aInstance(),  Fig1bInstance(),       Fig1cInstance(),
      Fig1dInstance(),  NestedInstance(),      DisjointPairInstance(),
      *ChainInstance(3), *CombInstance(2),     *NestedRingsInstance(3),
      *FlowerInstance(3)};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    instances.push_back(*RandomRectInstance(3 + seed % 3, 40, seed));
  }
  return instances;
}

// Evaluates the query with both strategies, the reference evaluator and
// the engine, and asserts the outcomes are interchangeable: same verdict
// on success, same status code and message on failure. With
// options.plan the engine evaluates CanonicalizeQuery's output, so the
// reference gets that formula too.
void ExpectStrategiesAgree(const QueryEngine& engine, const std::string& query,
                           const EvalOptions& options = {}) {
  const FormulaPtr written = *ParseQuery(query);
  const FormulaPtr planned =
      options.plan ? CanonicalizeQuery(written) : written;
  Result<bool> a = ReferenceEngine(engine.complex()).Evaluate(planned, options);
  Result<bool> b = engine.Evaluate(written, options);
  ASSERT_EQ(a.ok(), b.ok()) << query
                            << "\n reference: " << a.status().ToString()
                            << "\n engine:    " << b.status().ToString();
  if (a.ok()) {
    EXPECT_EQ(*a, *b) << query;
  } else {
    EXPECT_EQ(a.status().code(), b.status().code()) << query;
    EXPECT_EQ(a.status().ToString(), b.status().ToString()) << query;
  }
}

TEST(QueryDiffTest, StrategiesAgreeOnGenericCorpus) {
  for (const SpatialInstance& instance : DiffWorkload()) {
    QueryEngine engine = *QueryEngine::Build(instance);
    for (const char* query : kGenericQueries) {
      ExpectStrategiesAgree(engine, query);
    }
  }
}

TEST(QueryDiffTest, StrategiesAgreeOnPaperExamples) {
  const char* queries[] = {
      "exists region r . subset(r, A) and subset(r, B) and subset(r, C)",
      "exists cell c . subset(c, A) and subset(c, B) and subset(c, C)",
  };
  for (SpatialInstance instance : {Fig1aInstance(), Fig1bInstance()}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    for (const char* query : queries) ExpectStrategiesAgree(engine, query);
  }
}

// Canonicalization (EvalOptions::plan) is a pure rewrite: evaluating the
// canonical form must return exactly the verdict of the written one. Run
// the full differential workload both ways and require identical
// outcomes pairwise.
TEST(QueryDiffTest, PlannedMatchesUnplannedAcrossStrategiesAndWorkload) {
  for (const SpatialInstance& instance : DiffWorkload()) {
    QueryEngine engine = *QueryEngine::Build(instance);
    for (const char* query : kGenericQueries) {
      EvalOptions unplanned;
      EvalOptions planned;
      planned.plan = true;
      const Result<bool> u = engine.Evaluate(query, unplanned);
      const Result<bool> p = engine.Evaluate(query, planned);
      ASSERT_EQ(u.ok(), p.ok())
          << query << "\n unplanned: " << u.status().ToString()
          << "\n planned:   " << p.status().ToString();
      if (u.ok()) {
        EXPECT_EQ(*u, *p) << query;
      }
      // The planned path must also agree with the reference on its own.
      ExpectStrategiesAgree(engine, query, planned);
    }
  }
}

// A quantifier that rebinds a name shadows the outer binder for its body
// only, whatever the two sorts: for each ordered pair of sorts (region,
// cell, name), the name is used inside the inner quantifier and after it,
// and the outer quantifier also runs on past bindings whose body ran the
// inner one (where a binding the inner quantifier freed would be written
// again; the ASan build reports that). The parser rejects rebinding, so
// only a programmatic AST holds one; ToString renames the shadowing
// binder, so the reparsed rendering states the intended scoping with
// distinct names. Engine, reference, planned evaluation and the rendering
// all agree.
TEST(QueryDiffTest, RebindingANameShadowsItAcrossSorts) {
  using VarKind = Formula::VarKind;
  const Term v = Var("v");
  // An atom on v, plus a name equality where v is a name binder there.
  const auto use = [&](VarKind kind, Predicate p, const char* other,
                       const char* eq) {
    const FormulaPtr atom = MakeAtom(p, v, NameConstant(other));
    if (kind != VarKind::kName) return atom;
    return MakeOr(MakeNameEq(v, NameConstant(eq)), atom);
  };
  EvalOptions planned;
  planned.plan = true;
  int checked = 0;
  for (const SpatialInstance& instance : {Fig1aInstance(), Fig1dInstance()}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    const ReferenceEngine reference(engine.complex());
    const auto expect_scoped = [&](const FormulaPtr& query) {
      const std::string text = query->ToString();
      const Result<FormulaPtr> renamed = ParseQuery(text);
      ASSERT_TRUE(renamed.ok()) << text << ": " << renamed.status().ToString();
      const Result<bool> want = reference.Evaluate(*renamed);
      ASSERT_TRUE(want.ok()) << text << ": " << want.status().ToString();
      for (const Result<bool>& got :
           {reference.Evaluate(query), engine.Evaluate(query),
            engine.Evaluate(query, planned), engine.Evaluate(*renamed)}) {
        EXPECT_TRUE(got.ok() && *got == *want)
            << text << " should be " << *want << ", got "
            << (got.ok() ? (*got ? "true" : "false")
                         : got.status().ToString());
      }
      ++checked;
    };
    for (const VarKind outer :
         {VarKind::kRegion, VarKind::kCell, VarKind::kName}) {
      for (const VarKind inner :
           {VarKind::kRegion, VarKind::kCell, VarKind::kName}) {
        for (const Formula::Kind q :
             {Formula::Kind::kExists, Formula::Kind::kForall}) {
          const Formula::Kind dual = q == Formula::Kind::kExists
                                         ? Formula::Kind::kForall
                                         : Formula::Kind::kExists;
          const FormulaPtr inner_use =
              use(inner, Predicate::kSubset, "A", "B");
          // Q v . not (Q' v . inner-use) and outer-use, Q' the dual of Q.
          expect_scoped(MakeQuantifier(
              q, outer, "v",
              MakeAnd(MakeNot(MakeQuantifier(dual, inner, "v", inner_use)),
                      use(outer, Predicate::kConnect, "B", "A"))));
          // Q v . not (Q v . inner-use): Q sweeps on past bindings whose
          // body ran the inner quantifier for as long as that holds.
          expect_scoped(MakeQuantifier(
              q, outer, "v",
              MakeNot(MakeQuantifier(q, inner, "v", inner_use))));
        }
      }
    }
  }
  EXPECT_EQ(checked, 72);
}

// Budget accounting is part of the observable semantics: for EVERY budget
// value, the engine and the reference must fail at the same point with the
// same message (the budget is charged per disc value, after the disc
// check, so the exhaustion point is a topological invariant of the
// instance — not an artifact of which evaluator enumerates).
TEST(QueryDiffTest, BudgetErrorPointsAreStrategyIndependent) {
  for (SpatialInstance instance :
       {Fig1aInstance(), NestedInstance(), *CombInstance(2)}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    for (int64_t budget = 1; budget <= 12; ++budget) {
      EvalOptions options;
      options.max_region_candidates = budget;
      ExpectStrategiesAgree(engine, "forall region r . connect(r, r)",
                            options);
    }
  }
}

TEST(QueryDiffTest, BudgetErrorMessageNamesTheLimit) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  EvalOptions options;
  options.max_region_candidates = 2;
  Result<bool> result =
      engine.Evaluate("forall region r . connect(r, r)", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("max_region_candidates=2"),
            std::string::npos)
      << result.status().ToString();
}

TEST(QueryDiffTest, EnumerationStepsErrorPointsAreStrategyIndependent) {
  QueryEngine engine = *QueryEngine::Build(Fig1bInstance());
  for (int64_t steps : {int64_t{1}, int64_t{7}, int64_t{50}, int64_t{400}}) {
    EvalOptions options;
    options.max_enumeration_steps = steps;
    ExpectStrategiesAgree(engine, "forall region r . connect(r, r)", options);
  }
}

TEST(QueryDiffTest, StepsErrorMessageNamesTheLimit) {
  QueryEngine engine = *QueryEngine::Build(Fig1bInstance());
  EvalOptions options;
  options.max_enumeration_steps = 7;
  Result<bool> result =
      engine.Evaluate("forall region r . connect(r, r)", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().ToString().find("max_enumeration_steps=7"),
            std::string::npos)
      << result.status().ToString();
}

// A full-size corpus at a 2,000,000-candidate budget: the paper's
// Examples 4.1 (region and cell forms) and 4.2 on their figures, and
// quantifier-heavy rows on chains and combs larger than the instances
// above.
TEST(QueryDiffTest, FullSizeCorpusAgreesWithReference) {
  const std::string example41 =
      "exists region r . subset(r, A) and subset(r, B) and subset(r, C)";
  const std::string example41_cells =
      "exists cell c . subset(c, A) and subset(c, B) and subset(c, C)";
  const std::string example42 =
      "forall region r . forall region s . "
      "(subset(r, A) and subset(r, B) and subset(s, A) and subset(s, B)) "
      "implies exists region t . subset(t, A) and subset(t, B) and "
      "connect(t, t) and connect(t, r) and connect(t, s)";
  const std::string forall_connect = "forall region r . connect(r, r)";
  // ChainInstance names its regions R000, R001, ...
  const std::string cell_sweep =
      "forall cell c . subset(c, R000) implies connect(c, R000)";
  const std::vector<std::pair<SpatialInstance, std::string>> corpus = {
      {Fig1aInstance(), example41},       {Fig1bInstance(), example41},
      {Fig1aInstance(), example41_cells}, {Fig1bInstance(), example41_cells},
      {Fig1cInstance(), example42},       {Fig1dInstance(), example42},
      {*ChainInstance(6), forall_connect}, {*CombInstance(4), forall_connect},
      {*ChainInstance(24), cell_sweep}};
  EvalOptions options;
  options.max_region_candidates = 2'000'000;
  for (const auto& [instance, query] : corpus) {
    QueryEngine engine = *QueryEngine::Build(instance);
    ExpectStrategiesAgree(engine, query, options);
    EXPECT_TRUE(engine.Evaluate(query, options).ok()) << query;
  }
}

// --- IsDiscValue: reference vs the engine's face-level check ---

// Exhaustively sweeps every subset of faces on small instances; the
// reference's cell-level check and the engine's face-level one must agree
// on both the verdict and the completed cell set.
TEST(QueryDiffTest, DiscValueOverloadsAgreeOnAllFaceSubsets) {
  for (SpatialInstance instance :
       {Fig1aInstance(), Fig1dInstance(), NestedInstance(),
        DisjointPairInstance(), *CombInstance(2),
        *RandomRectInstance(4, 40, 11)}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    const ReferenceEngine reference(engine.complex());
    const int nf = static_cast<int>(engine.complex().faces().size());
    ASSERT_LE(nf, 16) << "subset sweep would explode";
    for (uint32_t bits = 0; bits < (uint32_t{1} << nf); ++bits) {
      std::vector<char> face_set(nf, 0);
      CellSet face_bits(nf);
      for (int f = 0; f < nf; ++f) {
        if (bits >> f & 1) {
          face_set[f] = 1;
          face_bits.Set(f);
        }
      }
      std::vector<char> completed_ref;
      CellSet completed_bits;
      const bool ref = reference.IsDiscValue(face_set, &completed_ref);
      const bool fast = engine.IsDiscValue(face_bits, &completed_bits);
      ASSERT_EQ(ref, fast) << "face set " << bits;
      if (ref) {
        EXPECT_EQ(CellSet::FromCharVector(completed_ref), completed_bits)
            << "face set " << bits;
      } else {
        EXPECT_TRUE(completed_bits.None()) << "face set " << bits;
      }
    }
  }
}

// Regression net for the completion rule (the dart-less-vertex bugfix): a
// vertex joins a completion iff it has AT LEAST ONE incident face and all
// of its incident faces are chosen — the vacuous form ("all incident
// faces chosen", true for a dart-less vertex) would poison every
// completion with isolated cells. The arrangement never emits dart-less
// vertices (QueryEngine::Build would fail with Internal on one), so what
// is testable, and what this test pins exhaustively, is the engine's
// completion against ground truth recomputed here straight from the
// complex's darts.
TEST(QueryDiffTest, CompletedVerticesMatchIncidentFaceRule) {
  for (SpatialInstance instance :
       {Fig1aInstance(), NestedInstance(), *CombInstance(2)}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    const CellComplex& complex = engine.complex();
    const int nv = static_cast<int>(complex.vertices().size());
    const int ne = static_cast<int>(complex.edges().size());
    const int nf = static_cast<int>(complex.faces().size());
    // Ground truth: incident faces per vertex, via the darts around it.
    std::vector<std::set<int>> vertex_faces(nv);
    for (int v = 0; v < nv; ++v) {
      for (int d : complex.vertices()[v].darts) {
        vertex_faces[v].insert(complex.darts()[d].face);
      }
      ASSERT_FALSE(vertex_faces[v].empty())
          << "the arrangement emitted a dart-less vertex";
    }
    for (uint32_t bits = 0; bits < (uint32_t{1} << nf); ++bits) {
      CellSet face_set(nf);
      for (int f = 0; f < nf; ++f) {
        if ((bits >> f) & 1) face_set.Set(f);
      }
      CellSet completed;
      if (!engine.IsDiscValue(face_set, &completed)) continue;
      ASSERT_EQ(completed.size_bits(), nv + ne + nf);
      for (int v = 0; v < nv; ++v) {
        bool all_chosen = true;
        for (int f : vertex_faces[v]) all_chosen &= face_set.Test(f);
        EXPECT_EQ(completed.Test(v), all_chosen)
            << "vertex " << v << ", face set " << bits;
      }
    }
  }
}

// --- Above one word: instances of more than 64 faces ---

// Instances whose face rows take two and three words: ChainInstance(40)
// (80 faces), RectGridInstance(4, 6) (78) and RectGridInstance(6, 7) (144).
std::vector<SpatialInstance> MultiWordWorkload() {
  return {*ChainInstance(40), *RectGridInstance(4, 6),
          *RectGridInstance(6, 7)};
}

// Calls visit on the first `limit` connected face sets of the complex's
// dual graph in the range's enumeration order: roots ascending, each set
// grown depth first by its lowest frontier face, with lower roots and the
// faces of finished siblings banned. Recomputes each frontier from the
// chosen set, as the reference does.
void ForEachConnectedFaceSet(
    const CellComplex& complex, int limit,
    const std::function<void(const std::vector<char>&)>& visit) {
  const int nf = static_cast<int>(complex.faces().size());
  std::vector<std::set<int>> dual(nf);
  for (int e = 0; e < static_cast<int>(complex.edges().size()); ++e) {
    auto [lf, rf] = complex.EdgeFaces(e);
    if (lf != rf) {
      dual[lf].insert(rf);
      dual[rf].insert(lf);
    }
  }
  std::vector<char> chosen(nf, 0), banned(nf, 0);
  int visited = 0;
  std::function<void()> grow = [&] {
    visit(chosen);
    ++visited;
    std::set<int> frontier;
    for (int f = 0; f < nf; ++f) {
      if (!chosen[f]) continue;
      for (int g : dual[f]) {
        if (!chosen[g] && !banned[g]) frontier.insert(g);
      }
    }
    std::vector<int> bans;
    for (int g : frontier) {
      if (banned[g] || visited >= limit) continue;
      chosen[g] = 1;
      grow();
      chosen[g] = 0;
      banned[g] = 1;
      bans.push_back(g);
    }
    for (int g : bans) banned[g] = 0;
  };
  for (int root = 0; root < nf && visited < limit; ++root) {
    std::fill(chosen.begin(), chosen.end(), 0);
    std::fill(banned.begin(), banned.end(), 0);
    std::fill(banned.begin(), banned.begin() + root, 1);
    chosen[root] = 1;
    grow();
  }
}

// Region quantifiers under small step and candidate limits: the engine and
// the reference give the same verdict, or fail at the same point with the
// same message. One engine serves every limit, so later evaluations also
// replay range values materialized under larger limits.
TEST(QueryDiffTest, RegionQuantifiersAboveOneWordAgreeWithReference) {
  // Verdicts (true and false) under every limit that reaches them, and
  // both errors at the others.
  const char* queries[] = {
      "forall region r . connect(r, r)",
      "exists region r . subset(r, R000)",
      "forall region r . not (overlap(r, R000) and overlap(r, R001))",
      "exists region r . forall name a . not subset(r, a)",
      "exists region r . exists region s . meet(r, s) and subset(s, R000)",
      "forall region r . exists region s . connect(r, s)",
  };
  const std::pair<int64_t, int64_t> limits[] = {
      // {max_enumeration_steps, max_region_candidates}
      {1, 200000},  {64, 200000}, {1500, 200000},
      {1500, 1},    {1500, 40},   {1500, 500}};
  for (const SpatialInstance& instance : MultiWordWorkload()) {
    QueryEngine engine = *QueryEngine::Build(instance);
    ASSERT_GT(engine.complex().faces().size(), 64u);
    for (const char* query : queries) {
      for (const auto& [steps, budget] : limits) {
        EvalOptions options;
        options.max_enumeration_steps = steps;
        options.max_region_candidates = budget;
        ExpectStrategiesAgree(engine, query, options);
      }
    }
  }
}

// The engine's face-level disc check against the reference's cell-level
// one on face sets of two and three words: seeded random subsets at three
// densities, their complements, and the first connected face sets in
// enumeration order (the candidates the range checks).
TEST(QueryDiffTest, DiscCheckAboveOneWordAgreesWithReference) {
  for (const SpatialInstance& instance : MultiWordWorkload()) {
    QueryEngine engine = *QueryEngine::Build(instance);
    const ReferenceEngine reference(engine.complex());
    const int nf = static_cast<int>(engine.complex().faces().size());
    int checked = 0, discs = 0;
    const auto expect_agree = [&](const std::vector<char>& face_set) {
      std::vector<char> completed_ref;
      CellSet completed;
      const bool ref = reference.IsDiscValue(face_set, &completed_ref);
      ASSERT_EQ(engine.IsDiscValue(CellSet::FromCharVector(face_set),
                                   &completed),
                ref)
          << "face set " << checked;
      if (ref) {
        ++discs;
        EXPECT_EQ(CellSet::FromCharVector(completed_ref), completed);
      } else {
        EXPECT_TRUE(completed.None());
      }
      ++checked;
    };
    SplitMix64 rng(static_cast<uint64_t>(nf));
    for (uint64_t percent : {5, 50, 95}) {
      for (int i = 0; i < 100; ++i) {
        std::vector<char> face_set(nf), complement(nf);
        for (int f = 0; f < nf; ++f) {
          face_set[f] = rng.Below(100) < percent;
          complement[f] = !face_set[f];
        }
        expect_agree(face_set);
        expect_agree(complement);
      }
    }
    ForEachConnectedFaceSet(engine.complex(), 2000, expect_agree);
    EXPECT_EQ(checked, 2600);
    EXPECT_GT(discs, 0);
  }
}

// The shared range's raw and disc counts: full ranges of small instances,
// and the first 2^14 raw candidates of three instances above 64 faces. A
// change that adds, drops or reorders a candidate, or misjudges a disc,
// moves these.
TEST(QueryDiffTest, RangeCountsArePinned) {
  constexpr int64_t kAll = int64_t{1} << 40;
  const struct {
    const char* name;
    SpatialInstance instance;
    int64_t steps, raw, discs;
  } pins[] = {
      {"Fig1b", Fig1bInstance(), kAll, 8208, 1018},
      {"ChainInstance(6)", *ChainInstance(6), kAll, 1195, 67},
      {"CombInstance(4)", *CombInstance(4), kAll, 775, 292},
      {"RectGridInstance(2, 3)", *RectGridInstance(2, 3), kAll, 35214, 5565},
      {"ChainInstance(40)", *ChainInstance(40), 16384, 16384, 80},
      {"RectGridInstance(4, 6)", *RectGridInstance(4, 6), 16384, 16384, 4857},
      {"RectGridInstance(6, 7)", *RectGridInstance(6, 7), 16384, 16384, 6941},
  };
  for (const auto& pin : pins) {
    QueryEngine engine = *QueryEngine::Build(pin.instance);
    EvalOptions options;
    options.max_enumeration_steps = pin.steps;
    options.max_region_candidates = kAll;
    const Result<bool> result =
        engine.Evaluate("exists region r . false", options);
    if (pin.steps == kAll) {
      EXPECT_TRUE(result.ok() && !*result) << pin.name;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << pin.name;
    }
    const QueryEngine::CacheStats stats = engine.cache_stats();
    EXPECT_EQ(stats.raw_candidates, pin.raw) << pin.name;
    EXPECT_EQ(stats.materialized_discs, pin.discs) << pin.name;
  }
}

// --- Thematic cross-check ---

// Face-level verdicts derived from the thematic mapping's RegionFaces
// table must agree with the evaluators' cell-level atoms: interiors are
// open, so ext(a) is a subset of / intersects ext(b) iff a's interior
// faces are a subset of / intersect b's (edge and vertex cells interior
// to a region are determined by its faces). Queries are built with
// QuoteQueryName, so the check also covers non-identifier names.
TEST(QueryDiffTest, AtomsAgreeWithThematicRegionFaces) {
  for (const SpatialInstance& instance : DiffWorkload()) {
    const ThematicInstance theme = ToThematic(*ComputeInvariant(instance));
    // Interior faces per region name.
    std::map<std::string, std::set<std::string>> faces_of;
    for (const std::string& name : instance.names()) faces_of[name];
    for (const auto& row : theme.region_faces.rows()) {
      faces_of[row[0]].insert(row[1]);
    }
    QueryEngine engine = *QueryEngine::Build(instance);
    for (const auto& [a, fa] : faces_of) {
      for (const auto& [b, fb] : faces_of) {
        const std::string qa = QuoteQueryName(a), qb = QuoteQueryName(b);
        const bool face_subset =
            std::includes(fb.begin(), fb.end(), fa.begin(), fa.end());
        Result<bool> subset =
            engine.Evaluate("subset(" + qa + ", " + qb + ")");
        ASSERT_TRUE(subset.ok()) << subset.status().ToString();
        EXPECT_EQ(*subset, face_subset) << a << " vs " << b;
        std::vector<std::string> common;
        std::set_intersection(fa.begin(), fa.end(), fb.begin(), fb.end(),
                              std::back_inserter(common));
        // Interiors intersect iff the pair is neither disjoint nor meet
        // (the only 4-intersection classes with disjoint interiors).
        Result<bool> interiors_meet = engine.Evaluate(
            "not disjoint(" + qa + ", " + qb + ") and not meet(" + qa + ", " +
            qb + ")");
        ASSERT_TRUE(interiors_meet.ok())
            << interiors_meet.status().ToString();
        EXPECT_EQ(*interiors_meet, !common.empty()) << a << " vs " << b;
      }
    }
  }
}

}  // namespace
}  // namespace topodb
