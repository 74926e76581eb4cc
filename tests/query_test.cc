#include "src/query/eval.h"

#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "src/query/parser.h"
#include "src/query/plan.h"
#include "src/region/fixtures.h"
#include "tests/reference_eval.h"

namespace topodb {
namespace {

// Example 4.1: phi separates Fig 1a from Fig 1b.
constexpr char kTripleIntersection[] =
    "exists region r . subset(r, A) and subset(r, B) and subset(r, C)";

// Example 4.2: "A n B is topologically connected".
constexpr char kIntersectionConnected[] =
    "forall region r . forall region s . "
    "(subset(r, A) and subset(r, B) and subset(s, A) and subset(s, B)) "
    "implies "
    "exists region t . subset(t, A) and subset(t, B) and connect(t, r) "
    "and connect(t, s)";

bool Ask(const SpatialInstance& instance, const std::string& query) {
  Result<QueryEngine> engine = QueryEngine::Build(instance);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  Result<bool> result = engine->Evaluate(query);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << " for " << query;
  return result.ok() && *result;
}

// --- Parser ---

TEST(ParserTest, RoundTripsSimpleFormulas) {
  Result<FormulaPtr> f = ParseQuery("connect(A, B)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->ToString(), "connect(A, B)");
  f = ParseQuery("not connect(A, B) and disjoint(B, C)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->ToString(),
            "(not (connect(A, B)) and disjoint(B, C))");
}

TEST(ParserTest, QuantifierBodyExtendsRight) {
  Result<FormulaPtr> f =
      ParseQuery("exists region r . connect(r, A) and connect(r, B)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind, Formula::Kind::kExists);
  EXPECT_EQ((*f)->body->kind, Formula::Kind::kAnd);
}

TEST(ParserTest, PrecedenceNotAndOrImplies) {
  Result<FormulaPtr> f =
      ParseQuery("connect(A,B) or connect(B,C) and not connect(A,C) "
                 "implies true");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind, Formula::Kind::kImplies);
  EXPECT_EQ((*f)->left->kind, Formula::Kind::kOr);
}

TEST(ParserTest, BoundVsFreeIdentifiers) {
  Result<FormulaPtr> f = ParseQuery("exists region r . connect(r, A)");
  ASSERT_TRUE(f.ok());
  const Formula& atom = *(*f)->body;
  EXPECT_EQ(atom.lhs.kind, Term::Kind::kVariable);
  EXPECT_EQ(atom.rhs.kind, Term::Kind::kNameConstant);
}

TEST(ParserTest, NameEquality) {
  Result<FormulaPtr> f =
      ParseQuery("exists name a . exists name b . not (a = b)");
  ASSERT_TRUE(f.ok());
}

TEST(ParserTest, QuotedNamesAreNameConstants) {
  Result<FormulaPtr> f = ParseQuery("connect(\"main street\", \"1a\")");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ((*f)->lhs.kind, Term::Kind::kNameConstant);
  EXPECT_EQ((*f)->lhs.text, "main street");
  EXPECT_EQ((*f)->rhs.text, "1a");
  // Keywords denote regions when quoted — even inside a quantifier body
  // where the bare word would be a syntax error.
  f = ParseQuery("exists region r . connect(r, \"cell\")");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ((*f)->body->rhs.kind, Term::Kind::kNameConstant);
  EXPECT_EQ((*f)->body->rhs.text, "cell");
}

TEST(ParserTest, QuotedNameEscapes) {
  Result<FormulaPtr> f = ParseQuery(R"(connect("we\"ird", "back\\slash"))");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ((*f)->lhs.text, "we\"ird");
  EXPECT_EQ((*f)->rhs.text, "back\\slash");
}

TEST(ParserTest, QuotedNameErrors) {
  EXPECT_FALSE(ParseQuery("connect(\"unterminated, A)").ok());
  EXPECT_FALSE(ParseQuery(R"(connect("bad\nescape", A))").ok());
  EXPECT_FALSE(ParseQuery(R"(connect("trailing\))").ok());
  // Quoted terms cannot be bound as variables.
  EXPECT_FALSE(ParseQuery("exists region \"r\" . true").ok());
}

TEST(ParserTest, ToStringQuotesNonIdentifierNames) {
  // Names that lex as identifiers print bare; others print quoted with
  // escapes — and the printed form re-parses to the same formula.
  Result<FormulaPtr> f =
      ParseQuery(R"(connect(A, "main street") and subset("we\"ird", B))");
  ASSERT_TRUE(f.ok());
  const std::string printed = (*f)->ToString();
  EXPECT_EQ(printed,
            "(connect(A, \"main street\") and subset(\"we\\\"ird\", B))");
  Result<FormulaPtr> again = ParseQuery(printed);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->ToString(), printed);
}

TEST(ParserTest, QueryNameHelpers) {
  EXPECT_TRUE(IsQueryKeyword("region"));
  EXPECT_TRUE(IsQueryKeyword("connect"));
  EXPECT_FALSE(IsQueryKeyword("A"));
  EXPECT_TRUE(IsPlainQueryIdentifier("A_1"));
  EXPECT_FALSE(IsPlainQueryIdentifier("1a"));
  EXPECT_FALSE(IsPlainQueryIdentifier("main street"));
  EXPECT_FALSE(IsPlainQueryIdentifier("cell"));  // Keyword.
  EXPECT_EQ(QuoteQueryName("main street"), "\"main street\"");
  EXPECT_EQ(QuoteQueryName("we\"ird\\x"), R"("we\"ird\\x")");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("connect(A)").ok());
  EXPECT_FALSE(ParseQuery("connect(A, B").ok());
  EXPECT_FALSE(ParseQuery("exists r . connect(r, A)").ok());  // Missing kind.
  EXPECT_FALSE(ParseQuery("exists region . connect(A, B)").ok());
  EXPECT_FALSE(ParseQuery("exists region r connect(r, A)").ok());  // No dot.
  EXPECT_FALSE(ParseQuery("connect(A, B) garbage").ok());
  EXPECT_FALSE(ParseQuery("frobnicate(A, B)").ok());
  EXPECT_FALSE(ParseQuery("exists region r . exists region r . true").ok());
  EXPECT_FALSE(ParseQuery("@").ok());
}

// kMaxQueryDepth in the three shapes whose depth only the text limits:
// nested parentheses and leading `not`s recurse in the parser, and a long
// `and` chain, which the parser builds in a loop, recurses in every pass
// after it. At the bound each shape parses, canonicalizes and evaluates;
// one level past it, and far past it, is a ParseError naming the bound.
TEST(ParserTest, DepthBoundHoldsForEveryNestingShape) {
  const std::string atom = "connect(A, B)";
  const std::function<std::string(int)> shapes[] = {
      [&](int levels) {
        return std::string(levels - 1, '(') + atom +
               std::string(levels - 1, ')');
      },
      [&](int levels) {
        std::string query;
        for (int i = 1; i < levels; ++i) query += "not ";
        return query + atom;
      },
      [&](int levels) {
        std::string query = atom;
        for (int i = 1; i < levels; ++i) query += " and " + atom;
        return query;
      },
  };
  const QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  const bool truth = *engine.Evaluate(atom);
  for (size_t shape = 0; shape < std::size(shapes); ++shape) {
    const Result<FormulaPtr> deepest =
        ParseQuery(shapes[shape](kMaxQueryDepth));
    ASSERT_TRUE(deepest.ok()) << shape << ": " << deepest.status().ToString();
    // Only the `not` shape changes the verdict: 255 negations flip it.
    const bool negated = shape == 1 && (kMaxQueryDepth - 1) % 2 == 1;
    EXPECT_EQ(CanonicalQueryKey(*deepest),
              negated ? "not (" + atom + ")" : atom)
        << shape;
    EvalOptions planned;
    planned.plan = true;
    for (const EvalOptions& options : {EvalOptions{}, planned}) {
      const Result<bool> verdict = engine.Evaluate(*deepest, options);
      ASSERT_TRUE(verdict.ok())
          << shape << ": " << verdict.status().ToString();
      EXPECT_EQ(*verdict, truth != negated) << shape;
    }
    for (const int levels : {kMaxQueryDepth + 1, 100000}) {
      const Status status = ParseQuery(shapes[shape](levels)).status();
      EXPECT_EQ(status.code(), StatusCode::kParseError)
          << shape << ", " << levels;
      EXPECT_NE(status.message().find(std::to_string(kMaxQueryDepth)),
                std::string::npos)
          << status.ToString();
    }
  }
}

// --- Evaluation: paper examples ---

TEST(QueryTest, Example41SeparatesFig1aFromFig1b) {
  EXPECT_TRUE(Ask(Fig1aInstance(), kTripleIntersection));
  EXPECT_FALSE(Ask(Fig1bInstance(), kTripleIntersection));
}

TEST(QueryTest, Example42SeparatesFig1cFromFig1d) {
  EXPECT_TRUE(Ask(Fig1cInstance(), kIntersectionConnected));
  EXPECT_FALSE(Ask(Fig1dInstance(), kIntersectionConnected));
}

TEST(QueryTest, CellQuantifierTripleIntersection) {
  // The weak (cell) quantifier also separates Fig 1a / Fig 1b.
  const char* query =
      "exists cell c . subset(c, A) and subset(c, B) and subset(c, C)";
  EXPECT_TRUE(Ask(Fig1aInstance(), query));
  EXPECT_FALSE(Ask(Fig1bInstance(), query));
}

TEST(QueryTest, FourIntersectionAtoms) {
  SpatialInstance nested = NestedInstance();  // A contains B.
  EXPECT_TRUE(Ask(nested, "contains(A, B)"));
  EXPECT_TRUE(Ask(nested, "inside(B, A)"));
  EXPECT_FALSE(Ask(nested, "overlap(A, B)"));
  EXPECT_FALSE(Ask(nested, "meet(A, B)"));
  EXPECT_TRUE(Ask(nested, "connect(A, B)"));
  EXPECT_TRUE(Ask(Fig1cInstance(), "overlap(A, B)"));
  EXPECT_TRUE(Ask(DisjointPairInstance(), "disjoint(A, B)"));
  EXPECT_FALSE(Ask(DisjointPairInstance(), "connect(A, B)"));
}

TEST(QueryTest, CoversAtom) {
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(8, 8)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("B", *Region::MakeRect(Point(0, 2), Point(4, 4)))
                  .ok());
  EXPECT_TRUE(Ask(instance, "covers(A, B)"));
  EXPECT_TRUE(Ask(instance, "coveredBy(B, A)"));
  EXPECT_FALSE(Ask(instance, "contains(A, B)"));
}

TEST(QueryTest, EqualAtom) {
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("A", *Region::MakeRect(Point(0, 0), Point(4, 4)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("B", *Region::MakeRect(Point(0, 0), Point(4, 4)))
                  .ok());
  EXPECT_TRUE(Ask(instance, "equal(A, B)"));
  EXPECT_TRUE(Ask(instance, "subset(A, B) and subset(B, A)"));
}

TEST(QueryTest, NameQuantifiers) {
  // "Some two distinct regions overlap".
  const char* some_overlap =
      "exists name a . exists name b . not (a = b) and overlap(a, b)";
  EXPECT_TRUE(Ask(Fig1cInstance(), some_overlap));
  EXPECT_FALSE(Ask(DisjointPairInstance(), some_overlap));
  // "All pairs of distinct regions overlap".
  const char* all_overlap =
      "forall name a . forall name b . (not (a = b)) implies overlap(a, b)";
  EXPECT_TRUE(Ask(Fig1aInstance(), all_overlap));
  EXPECT_FALSE(Ask(NestedInstance(), all_overlap));
}

TEST(QueryTest, PathQueryBetweenDisjointRegions) {
  // A disc region connecting A and B exists (through the exterior or any
  // face chain).
  SpatialInstance instance = DisjointPairInstance();
  EXPECT_TRUE(
      Ask(instance, "exists region r . connect(r, A) and connect(r, B)"));
}

TEST(QueryTest, QuantifiedRegionsAreDiscs) {
  // In the nested instance, the face between A's boundary and B's boundary
  // is an annulus: no *single* quantified region equals it, but its
  // completion union B's disc is a disc. Sanity: there is a region
  // containing B and contained in A.
  const char* query =
      "exists region r . subset(B, r) and subset(r, A) and not equal(r, B)";
  EXPECT_TRUE(Ask(NestedInstance(), query));
  // But no region is inside A, disjoint from B, and surrounds B — such a
  // value would be the annulus, which is not a disc. We approximate this
  // check: every region inside A avoiding B's closure must also avoid
  // "surrounding": here any disc inside A disjoint from closure(B) simply
  // does not exist because the only available face is the annulus.
  const char* annulus_query =
      "exists region r . subset(r, A) and disjoint(r, B)";
  EXPECT_FALSE(Ask(NestedInstance(), annulus_query));
}

TEST(QueryTest, TrueFalseLiterals) {
  EXPECT_TRUE(Ask(Fig1cInstance(), "true"));
  EXPECT_FALSE(Ask(Fig1cInstance(), "false"));
  EXPECT_TRUE(Ask(Fig1cInstance(), "false implies false"));
  EXPECT_TRUE(Ask(Fig1cInstance(), "connect(A, B) iff connect(B, A)"));
}

TEST(QueryTest, QuotedNamesRoundTripAgainstInstance) {
  // Region names that are not identifiers (or collide with keywords) are
  // legal in instances; quoting makes them referenceable in queries.
  SpatialInstance instance;
  ASSERT_TRUE(instance
                  .AddRegion("main street",
                             *Region::MakeRect(Point(0, 0), Point(8, 8)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("1a", *Region::MakeRect(Point(2, 2), Point(6, 6)))
                  .ok());
  ASSERT_TRUE(instance
                  .AddRegion("we\"ird\\name",
                             *Region::MakeRect(Point(3, 3), Point(5, 5)))
                  .ok());
  EXPECT_TRUE(Ask(instance, "contains(\"main street\", \"1a\")"));
  EXPECT_TRUE(Ask(instance, R"(inside("we\"ird\\name", "1a"))"));
  EXPECT_TRUE(Ask(instance,
                  "exists region r . subset(r, \"1a\") and "
                  "subset(r, \"main street\")"));
  // QuoteQueryName renders exactly the form the parser accepts, for every
  // name in the instance.
  for (const std::string& name : instance.names()) {
    EXPECT_TRUE(Ask(instance, "subset(" + QuoteQueryName(name) + ", " +
                                  QuoteQueryName(name) + ")"))
        << name;
  }
  // ToString round-trip through a quoted name evaluates identically.
  Result<FormulaPtr> f = ParseQuery("overlap(\"main street\", \"1a\")");
  ASSERT_TRUE(f.ok());
  Result<FormulaPtr> reparsed = ParseQuery((*f)->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  QueryEngine engine = *QueryEngine::Build(instance);
  EXPECT_EQ(*engine.Evaluate(*f), *engine.Evaluate(*reparsed));
}

TEST(QueryTest, UnknownRegionNameFails) {
  Result<QueryEngine> engine = QueryEngine::Build(Fig1cInstance());
  ASSERT_TRUE(engine.ok());
  Result<bool> result = engine->Evaluate("connect(A, Z)");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(QueryTest, BudgetExhaustion) {
  Result<QueryEngine> engine = QueryEngine::Build(Fig1aInstance());
  ASSERT_TRUE(engine.ok());
  EvalOptions options;
  options.max_region_candidates = 2;
  // A forall over regions cannot finish with a 2-candidate budget (and
  // cannot short-circuit since the body holds for all discs).
  Result<bool> result = engine->Evaluate(
      "forall region r . connect(r, r)", options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(QueryTest, ExistsShortCircuitsUnderTinyBudget) {
  Result<QueryEngine> engine = QueryEngine::Build(Fig1aInstance());
  ASSERT_TRUE(engine.ok());
  EvalOptions options;
  options.max_region_candidates = 3;
  // The very first candidate (a single face) already satisfies the body.
  Result<bool> result =
      engine->Evaluate("exists region r . connect(r, r)", options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(*result);
}

TEST(QueryTest, ConnectIsReflexiveAndSymmetricOnValues) {
  for (const char* query :
       {"connect(A, A)", "connect(A, B) iff connect(B, A)",
        "subset(A, A)", "equal(A, A)"}) {
    EXPECT_TRUE(Ask(Fig1cInstance(), query)) << query;
  }
}

TEST(QueryTest, DiscValueChecker) {
  // Direct checks of the quantifier range on the nested instance: faces
  // are [B-inner disc, annulus(A minus B), exterior] in some order.
  Result<QueryEngine> engine = QueryEngine::Build(NestedInstance());
  ASSERT_TRUE(engine.ok());
  const auto& faces = engine->complex().faces();
  ASSERT_EQ(faces.size(), 3u);
  int annulus = -1, inner = -1, outer = -1;
  for (size_t f = 0; f < faces.size(); ++f) {
    std::string label = LabelString(faces[f].label);
    if (label == "o-") annulus = static_cast<int>(f);
    if (label == "oo") inner = static_cast<int>(f);
    if (label == "--") outer = static_cast<int>(f);
  }
  ASSERT_NE(annulus, -1);
  auto is_disc = [&](std::initializer_list<int> faces) {
    CellSet pick(3);
    for (int f : faces) pick.Set(f);
    CellSet completed;
    return engine->IsDiscValue(pick, &completed);
  };
  EXPECT_FALSE(is_disc({annulus}));  // Annulus: hole.
  EXPECT_TRUE(is_disc({inner}));
  EXPECT_FALSE(is_disc({outer}));  // Plane minus disc.
  // Annulus + inner = open disc (B's closure absorbed).
  EXPECT_TRUE(is_disc({annulus, inner}));
  // Everything = the whole plane, a disc.
  EXPECT_TRUE(is_disc({annulus, inner, outer}));
  // Empty set is not a region.
  EXPECT_FALSE(is_disc({}));
}

// --- Deadlines, cancellation, and evaluation metrics ---

TEST(QueryDeadlineTest, ExpiredDeadlineFailsBothStrategies) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  const ReferenceEngine reference(engine.complex());
  EvalOptions options;
  options.deadline = Deadline::Expired();
  // The entry checkpoint fires before any work, for any query shape, in
  // the engine and in the reference evaluator alike.
  for (const char* query :
       {"connect(A, B)", "forall region r . connect(r, r)"}) {
    for (const Result<bool>& result : {engine.Evaluate(query, options),
                                       reference.Evaluate(query, options)}) {
      ASSERT_FALSE(result.ok()) << query;
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
          << query;
    }
  }
}

TEST(QueryDeadlineTest, GenerousDeadlineMatchesUndeadlinedVerdict) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  for (const char* query : {kTripleIntersection, "connect(A, B)",
                            "forall region r . connect(r, r)"}) {
    EvalOptions bounded;
    bounded.deadline = Deadline::AfterMillis(3'600'000);
    Result<bool> with = engine.Evaluate(query, bounded);
    Result<bool> without = engine.Evaluate(query);
    ASSERT_TRUE(with.ok()) << with.status().ToString();
    ASSERT_TRUE(without.ok());
    EXPECT_EQ(*with, *without) << query;
  }
}

TEST(QueryDeadlineTest, PreCancelledTokenFailsEvaluation) {
  QueryEngine engine = *QueryEngine::Build(Fig1cInstance());
  CancelToken token;
  token.Cancel();
  EvalOptions options;
  options.cancel = &token;
  Result<bool> result = engine.Evaluate("connect(A, B)", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryMetricsTest, EvaluationPopulatesCountersAndLatency) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  MetricsRegistry registry;
  EvalOptions options;
  options.metrics = &registry;
  Result<bool> result = engine.Evaluate(kTripleIntersection, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(registry.counter("query.evaluations")->value(), 1u);
  EXPECT_EQ(registry.histogram("query.eval_us")->count(), 1u);
  EXPECT_GT(registry.counter("query.atoms")->value(), 0u);
  EXPECT_GT(registry.counter("query.bindings")->value(), 0u);
  // The region quantifier materialized discs via the shared range.
  EXPECT_GT(registry.gauge("query.range_discs")->value(), 0);
  EXPECT_EQ(registry.counter("query.deadline_exceeded")->value(), 0u);
  // There is no disc-check memo to report on.
  EXPECT_EQ(registry.ExportText().find("disc_memo"), std::string::npos);
}

TEST(QueryMetricsTest, DeadlineExceededIsCounted) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  MetricsRegistry registry;
  EvalOptions options;
  options.metrics = &registry;
  options.deadline = Deadline::Expired();
  Result<bool> result = engine.Evaluate("connect(A, B)", options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(registry.counter("query.deadline_exceeded")->value(), 1u);
  EXPECT_EQ(registry.counter("query.evaluations")->value(), 1u);
}

TEST(QueryMetricsTest, CacheStatsAccumulateAcrossEvaluations) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  EXPECT_EQ(engine.cache_stats().raw_candidates, 0);
  ASSERT_TRUE(engine.Evaluate(kTripleIntersection).ok());
  const QueryEngine::CacheStats first = engine.cache_stats();
  // The region quantifier materialized its range from raw candidates.
  EXPECT_GT(first.materialized_discs, 0);
  EXPECT_GT(first.raw_candidates, 0);
  // A repeat evaluation reuses the materialized range: discs don't grow.
  ASSERT_TRUE(engine.Evaluate(kTripleIntersection).ok());
  const QueryEngine::CacheStats second = engine.cache_stats();
  EXPECT_EQ(second.materialized_discs, first.materialized_discs);
  EXPECT_EQ(second.raw_candidates, first.raw_candidates);
}

}  // namespace
}  // namespace topodb
