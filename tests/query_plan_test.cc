// Tests for query canonicalization (src/query/plan.h): canonical-form
// equivalence merging, fixpoint/round-trip stability of canonical keys
// (they are the semantic-cache key, so they must be byte-stable),
// randomized Parse-o-ToString fuzz over adversarial ASTs, the evaluation
// order the canonical form implies, and the canonical-vs-written
// differential contract.

#include "src/query/plan.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/query/eval.h"
#include "src/query/parser.h"
#include "src/region/fixtures.h"
#include "src/workload/generators.h"
#include "tests/reference_eval.h"

namespace topodb {
namespace {

std::string KeyOf(const std::string& query) {
  Result<FormulaPtr> parsed = ParseQuery(query);
  EXPECT_TRUE(parsed.ok()) << query << ": " << parsed.status().ToString();
  return CanonicalQueryKey(*parsed);
}

TEST(QueryPlanTest, CanonicalKeyMergesEquivalentForms) {
  const std::pair<const char*, const char*> pairs[] = {
      // Symmetric-atom operand order.
      {"connect(A, B)", "connect(B, A)"},
      {"overlap(A, B)", "overlaps(B, A)"},
      // disjoint is not-connect by definition.
      {"disjoint(A, B)", "not connect(A, B)"},
      // Converse predicates.
      {"contains(A, B)", "inside(B, A)"},
      {"covers(A, B)", "coveredBy(B, A)"},
      // implies-elimination.
      {"subset(A, B) implies subset(B, C)",
       "(not subset(A, B)) or subset(B, C)"},
      // Double negation.
      {"not (not subset(A, B))", "subset(A, B)"},
      // Commutativity, associativity, idempotence.
      {"subset(A, B) and subset(B, C)", "subset(B, C) and subset(A, B)"},
      {"(subset(A, B) or meet(A, C)) or inside(B, C)",
       "subset(A, B) or (meet(A, C) or inside(B, C))"},
      {"subset(A, B) and subset(A, B)", "subset(A, B)"},
      // De Morgan / NNF push-down.
      {"not (subset(A, B) and meet(A, C))",
       "(not subset(A, B)) or (not meet(A, C))"},
      // iff is commutative, and negation on either side or on the whole
      // connective folds into one parity.
      {"subset(A, B) iff meet(A, C)", "meet(A, C) iff subset(A, B)"},
      {"not (subset(A, B) iff meet(A, C))",
       "subset(A, B) iff (not meet(A, C))"},
      {"(not subset(A, B)) iff meet(A, C)",
       "subset(A, B) iff (not meet(A, C))"},
      // Alpha-equivalence.
      {"exists region r . subset(r, A)", "exists region s . subset(s, A)"},
      // Same-kind quantifier blocks commute (binders permuted + renamed).
      {"exists region r . exists region s . subset(r, s)",
       "exists region r . exists region s . subset(s, r)"},
      {"exists name a . exists region r . subset(r, a)",
       "exists region r . exists name a . subset(r, a)"},
      {"forall name a . forall name b . connect(a, b)",
       "forall name b . forall name a . connect(b, a)"},
      // Variable-independent conjuncts hoist out of exists...
      {"exists region r . (subset(r, A) and connect(B, C))",
       "connect(B, C) and (exists region r . subset(r, A))"},
      // ...and disjuncts out of forall.
      {"forall region r . (connect(r, r) or subset(A, B))",
       "subset(A, B) or (forall region r . connect(r, r))"},
      // Constant folding and complements.
      {"subset(A, B) and true", "subset(A, B)"},
      {"subset(A, B) or true", "true"},
      {"subset(A, B) and (not subset(A, B))", "false"},
      {"subset(A, B) or (not subset(A, B))", "true"},
      {"subset(A, B) iff subset(A, B)", "true"},
      {"not (subset(A, B) iff subset(A, B))", "false"},
      // NameEq operand order and reflexivity.
      {"exists name a . a = A", "exists name a . A = a"},
      {"exists name a . a = a", "exists name a . true"},
  };
  for (const auto& [left, right] : pairs) {
    EXPECT_EQ(KeyOf(left), KeyOf(right))
        << "expected one canonical form:\n  " << left << "\n  " << right;
  }
}

TEST(QueryPlanTest, CanonicalKeyKeepsInequivalentQueriesApart) {
  const std::pair<const char*, const char*> pairs[] = {
      {"subset(A, B)", "subset(B, A)"},
      {"boundarypart(A, B)", "boundarypart(B, A)"},
      {"inside(A, B)", "inside(B, A)"},
      {"exists region r . subset(r, A)", "forall region r . subset(r, A)"},
      {"exists region r . subset(r, A)", "exists cell r . subset(r, A)"},
      {"subset(A, B) implies subset(B, C)",
       "subset(B, C) implies subset(A, B)"},
      {"subset(A, B) iff meet(A, C)", "not (subset(A, B) iff meet(A, C))"},
      {"connect(A, B)", "connect(A, C)"},
      // Exists/forall alternation cannot be permuted.
      {"exists region r . forall region s . connect(r, s)",
       "forall region s . exists region r . connect(r, s)"},
  };
  for (const auto& [left, right] : pairs) {
    EXPECT_NE(KeyOf(left), KeyOf(right))
        << "distinct queries collapsed:\n  " << left << "\n  " << right;
  }
}

TEST(QueryPlanTest, CanonicalFormIsAFixpointAndReparses) {
  const char* queries[] = {
      "exists region r . subset(r, A) and subset(r, B) and subset(r, C)",
      "forall region r . forall region s . (subset(r, A) and subset(s, A)) "
      "implies (exists region t . subset(t, A) and connect(t, r) and "
      "connect(t, s))",
      "exists name a . exists name b . not (a = b) and overlap(a, b)",
      "forall name a . forall name b . (not (a = b)) implies "
      "(connect(a, b) iff connect(b, a))",
      "exists cell c . subset(c, \"main street\") and subset(c, \"1a\")",
      "not (disjoint(A, B) or contains(A, B))",
      "exists region r . true",
      "forall cell c . false",
  };
  for (const char* query : queries) {
    FormulaPtr parsed = *ParseQuery(query);
    const std::string key = CanonicalQueryKey(parsed);
    // Canonicalization is idempotent on its own output...
    EXPECT_EQ(CanonicalizeQuery(CanonicalizeQuery(parsed))->ToString(), key)
        << query;
    // ...and survives a parse round-trip byte-stably (the cache-key
    // contract: a key re-derived from its own rendering is the same key).
    Result<FormulaPtr> reparsed = ParseQuery(key);
    ASSERT_TRUE(reparsed.ok()) << key << ": " << reparsed.status().ToString();
    EXPECT_EQ(CanonicalQueryKey(*reparsed), key) << query;
  }
}

// The PR's round-trip bugfix: a name constant spelled like an in-scope
// bound variable must be quoted by ToString, else it reparses as that
// variable and the round trip changes the query's meaning.
TEST(QueryPlanTest, ShadowedNameConstantsAreQuotedInToString) {
  const FormulaPtr shadowed = MakeQuantifier(
      Formula::Kind::kExists, Formula::VarKind::kRegion, "x",
      MakeAtom(Predicate::kConnect, Var("x"), NameConstant("x")));
  const std::string text = shadowed->ToString();
  EXPECT_NE(text.find("\"x\""), std::string::npos) << text;
  Result<FormulaPtr> reparsed = ParseQuery(text);
  ASSERT_TRUE(reparsed.ok()) << text;
  EXPECT_EQ((*reparsed)->ToString(), text);
  EXPECT_EQ((*reparsed)->body->rhs.kind, Term::Kind::kNameConstant);

  // Outside the binder's scope the same constant stays bare.
  const FormulaPtr unshadowed =
      MakeAtom(Predicate::kConnect, NameConstant("x"), NameConstant("y"));
  EXPECT_EQ(unshadowed->ToString(), "connect(x, y)");

  // The canonical renamer manufactures binders x0, x1, ...; a free
  // constant that happens to be named x0 must survive the renaming.
  const std::string key =
      KeyOf("exists region r . connect(r, x0) and connect(r, x1)");
  Result<FormulaPtr> again = ParseQuery(key);
  ASSERT_TRUE(again.ok()) << key;
  EXPECT_EQ(CanonicalQueryKey(*again), key);
}

// ---------------------------------------------------------------------
// Randomized Parse-o-ToString fuzz. The generator aims at the grammar's
// sharp edges: quoted names ("main street", "1a"), names that collide
// with keywords ("cell", "not"), names that collide with binders in
// scope ("r", "x0"), nested negation, mixed quantifier blocks and
// max-depth formulas.

struct FuzzGen {
  explicit FuzzGen(uint64_t seed) : rng(seed) {}

  Term RandomTerm(const std::vector<std::pair<Formula::VarKind, std::string>>&
                      scope) {
    static const char* const kNames[] = {"A",   "B",    "C",   "main street",
                                         "1a",  "cell", "not", "r",
                                         "x0",  "\\\"q\\\""};
    if (!scope.empty() && rng.Below(2) == 0) {
      return Var(scope[rng.Below(scope.size())].second);
    }
    return NameConstant(kNames[rng.Below(std::size(kNames))]);
  }

  FormulaPtr Random(int depth,
                    std::vector<std::pair<Formula::VarKind, std::string>>*
                        scope) {
    const uint64_t pick = rng.Below(depth <= 0 ? 3 : 10);
    switch (pick) {
      case 0:
        return rng.Below(2) == 0 ? std::make_shared<Formula>() : [] {
          auto f = std::make_shared<Formula>();
          f->kind = Formula::Kind::kFalse;
          return FormulaPtr(f);
        }();
      case 1: {
        static const Predicate kPreds[] = {
            Predicate::kConnect,  Predicate::kDisjoint, Predicate::kIntersects,
            Predicate::kSubset,   Predicate::kBoundaryPart,
            Predicate::kOverlap,  Predicate::kMeet,     Predicate::kEqual,
            Predicate::kInside,   Predicate::kContains, Predicate::kCovers,
            Predicate::kCoveredBy};
        return MakeAtom(kPreds[rng.Below(std::size(kPreds))],
                        RandomTerm(*scope), RandomTerm(*scope));
      }
      case 2:
        return MakeNameEq(RandomTerm(*scope), RandomTerm(*scope));
      case 3:
      case 4:
        return MakeNot(Random(depth - 1, scope));
      case 5:
        return MakeAnd(Random(depth - 1, scope), Random(depth - 1, scope));
      case 6:
        return MakeOr(Random(depth - 1, scope), Random(depth - 1, scope));
      case 7:
        return MakeImplies(Random(depth - 1, scope), Random(depth - 1, scope));
      case 8: {
        auto f = std::make_shared<Formula>();
        f->kind = Formula::Kind::kIff;
        f->left = Random(depth - 1, scope);
        f->right = Random(depth - 1, scope);
        return f;
      }
      default: {
        static const Formula::VarKind kKinds[] = {Formula::VarKind::kRegion,
                                                  Formula::VarKind::kCell,
                                                  Formula::VarKind::kName};
        static const char* const kVars[] = {"r", "s", "t", "c", "a", "x0"};
        const Formula::Kind kind = rng.Below(2) == 0 ? Formula::Kind::kExists
                                                     : Formula::Kind::kForall;
        const Formula::VarKind var_kind = kKinds[rng.Below(std::size(kKinds))];
        const std::string var = kVars[rng.Below(std::size(kVars))];
        scope->emplace_back(var_kind, var);
        FormulaPtr body = Random(depth - 1, scope);
        scope->pop_back();
        return MakeQuantifier(kind, var_kind, var, std::move(body));
      }
    }
  }

  SplitMix64 rng;
};

TEST(QueryPlanTest, RandomizedToStringParseRoundTrip) {
  FuzzGen gen(0x70700db9u);
  for (int i = 0; i < 600; ++i) {
    std::vector<std::pair<Formula::VarKind, std::string>> scope;
    const FormulaPtr f = gen.Random(2 + i % 4, &scope);
    const std::string text = f->ToString();
    Result<FormulaPtr> reparsed = ParseQuery(text);
    ASSERT_TRUE(reparsed.ok())
        << "iteration " << i << ": " << text << "\n  "
        << reparsed.status().ToString();
    EXPECT_EQ((*reparsed)->ToString(), text) << "iteration " << i;
  }
}

TEST(QueryPlanTest, RandomizedCanonicalKeyIsStableThroughReparse) {
  FuzzGen gen(0xc0ffee42u);
  for (int i = 0; i < 400; ++i) {
    std::vector<std::pair<Formula::VarKind, std::string>> scope;
    const FormulaPtr f = gen.Random(2 + i % 4, &scope);
    const std::string key = CanonicalQueryKey(f);
    Result<FormulaPtr> reparsed = ParseQuery(key);
    ASSERT_TRUE(reparsed.ok())
        << "iteration " << i << ": " << key << "\n  "
        << reparsed.status().ToString();
    EXPECT_EQ(CanonicalQueryKey(*reparsed), key)
        << "iteration " << i << "\n  original: " << f->ToString();
  }
}

// ---------------------------------------------------------------------
// Canonical-vs-written differential: for queries whose names resolve,
// evaluating the canonical form must not change any verdict, neither the
// engine's (EvalOptions::plan) nor that of the reference evaluator
// (tests/reference_eval.h) run on CanonicalizeQuery's output.

void ExpectPlannedMatchesUnplanned(const QueryEngine& engine,
                                   const std::string& query) {
  const FormulaPtr written = *ParseQuery(query);
  const ReferenceEngine reference(engine.complex());
  Result<bool> a = reference.Evaluate(written);
  Result<bool> b = reference.Evaluate(CanonicalizeQuery(written));
  ASSERT_TRUE(a.ok()) << query << ": " << a.status().ToString();
  ASSERT_TRUE(b.ok()) << query << ": " << b.status().ToString();
  EXPECT_EQ(*a, *b) << query << " (reference)";
  EvalOptions unplanned;
  EvalOptions planned;
  planned.plan = true;
  Result<bool> c = engine.Evaluate(written, unplanned);
  Result<bool> d = engine.Evaluate(written, planned);
  ASSERT_TRUE(c.ok()) << query << ": " << c.status().ToString();
  ASSERT_TRUE(d.ok()) << query << ": " << d.status().ToString();
  EXPECT_EQ(*a, *c) << query << " (engine, unplanned)";
  EXPECT_EQ(*a, *d) << query << " (engine, planned)";
}

TEST(QueryPlanTest, PlannedMatchesUnplannedOnPaperExamples) {
  // Name-generic queries run on every instance; the A/B/C ones only on
  // the three-region figures.
  const char* generic[] = {
      "exists region r . subset(r, A) and subset(r, B)",
      "forall region r . connect(r, r)",
      "forall name a . forall name b . (not (a = b)) implies "
      "(connect(a, b) iff connect(b, a))",
      "exists region r . forall name a . subset(r, a)",
      "forall name a . exists region r . subset(r, a) and connect(r, a)",
      "exists name a . exists name b . not (a = b) and overlap(a, b)",
      "forall cell c . (subset(c, A) or not subset(c, A))",
  };
  const char* three_region[] = {
      "exists region r . subset(r, A) and subset(r, B) and subset(r, C)",
      "exists cell c . subset(c, A) and subset(c, B) and subset(c, C)",
      "exists region r . (disjoint(r, A) implies subset(r, B)) "
      "and connect(r, C)",
  };
  for (const SpatialInstance& instance :
       {Fig1aInstance(), Fig1bInstance(), Fig1dInstance()}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    for (const char* query : generic) {
      ExpectPlannedMatchesUnplanned(engine, query);
    }
  }
  for (const SpatialInstance& instance : {Fig1aInstance(), Fig1bInstance()}) {
    QueryEngine engine = *QueryEngine::Build(instance);
    for (const char* query : three_region) {
      ExpectPlannedMatchesUnplanned(engine, query);
    }
  }
}

TEST(QueryPlanTest, RandomizedPlannedDifferential) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  FuzzGen gen(0x5eed5eedu);
  int evaluated = 0;
  for (int i = 0; evaluated < 60 && i < 400; ++i) {
    std::vector<std::pair<Formula::VarKind, std::string>> scope;
    const FormulaPtr f = gen.Random(3, &scope);
    // Only valid-name queries are in the differential contract; the
    // generator's name pool is mostly junk, so route through validation
    // by asking the unplanned evaluator first.
    EvalOptions unplanned;
    Result<bool> a = engine.Evaluate(f, unplanned);
    if (!a.ok()) continue;
    // Names may still be invalid if short-circuiting skipped them;
    // planned evaluation validates all, so skip those queries.
    Status names = Status::OK();
    EvalOptions planned = unplanned;
    planned.plan = true;
    Result<bool> b = engine.Evaluate(f, planned);
    if (!b.ok() && b.status().code() == StatusCode::kNotFound) continue;
    ASSERT_TRUE(b.ok()) << f->ToString() << ": " << b.status().ToString();
    EXPECT_EQ(*a, *b) << f->ToString();
    (void)names;
    ++evaluated;
  }
  EXPECT_GE(evaluated, 40);
}

// Short-circuit reordering must not let an unknown name slip through or
// fabricate one: the planned path validates atom names up front, so a
// query mentioning a ghost region fails NotFound regardless of where
// short-circuiting would have stopped the unplanned evaluator.
TEST(QueryPlanTest, PlannedEvaluationValidatesAtomNamesUpFront) {
  QueryEngine engine = *QueryEngine::Build(Fig1aInstance());
  EvalOptions planned;
  planned.plan = true;
  // Unplanned short-circuits to false without touching Ghost; planned
  // fails fast — the documented (and pinned) divergence.
  Result<bool> unplanned_result =
      engine.Evaluate("false and connect(Ghost, A)", EvalOptions{});
  ASSERT_TRUE(unplanned_result.ok());
  EXPECT_FALSE(*unplanned_result);
  Result<bool> planned_result =
      engine.Evaluate("false and connect(Ghost, A)", planned);
  EXPECT_EQ(planned_result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(planned_result.status().ToString(),
            engine.Evaluate("connect(Ghost, A)", EvalOptions{})
                .status()
                .ToString());
  // Unknown names in NameEq positions stay legal on both paths.
  Result<bool> nameeq =
      engine.Evaluate("exists name a . a = Ghost", planned);
  ASSERT_TRUE(nameeq.ok()) << nameeq.status().ToString();
  EXPECT_FALSE(*nameeq);
}

// The canonical form is the evaluation order, with no cost model: the
// structural key puts name binders outside region binders in a
// quantifier block, and name equalities ('@...') and atoms ('A...')
// ahead of quantified operands ('E...'/'U...') in an and/or chain, so
// the short-circuiting evaluator tries the cheap operands first.
TEST(QueryPlanTest, CanonicalOrderRunsNameBindersAndCheapOperandsFirst) {
  const FormulaPtr block = CanonicalizeQuery(
      *ParseQuery("exists region r . exists name a . subset(r, a)"));
  ASSERT_EQ(block->kind, Formula::Kind::kExists);
  EXPECT_EQ(block->var_kind, Formula::VarKind::kName);
  const FormulaPtr conj = CanonicalizeQuery(
      *ParseQuery("(exists region s . subset(s, A)) and connect(A, B)"));
  ASSERT_EQ(conj->kind, Formula::Kind::kAnd);
  EXPECT_EQ(conj->left->kind, Formula::Kind::kAtom);
  const FormulaPtr filter = CanonicalizeQuery(*ParseQuery(
      "exists name a . (exists region r . subset(r, a)) and a = A"));
  ASSERT_EQ(filter->kind, Formula::Kind::kExists);
  ASSERT_EQ(filter->body->kind, Formula::Kind::kAnd);
  EXPECT_EQ(filter->body->left->kind, Formula::Kind::kNameEq);
  // The written order runs the inner region quantifier before the
  // always-true atom on every binding; the canonical order skips it.
  const FormulaPtr shortcircuit = CanonicalizeQuery(
      *ParseQuery("forall region r . ((exists region s . not connect(s, r)) "
                  "or connect(r, r))"));
  ASSERT_EQ(shortcircuit->kind, Formula::Kind::kForall);
  ASSERT_EQ(shortcircuit->body->kind, Formula::Kind::kOr);
  EXPECT_EQ(shortcircuit->body->left->kind, Formula::Kind::kAtom);
}

// An iff with a constant operand reduces to the other operand or its
// negation. Canonicalizing the left operand twice per level would make a
// 64-level left-nested chain take 2^64 steps; right-nested chains are
// linear either way.
TEST(QueryPlanTest, ConstantIffChainsCanonicalizeInLinearTime) {
  const std::string atom = "connect(A, B)";
  for (const std::string constant : {"true", "false"}) {
    for (const int levels : {64, 65}) {
      std::string left = atom;
      std::string right = atom;
      for (int i = 0; i < levels; ++i) {
        left = "(" + left + " iff " + constant + ")";
        right = "(" + constant + " iff " + right + ")";
      }
      // `x iff false` is `not x`: an odd number of them negates.
      const bool negated = constant == "false" && levels % 2 == 1;
      const std::string expected = negated ? "not (" + atom + ")" : atom;
      for (const std::string& chain : {left, right}) {
        const std::string key = KeyOf(chain);
        EXPECT_EQ(key, expected) << chain;
        EXPECT_EQ(KeyOf(key), key);
      }
    }
  }
}

}  // namespace
}  // namespace topodb
