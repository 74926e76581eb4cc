#ifndef TOPODB_QUERY_PLAN_H_
#define TOPODB_QUERY_PLAN_H_

#include <cstdint>
#include <string>

#include "src/obs/metrics.h"
#include "src/query/ast.h"

namespace topodb {

// The query planning pass (DESIGN.md §5h). Two stages, both pure AST
// rewrites with no engine dependency:
//
//   1. CanonicalizeQuery — rewrites a formula into a canonical form so
//      that syntactically different but logically equivalent queries
//      produce one representative (and therefore one semantic-cache
//      entry). The rewrite set: implies-elimination, negation push-down
//      to NNF (iff kept as a connective, with inner negations folded
//      into one outer parity bit), disjoint == not connect, converse
//      predicates normalized (contains -> inside, covers -> coveredBy
//      with swapped operands), symmetric-atom operand sorting,
//      and/or chains flattened + sorted + deduplicated under a
//      binder-independent (de Bruijn) structural key, true/false and
//      complement simplification, hoisting of variable-independent
//      conjuncts out of exists (disjuncts out of forall — the two
//      directions that stay sound for empty quantifier ranges),
//      same-kind quantifier blocks reduced to their key-minimal
//      permutation, and bound variables renamed x0, x1, ... in
//      pre-order. Canonicalization is idempotent: re-canonicalizing a
//      canonical formula (or its parsed rendering) is a fixpoint.
//
//   2. PlanQuery — canonicalizes, then reorders commutative operands
//      and same-kind quantifier runs by estimated cost so cheap
//      filters run (and fail) first and narrow ranges become outer
//      loops. Estimates come from SelectivityStats; ties keep the
//      canonical order, so planning is deterministic for a given
//      (query, stats) pair.
//
// Contract with evaluation (the differential suite pins this): for a
// query whose atom region names all resolve, evaluating PlanQuery's
// output is verdict-identical to evaluating the input on every
// evaluation that completes within its budgets. Reordering can move the
// *point* at which a budget or deadline trips, so error outcomes are only
// guaranteed to match when neither order exhausts a budget; unknown
// atom names are rejected up front by the planned path (see
// EvalOptions::plan in eval.h) precisely so short-circuit reordering
// cannot turn a NotFound into a verdict.

// Selectivity inputs for cost estimation, taken from the arrangement
// statistics the engine already tracks (QueryEngine::planner_stats()).
struct SelectivityStats {
  int64_t num_names = 0;  // names(I): the name-quantifier range.
  int64_t num_cells = 0;  // vertices + edges + faces: the cell range.
  int64_t num_faces = 0;  // faces of the arrangement.
  // Disc values materialized so far by the shared region-quantifier
  // range (QueryEngine::CacheStats). 0 means "not yet known"; the
  // estimator then falls back to an exponential-in-faces guess, which
  // keeps region quantifiers innermost until real counts exist.
  int64_t materialized_discs = 0;
};

// Canonical-form rewrite only (stage 1). Deterministic and idempotent.
FormulaPtr CanonicalizeQuery(const FormulaPtr& query);

// The canonical cache-key rendering: CanonicalizeQuery + ToString. The
// rendering reparses to the same canonical AST byte-stably (ToString
// quotes name constants that are shadowed by a bound variable), so
// key equality is exactly canonical-form equality.
std::string CanonicalQueryKey(const FormulaPtr& query);

// Full planning pass (stage 1 + stage 2). `metrics` (nullable) gets
// planner.reordered_operands / planner.reordered_quantifiers counters.
FormulaPtr PlanQuery(const FormulaPtr& query, const SelectivityStats& stats,
                     MetricsRegistry* metrics = nullptr);

// The planner's cost estimate for evaluating `query` under `stats`
// (arbitrary units; exposed for tests and EXPLAIN-style tooling).
double EstimateQueryCost(const FormulaPtr& query,
                         const SelectivityStats& stats);

}  // namespace topodb

#endif  // TOPODB_QUERY_PLAN_H_
