#ifndef TOPODB_QUERY_PLAN_H_
#define TOPODB_QUERY_PLAN_H_

#include <string>

#include "src/query/ast.h"

namespace topodb {

// Query canonicalization (DESIGN.md §5h): a pure AST rewrite with no
// engine dependency. It is the only rewrite a query gets before
// evaluation.
//
// CanonicalizeQuery rewrites a formula into a canonical form so that
// syntactically different but logically equivalent queries produce one
// representative (and therefore one semantic-cache entry). The rewrite
// set: implies-elimination, negation push-down to NNF (iff kept as a
// connective, with inner negations folded into one outer parity bit),
// disjoint == not connect, converse predicates normalized (contains ->
// inside, covers -> coveredBy with swapped operands), symmetric-atom
// operand sorting, and/or chains flattened + sorted + deduplicated under
// a binder-independent (de Bruijn) structural key and rebuilt as balanced
// trees (the odd operand in the left half, so up to three operands nest
// left-deep and depth grows as log2 of the width), true/false and
// complement simplification, hoisting of variable-independent conjuncts
// out of exists (disjuncts out of forall — the two directions that stay
// sound for empty quantifier ranges), same-kind quantifier blocks reduced
// to their key-minimal permutation, and bound variables renamed x0, x1,
// ... in pre-order. Canonicalization is idempotent: re-canonicalizing a
// canonical formula (or its parsed rendering) is a fixpoint.
//
// The canonical order is also the evaluation order, with no cost model:
// in the structural key alphabet name equalities ('@') sort before atoms
// ('A'), and both before quantified operands ('E'/'U'), so the
// short-circuiting evaluator tries an and/or chain's cheap operands
// first; and a quantifier block's key puts name binders outside cell
// binders outside region binders.
//
// Contract with evaluation (the differential suites pin this): for a
// query whose atom region names all resolve, evaluating the canonical
// form is verdict-identical to evaluating the input on every evaluation
// that completes within its budgets. Reordering can move the *point* at
// which a budget or deadline trips, so error outcomes are only guaranteed
// to match when neither order meets one. Unknown atom names, and name
// equalities over a variable that is not a name binder, are rejected on
// the input before canonicalizing (QueryEngine::ValidateAtomNames, see
// EvalOptions::plan in eval.h), since canonicalization can fold such an
// operand away or move it behind a short circuit.

// Canonical-form rewrite. Deterministic and idempotent. When `rendering`
// is non-null it receives the result's ToString(), which the fixpoint
// loop computes anyway; it is the semantic-cache key's query component.
FormulaPtr CanonicalizeQuery(const FormulaPtr& query,
                             std::string* rendering = nullptr);

// The canonical cache-key rendering: CanonicalizeQuery's ToString. The
// rendering reparses to the same canonical AST byte-stably, at any chain
// width (balanced chains stay within the parser's depth bound, and
// ToString quotes name constants that are shadowed by a bound variable),
// so key equality is exactly canonical-form equality.
std::string CanonicalQueryKey(const FormulaPtr& query);

// Kept only because the ledger's traced replay (perfbench/replay.cc)
// compiles against it: no fields, no cost model.
struct SelectivityStats {};

// Kept only for perfbench/replay.cc: returns CanonicalizeQuery(query).
FormulaPtr PlanQuery(const FormulaPtr& query, const SelectivityStats& stats);

}  // namespace topodb

#endif  // TOPODB_QUERY_PLAN_H_
