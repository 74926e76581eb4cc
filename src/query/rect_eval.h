#ifndef TOPODB_QUERY_RECT_EVAL_H_
#define TOPODB_QUERY_RECT_EVAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/query/ast.h"
#include "src/query/parser.h"
#include "src/region/instance.h"

namespace topodb {

// Evaluator for FO(Rect, Rect): input regions and quantified variables are
// axis-aligned rectangles; atoms are decided by exact interval arithmetic.
// This is the paper's tractable point-free language (Theorem 6.4: data
// complexity in NC; Theorem 5.8: captures exactly the S-generic fragment
// of the point language FO(P, <x, <y, .)), and the home of the Fig 13
// derived predicates edge/corner/oneedge.
//
// Quantifier semantics: 'exists rect r' ranges over all rectangles whose
// corners lie on the instance's coordinate grid, refined with midpoints of
// consecutive coordinates and extended one step beyond the extremes. By
// the order-structure argument behind Theorem 5.8, this finite range is
// sound and complete for S-generic queries: any rectangle can be slid to
// grid position without changing the relations it participates in.
class RectQueryEngine {
 public:
  // Fails unless every region of the instance is a rectangle.
  static Result<RectQueryEngine> Build(const SpatialInstance& instance);

  Result<bool> Evaluate(const FormulaPtr& query) const;
  Result<bool> Evaluate(const std::string& query) const;

  // Number of candidate rectangles a quantifier ranges over.
  size_t num_candidates() const {
    return (xs_.size() * (xs_.size() - 1) / 2) *
           (ys_.size() * (ys_.size() - 1) / 2);
  }

  // Fig 13 derived predicates, evaluated directly (also expressible in the
  // language; these are the reference implementations used by the bench).
  // edge: the closures share a segment of positive length.
  Result<bool> Edge(const std::string& a, const std::string& b) const;
  // corner: the closures meet in exactly one point.
  Result<bool> Corner(const std::string& a, const std::string& b) const;
  // oneedge: they share one complete side (including both its corners).
  Result<bool> OneEdge(const std::string& a, const std::string& b) const;

 private:
  struct Rect {
    Rational x1, y1, x2, y2;  // x1 < x2, y1 < y2.
  };
  class Evaluator;

  Result<Rect> Lookup(const std::string& name) const;

  std::map<std::string, Rect> regions_;
  std::vector<Rational> xs_;  // Candidate corner coordinates.
  std::vector<Rational> ys_;
};

}  // namespace topodb

#endif  // TOPODB_QUERY_RECT_EVAL_H_
