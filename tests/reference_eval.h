#ifndef TOPODB_TESTS_REFERENCE_EVAL_H_
#define TOPODB_TESTS_REFERENCE_EVAL_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/arrangement/cell_complex.h"
#include "src/base/status.h"
#include "src/query/ast.h"
#include "src/query/eval.h"

namespace topodb {

// The byte-per-cell reference semantics of the Section-7 query language,
// the oracle the differential suites hold QueryEngine to. Every cell set
// is a std::vector<char>, closures are recomputed per atom, and each
// region-quantifier instantiation enumerates its connected face sets
// afresh, recursively, checking each with a cell-level disc test.
//
// It is built from a CellComplex alone, through its public API: the
// closures, face duals, vertex faces, incidence graph and region values
// are derived here, not read from the engine, so a bug in the engine's
// own tables shows up as a divergence. Cells are numbered as in
// QueryEngine: [0, nv) vertices, [nv, nv+ne) edges, [nv+ne, nv+ne+nf)
// faces, each block in the complex's order.
//
// Evaluate reads only the budgets, deadline and cancel token of its
// EvalOptions. It checks them at the same points as QueryEngine — at
// entry, per quantifier binding, per disc value and every ~1k raw
// candidates — and fails with the same messages, so error outcomes are
// comparable too: the recursive enumeration visits face sets in the
// order the engine's shared range replays them.
class ReferenceEngine {
 public:
  explicit ReferenceEngine(const CellComplex& complex);

  Result<bool> Evaluate(const FormulaPtr& query,
                        const EvalOptions& options = {}) const;
  // Parse + evaluate.
  Result<bool> Evaluate(const std::string& query,
                        const EvalOptions& options = {}) const;

  size_t num_cells() const { return closure_.size(); }

  // The cell set denoting ext(name); NotFound for an unknown name.
  Result<std::vector<char>> RegionValue(const std::string& name) const;

  // True iff the completion of the face set (indexed by face) is an open
  // disc: the completion is connected over the incidence graph, and its
  // complement plus a point at infinity on the exterior face is connected
  // too. *completed receives the completion, disc or not: the chosen
  // faces, every edge with both sides chosen, and every vertex with at
  // least one incident face whose incident faces are all chosen. A vertex
  // with no incident face lies in the closure of no chosen face, so it is
  // skipped rather than completed vacuously.
  bool IsDiscValue(const std::vector<char>& face_set,
                   std::vector<char>* completed) const;

 private:
  class Walker;  // The recursive evaluation of one query.

  std::vector<std::string> region_names_;
  int exterior_face_ = 0;
  int nv_ = 0, ne_ = 0, nf_ = 0;
  std::vector<std::vector<int>> closure_;    // Boundary cells per cell
                                             // (excluding the cell itself).
  std::vector<std::vector<int>> incidence_;  // Symmetric incidence graph.
  std::vector<std::vector<int>> face_dual_;  // Faces sharing an edge.
  std::vector<std::vector<int>> vertex_faces_;   // Incident faces per vertex.
  std::vector<std::pair<int, int>> edge_faces_;  // Faces on each side.
  std::map<std::string, std::vector<char>> region_values_;
};

}  // namespace topodb

#endif  // TOPODB_TESTS_REFERENCE_EVAL_H_
