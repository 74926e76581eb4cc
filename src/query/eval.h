#ifndef TOPODB_QUERY_EVAL_H_
#define TOPODB_QUERY_EVAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/arrangement/cell_complex.h"
#include "src/base/status.h"
#include "src/obs/deadline.h"
#include "src/obs/metrics.h"
#include "src/query/ast.h"
#include "src/query/cellset.h"
#include "src/query/parser.h"
#include "src/query/plan.h"
#include "src/region/instance.h"

namespace topodb {

// The pipeline layer's semantic verdict cache (pipeline/semantic_cache.h).
// Declared here so EvalOptions can carry a pointer to it; the engine
// itself never dereferences one — cache lookup/insert lives in
// EvaluateQueryCached at the pipeline layer, keeping query free of a
// pipeline dependency.
class SemanticCache;

struct EvalOptions {
  // Budget of legitimate region values (open-disc candidates) consumed
  // across all region quantifiers of one evaluation. The Section-7
  // disc-union range is exponential in the face count (the language has
  // PSPACE query complexity); the budget turns blowups into
  // ResourceExhausted errors instead of hangs. The budget is charged per
  // *disc* value (after the disc check), so for a quantifier that must
  // exhaust its range the exhaustion point depends only on the number of
  // disc values — an invariant of the instance's topology — and not on
  // the face ordering of a particular arrangement build.
  int64_t max_region_candidates = 200000;
  // Backstop on raw connected face sets enumerated per region-quantifier
  // instantiation (disc values are typically dense among connected sets,
  // but a pathological instance could interleave exponentially many
  // non-disc candidates between discs, which max_region_candidates alone
  // would not bound). The count is of raw candidates in enumeration
  // order, so the exhaustion point too is fixed by the instance and the
  // limit alone.
  int64_t max_enumeration_steps = int64_t{1} << 22;
  // Wall-clock bound for this evaluation, polled at entry, at every
  // quantifier binding, every ~1k raw candidates inside the
  // region-quantifier enumeration, and every ~1ms while waiting for
  // another evaluation's range extension; expiry returns DeadlineExceeded.
  // Default is infinite.
  Deadline deadline;
  // Optional caller-owned cancellation flag, polled at the same
  // checkpoints; cancellation also returns DeadlineExceeded.
  const CancelToken* cancel = nullptr;
  // Optional sink for evaluation metrics (atoms evaluated, quantifier
  // bindings explored, size of the shared range, per-query latency).
  // nullptr disables collection at near-zero cost.
  MetricsRegistry* metrics = nullptr;
  // Evaluate the canonical form (CanonicalizeQuery, src/query/plan.h)
  // instead of the written query; verdict-identical for queries whose
  // atom region names all resolve (the differential suites pin this).
  // Since canonicalization can fold an atom away or move it behind a
  // short circuit, this path first validates the input
  // (ValidateAtomNames) and fails with the evaluator's NotFound or
  // InvalidArgument. Off by default so the oracle and
  // differential paths see the written order; the server sets it for
  // inline-text EVAL_QUERY, and its cached path (EvaluateQueryCached)
  // always evaluates the canonical form it built for the cache key.
  bool plan = false;
  // Semantic verdict cache plumbing, read only by EvaluateQueryCached
  // (pipeline/semantic_cache.h) — QueryEngine::Evaluate itself never
  // consults the cache. `cache_entry_id` / `cache_format_version` name
  // the catalog entry this evaluation runs against, exactly the
  // EngineCache key: verdicts and engines invalidate together when a
  // re-ingest changes the entry id. cache_entry_id == 0 means "no
  // durable identity" (e.g. inline text) and disables caching.
  SemanticCache* semantic_cache = nullptr;
  uint64_t cache_entry_id = 0;
  uint32_t cache_format_version = 0;
};

// Evaluates region-based FO queries over one spatial instance, using the
// effective semantics of the paper's Section 7:
//   - terms denote cell sets of the instance's arrangement; ext(A) is the
//     set of cells interior to A;
//   - 'cell' variables range over single cells;
//   - 'region' variables range over unions of cells that are open discs
//     (completions of dual-connected face sets whose sphere complement is
//     connected);
//   - 'name' variables range over names(I), and `=` compares names;
//   - a variable resolves to its innermost binder, whatever the kinds of
//     the binders it shadows;
//   - atoms are connect and the 4-intersection relationships, evaluated
//     exactly on cell sets.
//
// There is one evaluator: cell sets are packed words (cellset.h), closures
// are precomputed per cell, and the region-quantifier range is
// materialized once per engine and shared by every binding and
// evaluation. The byte-per-cell reference semantics it is held to lives
// in tests/reference_eval.h.
//
// Evaluate is const and thread-safe: the materialized range is internally
// synchronized, so one engine can serve many concurrent evaluations (the
// server's workers share engines through EngineCache).
class QueryEngine {
 public:
  // Builds the cell complex of the instance once; queries evaluate on it.
  static Result<QueryEngine> Build(const SpatialInstance& instance);

  QueryEngine(QueryEngine&&) noexcept;
  QueryEngine& operator=(QueryEngine&&) noexcept;
  ~QueryEngine();

  Result<bool> Evaluate(const FormulaPtr& query,
                        const EvalOptions& options = {}) const;
  // Parse + evaluate.
  Result<bool> Evaluate(const std::string& query,
                        const EvalOptions& options = {}) const;

  const CellComplex& complex() const { return complex_; }

  // Number of cells in the universe (vertices + edges + faces).
  size_t num_cells() const { return closure_bits_.size(); }

  // True iff the completion of the face set is an open disc, exposed for
  // tests. It runs both halves of the face-level check (the chosen faces'
  // dual connectivity, then the complement's connectivity); the
  // region-quantifier range runs only the second, since every candidate it
  // enumerates is dual-connected by construction. `face_set` is indexed by
  // face (size complex().faces().size()). On a disc, *completed is the
  // completion: the chosen faces, every edge with both sides chosen, and
  // every vertex whose incident faces are all chosen. It has num_cells()
  // bits, laid out [0, nv) vertices, [nv, nv+ne) edges, [nv+ne, nv+ne+nf)
  // faces, each block in complex() order. On a non-disc it is empty.
  bool IsDiscValue(const CellSet& face_set, CellSet* completed) const;

  // Cumulative statistics of the materialized region-quantifier range
  // since Build (all evaluations and threads). Exported to
  // EvalOptions::metrics after each evaluation; exposed here for direct
  // inspection. Never waits for an evaluation that is extending the range.
  struct CacheStats {
    int64_t materialized_discs = 0;   // disc values in the shared range
    int64_t raw_candidates = 0;       // raw connected face sets consumed
  };
  CacheStats cache_stats() const;

  // Kept only for perfbench/replay.cc, which passes it to PlanQuery.
  SelectivityStats planner_stats() const { return {}; }

  // NotFound for the first atom region-name constant that does not
  // resolve; InvalidArgument, with the evaluator's own message, for the
  // first atom variable no enclosing quantifier binds and for the first
  // operand of `=` that is a variable not bound by a name quantifier
  // (the parser never builds either; a programmatic AST can hold one,
  // and written-order evaluation fails with the same status only if it
  // reaches it); OK otherwise. Name
  // constants in `=` are not looked up: unknown names there are legal
  // and simply compare unequal. Callers that rewrite a query before
  // evaluating it run this on the input first, since canonicalization
  // can fold such an operand away or move it behind a short circuit
  // (Evaluate with options.plan, and EvaluateQueryCached before it
  // builds its cache key).
  Status ValidateAtomNames(const Formula& query) const;

 private:
  friend class BitsetEvaluator;

  explicit QueryEngine(CellComplex complex);
  // Derives the tables below from complex_. Internal if a vertex has no
  // incident face: the disc check assumes every vertex has one, and
  // CellComplex::Build never emits such a vertex.
  Status BuildUniverse();

  // One materialized region-quantifier candidate: the completed open-disc
  // cell set, its topological closure, and the 1-based index of the raw
  // connected face set that produced it (for deterministic enumeration
  // accounting).
  struct DiscValue {
    CellSet cells;
    CellSet closure;
    int64_t raw_index = 0;
  };

  // The two halves of the face-level disc check. With every vertex
  // incident to a face, connectivity of the completion reduces to dual
  // connectivity of the chosen faces, and sphere-complement connectivity
  // to connectivity of the unchosen faces over face_adj_ext_ (with the
  // point at infinity on the exterior face). Each is one Flood over nf_
  // faces instead of a search over all cells; `scratch` holds
  // 4 * row_words_ words.
  bool ChosenFacesConnected(const CellSet& face_set, uint64_t* scratch) const;
  bool ComplementConnected(const CellSet& face_set, uint64_t* scratch) const;
  // Floods from face `start` over the adjacency `rows`, inside the allowed
  // faces held in the first row of `scratch`: ORs the rows of the frontier
  // faces, masks by the allowed set, and repeats until no new face is
  // reached. True iff it reaches every allowed face.
  bool Flood(const std::vector<uint64_t>& rows, int start,
             uint64_t* scratch) const;
  // The completion of a face set (no disc checking): chosen faces, edges
  // with both sides chosen, vertices with all incident faces chosen.
  void CompleteFaceSet(const CellSet& face_set, CellSet* completed) const;

  // Returns the k-th disc value of the shared materialized quantifier
  // range, lazily extending it (thread-safe); nullptr when the range is
  // exhausted before k. Errors with ResourceExhausted when reaching the
  // k-th disc (or exhaustion) would take more than max_steps raw
  // candidates — the same iteration point at which a fresh enumeration
  // per quantifier (the reference evaluator's) errors. An armed `stop` is
  // polled every ~1ms while another evaluation holds the range, and every
  // ~1k raw candidates while extending it.
  Result<const DiscValue*> FetchDiscValue(int64_t k, int64_t max_steps,
                                          const StopSignal& stop) const;

  // Topological closure of an arbitrary cell set (union of per-cell
  // precomputed closures).
  CellSet ClosureBits(const CellSet& cells) const;

  CellComplex complex_;
  // Cell ids: [0, nv) vertices, [nv, nv+ne) edges, [nv+ne, nv+ne+nf) faces.
  int nv_ = 0, ne_ = 0, nf_ = 0;
  // Face adjacency as rows of row_words_ = ceil(nf_ / 64) words: row f is
  // [f * row_words_, (f + 1) * row_words_), with bit g set iff face g is
  // adjacent to face f.
  size_t row_words_ = 0;
  std::vector<uint64_t> face_dual_;     // Faces sharing an edge.
  std::vector<uint64_t> face_adj_ext_;  // Faces sharing an edge or a vertex.
  std::vector<std::vector<int>> vertex_faces_;  // Incident faces per vertex.
  std::vector<std::pair<int, int>> edge_faces_;  // EdgeFaces(e), flattened.

  // Bitset universe: per-cell closures *including* the cell itself, so the
  // closure of any set is the word-parallel OR over its members.
  std::vector<CellSet> closure_bits_;
  std::map<std::string, CellSet> region_bits_;
  std::map<std::string, CellSet> region_closure_bits_;

  // The internally synchronized materialized quantifier range; behind a
  // pointer to keep the engine movable.
  struct DiscRange;
  std::unique_ptr<DiscRange> range_;
};

}  // namespace topodb

#endif  // TOPODB_QUERY_EVAL_H_
