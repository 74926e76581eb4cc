#include "src/query/eval.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <mutex>
#include <set>

#include "src/base/check.h"

namespace topodb {

namespace {

// The reference evaluator (tests/reference_eval.cc) produces the same
// texts at the same enumeration points.
Status BudgetExhaustedError(int64_t limit) {
  return Status::ResourceExhausted(
      "region quantifier candidate budget exhausted (max_region_candidates=" +
      std::to_string(limit) + ")");
}

Status StepsExhaustedError(int64_t limit) {
  return Status::ResourceExhausted(
      "region quantifier enumeration exceeded max_enumeration_steps=" +
      std::to_string(limit));
}

}  // namespace

// Resumable enumerator of the raw region-quantifier candidates: connected
// face sets of the dual graph, each produced exactly once (enumeration by
// canonical root + forbidden set), in exactly the order of the reference
// evaluator's recursive enumeration (tests/reference_eval.cc) — the
// explicit stack mirrors its call tree, so budget and step error points
// match the reference's.
class RawCandidateEnumerator {
 public:
  explicit RawCandidateEnumerator(const std::vector<std::vector<int>>& dual)
      : dual_(dual),
        nf_(static_cast<int>(dual.size())),
        mask_(nf_),
        chosen_(nf_, 0),
        banned_(nf_, 0) {
    if (nf_ <= 64) {
      dual_mask_.assign(nf_, 0);
      for (int f = 0; f < nf_; ++f) {
        for (int g : dual_[f]) dual_mask_[f] |= uint64_t{1} << g;
      }
    }
  }

  // Advances to the next candidate (in mask()); false when done.
  bool Next() { return nf_ <= 64 ? NextWord() : NextGeneral(); }

  // The current candidate as a face bitset.
  const CellSet& mask() const { return mask_; }

 private:
  // Word-mode stepping (nf_ <= 64): frames carry their unconsumed frontier
  // as a single word, consumed in ascending bit order — the same order as
  // the sorted frontier vectors of the general path, so both paths emit
  // the identical candidate sequence. A child's frontier is the parent's
  // remaining frontier OR the new face's neighbor mask; faces that are
  // already chosen or banned are filtered at consumption time, exactly as
  // in the general path (both states are stable for a frame's lifetime).
  bool NextWord() {
    while (true) {
      if (depth_ == 0) {
        ++root_;
        if (root_ >= nf_) return false;
        chosen_word_ = uint64_t{1} << root_;
        banned_word_ = (uint64_t{1} << root_) - 1;
        mask_.set_word(0, chosen_word_);
        PushWordFrame(root_, dual_mask_[root_]);
        return true;
      }
      WordFrame& top = word_stack_[depth_ - 1];
      if (top.frontier) {
        const int g = std::countr_zero(top.frontier);
        top.frontier &= top.frontier - 1;
        if ((banned_word_ | chosen_word_) >> g & 1) continue;
        chosen_word_ |= uint64_t{1} << g;
        mask_.set_word(0, chosen_word_);
        PushWordFrame(g, top.frontier | dual_mask_[g]);
        return true;
      }
      banned_word_ &= ~top.banned_here;
      const int entry = top.entry;
      --depth_;
      chosen_word_ &= ~(uint64_t{1} << entry);
      mask_.set_word(0, chosen_word_);
      if (depth_ > 0) {
        banned_word_ |= uint64_t{1} << entry;
        word_stack_[depth_ - 1].banned_here |= uint64_t{1} << entry;
      }
    }
  }

  // General stepping (vector frontiers, any nf_). The frontier of a frame
  // is inherited from its parent (sorted merge with the new face's
  // neighbors) instead of recomputed from the whole chosen set; entries
  // that are chosen or banned are skipped at consumption time. Both states
  // are stable for a frame's whole lifetime (the chosen set reverts to the
  // frame's base whenever control returns to it, and any ban visible at
  // push time is released only after the frame pops), so the consumed
  // sequence is exactly the recomputed frontier.
  bool NextGeneral() {
    while (true) {
      if (depth_ == 0) {
        ++root_;
        if (root_ >= nf_) return false;
        std::fill(chosen_.begin(), chosen_.end(), 0);
        std::fill(banned_.begin(), banned_.end(), 0);
        mask_.Clear();
        for (int f = 0; f < root_; ++f) banned_[f] = 1;
        chosen_[root_] = 1;
        mask_.Set(root_);
        Frame& frame = PushFrame(root_);
        frame.frontier = dual_[root_];
        return true;
      }
      Frame& top = stack_[depth_ - 1];
      if (top.idx < top.frontier.size()) {
        const int g = top.frontier[top.idx++];
        if (banned_[g] || chosen_[g]) continue;
        chosen_[g] = 1;
        mask_.Set(g);
        Frame& child = PushFrame(g);
        // `top` stays valid: PushFrame never reallocates live frames'
        // vectors, and child.frontier is a distinct vector.
        child.frontier.reserve(top.frontier.size() + dual_[g].size());
        std::set_union(top.frontier.begin(), top.frontier.end(),
                       dual_[g].begin(), dual_[g].end(),
                       std::back_inserter(child.frontier));
        return true;
      }
      for (int g : top.banned_here) banned_[g] = 0;
      const int entry = top.entry;
      --depth_;  // Pop; the frame's vectors stay allocated for reuse.
      chosen_[entry] = 0;
      mask_.Reset(entry);
      if (depth_ > 0) {
        banned_[entry] = 1;
        stack_[depth_ - 1].banned_here.push_back(entry);
      }
    }
  }

  struct Frame {
    int entry;                     // Face whose choice opened this frame.
    std::vector<int> frontier;     // Sorted, deduplicated.
    size_t idx;                    // Next frontier entry to try.
    std::vector<int> banned_here;  // Bans added by completed siblings.
  };

  struct WordFrame {
    int entry;             // Face whose choice opened this frame.
    uint64_t frontier;     // Unconsumed frontier faces.
    uint64_t banned_here;  // Bans added by completed siblings.
  };

  void PushWordFrame(int entry, uint64_t frontier) {
    if (depth_ == word_stack_.size()) word_stack_.emplace_back();
    WordFrame& frame = word_stack_[depth_++];
    frame.entry = entry;
    frame.frontier = frontier;
    frame.banned_here = 0;
  }

  // Grows the live stack by one frame, reusing popped frames' vector
  // capacity. stack_ is a deque so growth never moves live frames.
  Frame& PushFrame(int entry) {
    if (depth_ == stack_.size()) stack_.emplace_back();
    Frame& frame = stack_[depth_++];
    frame.entry = entry;
    frame.frontier.clear();
    frame.idx = 0;
    frame.banned_here.clear();
    return frame;
  }

  const std::vector<std::vector<int>>& dual_;
  int nf_;
  int root_ = -1;
  CellSet mask_;
  std::vector<char> chosen_, banned_;
  std::deque<Frame> stack_;
  size_t depth_ = 0;
  // Word-mode state (nf_ <= 64 only).
  std::vector<uint64_t> dual_mask_;
  uint64_t chosen_word_ = 0, banned_word_ = 0;
  std::vector<WordFrame> word_stack_;
};

// The materialized region-quantifier range: disc values in enumeration
// order, extended lazily and shared by every binding and evaluation on
// this engine. A deque keeps appended entries at stable addresses, so
// FetchDiscValue can hand out pointers.
struct QueryEngine::DiscRange {
  std::mutex mu;
  std::deque<DiscValue> values;
  std::unique_ptr<RawCandidateEnumerator> raw;
  int64_t raw_total = 0;
  bool exhausted = false;
};

QueryEngine::QueryEngine(CellComplex complex) : complex_(std::move(complex)) {}
QueryEngine::QueryEngine(QueryEngine&&) noexcept = default;
QueryEngine& QueryEngine::operator=(QueryEngine&&) noexcept = default;
QueryEngine::~QueryEngine() = default;

Result<QueryEngine> QueryEngine::Build(const SpatialInstance& instance) {
  TOPODB_ASSIGN_OR_RETURN(CellComplex complex, CellComplex::Build(instance));
  QueryEngine engine(std::move(complex));
  TOPODB_RETURN_NOT_OK(engine.BuildUniverse());
  return engine;
}

Status QueryEngine::BuildUniverse() {
  nv_ = static_cast<int>(complex_.vertices().size());
  ne_ = static_cast<int>(complex_.edges().size());
  nf_ = static_cast<int>(complex_.faces().size());
  const int total = nv_ + ne_ + nf_;
  face_dual_.assign(nf_, {});
  vertex_faces_.assign(nv_, {});
  edge_faces_.assign(ne_, {-1, -1});

  auto edge_cell = [&](int e) { return nv_ + e; };
  auto face_cell = [&](int f) { return nv_ + ne_ + f; };
  auto sort_unique = [](std::vector<std::vector<int>>* lists) {
    for (std::vector<int>& list : *lists) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  };

  // Per-cell closures including the cell itself, so the closure of any set
  // is the word-parallel OR of its members': an edge adds its endpoints, a
  // face the closures of the edges on any of its cycles.
  closure_bits_.assign(total, CellSet(total));
  for (int c = 0; c < total; ++c) closure_bits_[c].Set(c);
  for (int e = 0; e < ne_; ++e) {
    auto [u, v] = complex_.EdgeEndpoints(e);
    closure_bits_[edge_cell(e)].Set(u);
    closure_bits_[edge_cell(e)].Set(v);
  }
  for (int f = 0; f < nf_; ++f) {
    for (int rep : complex_.faces()[f].cycle_darts) {
      for (int d : complex_.FaceCycle(rep)) {
        closure_bits_[face_cell(f)] |=
            closure_bits_[edge_cell(complex_.darts()[d].edge)];
      }
    }
  }
  // Face duals: the two sides of every edge.
  for (int e = 0; e < ne_; ++e) {
    auto [lf, rf] = complex_.EdgeFaces(e);
    edge_faces_[e] = {lf, rf};
    if (lf != rf) {
      face_dual_[lf].push_back(rf);
      face_dual_[rf].push_back(lf);
    }
  }
  sort_unique(&face_dual_);
  // Extended adjacency: edge-shared neighbors plus corner-touching faces
  // (complement connectivity can route through a shared complement
  // vertex, so the face-level check needs vertex adjacency too).
  face_adj_ext_ = face_dual_;
  // Vertex incident faces from darts (faces of darts and of their twins).
  for (int v = 0; v < nv_; ++v) {
    std::set<int> faces;
    for (int d : complex_.vertices()[v].darts) {
      faces.insert(complex_.darts()[d].face);
      faces.insert(complex_.darts()[complex_.darts()[d].twin].face);
    }
    if (faces.empty()) {
      return Status::Internal("vertex " + std::to_string(v) +
                              " has no incident face");
    }
    vertex_faces_[v].assign(faces.begin(), faces.end());
    for (int a : vertex_faces_[v]) {
      for (int b : vertex_faces_[v]) {
        if (a != b) face_adj_ext_[a].push_back(b);
      }
    }
  }
  sort_unique(&face_adj_ext_);
  if (nf_ <= 64) {
    face_dual_mask_.assign(nf_, 0);
    face_adj_ext_mask_.assign(nf_, 0);
    for (int f = 0; f < nf_; ++f) {
      for (int g : face_dual_[f]) face_dual_mask_[f] |= uint64_t{1} << g;
      for (int g : face_adj_ext_[f]) {
        face_adj_ext_mask_[f] |= uint64_t{1} << g;
      }
    }
  }
  // Region values: cells with interior sign.
  for (size_t r = 0; r < complex_.region_names().size(); ++r) {
    CellSet value(total);
    for (int v = 0; v < nv_; ++v) {
      if (complex_.vertices()[v].label[r] == Sign::kInterior) value.Set(v);
    }
    for (int e = 0; e < ne_; ++e) {
      if (complex_.edges()[e].label[r] == Sign::kInterior) {
        value.Set(edge_cell(e));
      }
    }
    for (int f = 0; f < nf_; ++f) {
      if (complex_.faces()[f].label[r] == Sign::kInterior) {
        value.Set(face_cell(f));
      }
    }
    const std::string& name = complex_.region_names()[r];
    region_closure_bits_[name] = ClosureBits(value);
    region_bits_[name] = std::move(value);
  }
  range_ = std::make_unique<DiscRange>();
  return Status::OK();
}

bool QueryEngine::FaceSetIsDisc(const CellSet& face_set) const {
  // Completion connectivity == dual connectivity of the chosen faces: an
  // edge between two chosen faces is completed (a dual step stays inside
  // the completion), and conversely a path in the completion crosses only
  // completed edges (both sides chosen) and completed vertices (all faces
  // around them chosen, consecutively edge-adjacent).
  if (nf_ <= 64) {
    // Word-parallel path: connectivity by iterated neighbor-mask
    // expansion over a single word.
    const uint64_t chosen = face_set.word(0);
    if (chosen == 0) return false;
    uint64_t reached = chosen & (~chosen + 1);  // Lowest chosen face.
    uint64_t frontier = reached;
    while (frontier) {
      uint64_t next = 0;
      for (uint64_t w = frontier; w; w &= w - 1) {
        next |= face_dual_mask_[std::countr_zero(w)];
      }
      frontier = next & chosen & ~reached;
      reached |= frontier;
    }
    if (reached != chosen) return false;
    const uint64_t all =
        nf_ == 64 ? ~uint64_t{0} : (uint64_t{1} << nf_) - 1;
    const uint64_t unchosen = all & ~chosen;
    if (unchosen == 0) return true;  // Complement is the point at infinity.
    const uint64_t ext_bit = uint64_t{1} << complex_.exterior_face();
    if (chosen & ext_bit) return false;  // Infinity is cut off.
    reached = ext_bit;
    frontier = reached;
    while (frontier) {
      uint64_t next = 0;
      for (uint64_t w = frontier; w; w &= w - 1) {
        next |= face_adj_ext_mask_[std::countr_zero(w)];
      }
      frontier = next & unchosen & ~reached;
      reached |= frontier;
    }
    return reached == unchosen;
  }
  const int nchosen = face_set.Count();
  if (nchosen == 0) return false;
  // Scratch reused across calls (this runs once per raw enumeration
  // candidate; allocating here dominates the BFS itself).
  thread_local std::vector<char> seen;
  thread_local std::vector<int> stack;
  {
    int start = -1;
    for (int f = 0; f < nf_; ++f) {
      if (face_set.Test(f)) {
        start = f;
        break;
      }
    }
    seen.assign(nf_, 0);
    stack.clear();
    stack.push_back(start);
    seen[start] = 1;
    int reached = 1;
    while (!stack.empty()) {
      const int f = stack.back();
      stack.pop_back();
      for (int g : face_dual_[f]) {
        if (face_set.Test(g) && !seen[g]) {
          seen[g] = 1;
          ++reached;
          stack.push_back(g);
        }
      }
    }
    if (reached != nchosen) return false;
  }
  // Sphere-complement connectivity at the face level: every complement
  // edge/vertex is directly incident to an unchosen face, so complement
  // components biject with components of the unchosen faces under
  // face_adj_ext_ (plus the point at infinity on the exterior face).
  const int unchosen = nf_ - nchosen;
  if (unchosen == 0) return true;  // Complement is the point at infinity.
  const int exterior = complex_.exterior_face();
  if (face_set.Test(exterior)) return false;  // Infinity is cut off.
  seen.assign(nf_, 0);
  stack.clear();
  stack.push_back(exterior);
  seen[exterior] = 1;
  int reached = 1;
  while (!stack.empty()) {
    const int f = stack.back();
    stack.pop_back();
    for (int g : face_adj_ext_[f]) {
      if (!face_set.Test(g) && !seen[g]) {
        seen[g] = 1;
        ++reached;
        stack.push_back(g);
      }
    }
  }
  return reached == unchosen;
}

void QueryEngine::CompleteFaceSet(const CellSet& face_set,
                                  CellSet* completed) const {
  completed->Assign(nv_ + ne_ + nf_);
  face_set.ForEachSetBit([&](int f) { completed->Set(nv_ + ne_ + f); });
  for (int e = 0; e < ne_; ++e) {
    auto [lf, rf] = edge_faces_[e];
    if (face_set.Test(lf) && face_set.Test(rf)) completed->Set(nv_ + e);
  }
  // Every vertex has an incident face (BuildUniverse), so this never
  // completes a vertex vacuously.
  for (int v = 0; v < nv_; ++v) {
    const std::vector<int>& faces = vertex_faces_[v];
    if (std::all_of(faces.begin(), faces.end(),
                    [&](int f) { return face_set.Test(f); })) {
      completed->Set(v);
    }
  }
}

bool QueryEngine::IsDiscValue(const CellSet& face_set,
                              CellSet* completed) const {
  if (FaceSetIsDisc(face_set)) {
    CompleteFaceSet(face_set, completed);
    return true;
  }
  completed->Assign(nv_ + ne_ + nf_);
  return false;
}

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(range_->mu);
  CacheStats stats;
  stats.materialized_discs = static_cast<int64_t>(range_->values.size());
  stats.raw_candidates = range_->raw_total;
  return stats;
}

CellSet QueryEngine::ClosureBits(const CellSet& cells) const {
  CellSet out = cells;
  cells.ForEachSetBit([&](int c) { out |= closure_bits_[c]; });
  return out;
}

Result<const QueryEngine::DiscValue*> QueryEngine::FetchDiscValue(
    int64_t k, int64_t max_steps, const StopSignal& stop) const {
  DiscRange& range = *range_;
  const bool stop_armed = stop.armed();
  std::lock_guard<std::mutex> lock(range.mu);
  while (static_cast<int64_t>(range.values.size()) <= k && !range.exhausted) {
    // The next raw candidate would be number raw_total + 1; a fresh
    // enumeration per quantifier errors when its counter exceeds
    // max_steps, and every instantiation replays the same prefix of the
    // same sequence, so the global counter is exactly its counter.
    if (range.raw_total >= max_steps) return StepsExhaustedError(max_steps);
    // Cancellation checkpoint: range extension is the unbounded part of a
    // region quantifier, so poll here (cheaply, once per ~1k candidates).
    if (stop_armed && (range.raw_total & 1023) == 0 && stop.ShouldStop()) {
      return stop.Check();
    }
    if (range.raw == nullptr) {
      range.raw = std::make_unique<RawCandidateEnumerator>(face_dual_);
    }
    if (!range.raw->Next()) {
      range.exhausted = true;
      break;
    }
    ++range.raw_total;
    // Each raw candidate is produced exactly once across the engine's
    // lifetime (canonical-root enumeration), so the completion is only
    // materialized for candidates that are discs.
    const CellSet& faces = range.raw->mask();
    if (!FaceSetIsDisc(faces)) continue;
    DiscValue value;
    CompleteFaceSet(faces, &value.cells);
    // The closure of a completion is the union of its chosen faces'
    // precomputed closures: completed edges/vertices lie inside those
    // closures already, and an edge's closure (its endpoints) inside its
    // faces'.
    value.closure = value.cells;
    faces.ForEachSetBit(
        [&](int f) { value.closure |= closure_bits_[nv_ + ne_ + f]; });
    value.raw_index = range.raw_total;
    range.values.push_back(std::move(value));
  }
  if (static_cast<int64_t>(range.values.size()) > k) {
    const DiscValue& value = range.values[k];
    // Cached from a run with a larger step limit; this caller's fresh
    // enumeration would have errored before producing it.
    if (value.raw_index > max_steps) return StepsExhaustedError(max_steps);
    return &value;
  }
  if (range.raw_total > max_steps) return StepsExhaustedError(max_steps);
  return static_cast<const DiscValue*>(nullptr);
}

// --- Evaluation (packed words, shared materialized quantifier range) ---

class BitsetEvaluator {
 public:
  // A bound region/cell variable: the value and its topological closure,
  // computed once at bind time so atoms never recompute closures.
  struct Binding {
    CellSet value;
    CellSet closure;
  };
  struct Env {
    std::map<std::string, Binding> cells;
    std::map<std::string, std::string> names;
  };

  BitsetEvaluator(const QueryEngine& engine, const EvalOptions& options)
      : engine_(engine),
        budget_(options.max_region_candidates),
        budget_limit_(options.max_region_candidates),
        max_steps_(options.max_enumeration_steps),
        stop_(options.deadline, options.cancel),
        stop_armed_(stop_.armed()) {}

  // Work tallies, flushed to EvalOptions::metrics by the caller (plain
  // locals here so the hot path never touches shared state).
  uint64_t atoms() const { return atoms_; }
  uint64_t bindings() const { return bindings_; }

  Result<bool> Eval(const FormulaPtr& formula, Env* env) {
    switch (formula->kind) {
      case Formula::Kind::kTrue: return true;
      case Formula::Kind::kFalse: return false;
      case Formula::Kind::kAtom: return EvalAtom(*formula, env);
      case Formula::Kind::kNameEq: {
        TOPODB_ASSIGN_OR_RETURN(std::string a, NameOf(formula->lhs, env));
        TOPODB_ASSIGN_OR_RETURN(std::string b, NameOf(formula->rhs, env));
        return a == b;
      }
      case Formula::Kind::kNot: {
        TOPODB_ASSIGN_OR_RETURN(bool v, Eval(formula->left, env));
        return !v;
      }
      case Formula::Kind::kAnd: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        if (!a) return false;
        return Eval(formula->right, env);
      }
      case Formula::Kind::kOr: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        if (a) return true;
        return Eval(formula->right, env);
      }
      case Formula::Kind::kImplies: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        if (!a) return true;
        return Eval(formula->right, env);
      }
      case Formula::Kind::kIff: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        TOPODB_ASSIGN_OR_RETURN(bool b, Eval(formula->right, env));
        return a == b;
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForall:
        return EvalQuantifier(*formula, env);
    }
    TOPODB_UNREACHABLE();
  }

 private:
  // A term's value and closure, borrowed from the environment or from the
  // engine's precomputed per-region sets.
  struct ValueRef {
    const CellSet* value;
    const CellSet* closure;
  };

  Result<std::string> NameOf(const Term& term, Env* env) {
    if (term.kind == Term::Kind::kNameConstant) return term.text;
    auto it = env->names.find(term.text);
    if (it == env->names.end()) {
      return Status::InvalidArgument("'" + term.text +
                                     "' is not a name in this context");
    }
    return it->second;
  }

  Result<ValueRef> RegionRef(const std::string& name) const {
    auto it = engine_.region_bits_.find(name);
    if (it == engine_.region_bits_.end()) {
      return Status::NotFound("no region named " + name);
    }
    return ValueRef{&it->second,
                    &engine_.region_closure_bits_.find(name)->second};
  }

  Result<ValueRef> ValueOf(const Term& term, Env* env) {
    if (term.kind == Term::Kind::kVariable) {
      auto cell_it = env->cells.find(term.text);
      if (cell_it != env->cells.end()) {
        return ValueRef{&cell_it->second.value, &cell_it->second.closure};
      }
      auto name_it = env->names.find(term.text);
      if (name_it != env->names.end()) return RegionRef(name_it->second);
      return Status::InvalidArgument("unbound variable " + term.text);
    }
    return RegionRef(term.text);
  }

  Result<bool> EvalAtom(const Formula& atom, Env* env) {
    ++atoms_;
    TOPODB_ASSIGN_OR_RETURN(ValueRef s, ValueOf(atom.lhs, env));
    TOPODB_ASSIGN_OR_RETURN(ValueRef t, ValueOf(atom.rhs, env));
    auto boundary = [](const ValueRef& r) {
      CellSet b = *r.closure;
      b.AndNot(*r.value);
      return b;
    };
    switch (atom.predicate) {
      case Predicate::kConnect: return s.closure->Intersects(*t.closure);
      case Predicate::kDisjoint: return !s.closure->Intersects(*t.closure);
      case Predicate::kIntersects: return s.value->Intersects(*t.value);
      case Predicate::kSubset: return s.value->IsSubsetOf(*t.value);
      case Predicate::kBoundaryPart:
        return s.value->IsSubsetOf(boundary(t));
      case Predicate::kEqual: return *s.value == *t.value;
      case Predicate::kOverlap:
        return s.value->Intersects(*t.value) &&
               !s.value->IsSubsetOf(*t.value) &&
               !t.value->IsSubsetOf(*s.value);
      case Predicate::kMeet:
        return s.closure->Intersects(*t.closure) &&
               !s.value->Intersects(*t.value);
      case Predicate::kInside:
        return !(*s.value == *t.value) && s.value->IsSubsetOf(*t.value) &&
               !boundary(s).Intersects(boundary(t));
      case Predicate::kContains:
        return !(*s.value == *t.value) && t.value->IsSubsetOf(*s.value) &&
               !boundary(s).Intersects(boundary(t));
      case Predicate::kCovers:
        return !(*s.value == *t.value) && t.value->IsSubsetOf(*s.value) &&
               boundary(s).Intersects(boundary(t));
      case Predicate::kCoveredBy:
        return !(*s.value == *t.value) && s.value->IsSubsetOf(*t.value) &&
               boundary(s).Intersects(boundary(t));
    }
    TOPODB_UNREACHABLE();
  }

  Result<bool> EvalQuantifier(const Formula& formula, Env* env) {
    const bool exists = formula.kind == Formula::Kind::kExists;
    switch (formula.var_kind) {
      case Formula::VarKind::kName: {
        for (const std::string& name : engine_.complex_.region_names()) {
          if (stop_armed_ && stop_.ShouldStop()) return stop_.Check();
          ++bindings_;
          env->names[formula.var] = name;
          Result<bool> v = Eval(formula.body, env);
          env->names.erase(formula.var);
          TOPODB_ASSIGN_OR_RETURN(bool value, std::move(v));
          if (value == exists) return exists;
        }
        return !exists;
      }
      case Formula::VarKind::kCell: {
        const int total = static_cast<int>(engine_.num_cells());
        // One map slot for the whole sweep; per-binding updates reuse the
        // CellSet storage (copy assignment keeps capacity).
        Binding& slot = env->cells[formula.var];
        slot.value = CellSet(total);
        for (int c = 0; c < total; ++c) {
          if (stop_armed_ && stop_.ShouldStop()) {
            env->cells.erase(formula.var);
            return stop_.Check();
          }
          ++bindings_;
          if (c > 0) slot.value.Reset(c - 1);
          slot.value.Set(c);
          slot.closure = engine_.closure_bits_[c];
          Result<bool> v = Eval(formula.body, env);
          if (!v.ok() || *v == exists) {
            env->cells.erase(formula.var);
            TOPODB_ASSIGN_OR_RETURN(bool result, std::move(v));
            if (result == exists) return exists;
          }
        }
        env->cells.erase(formula.var);
        return !exists;
      }
      case Formula::VarKind::kRegion: {
        // Iterate the engine's shared materialized range: disc values (and
        // their closures) are computed once per engine, then replayed for
        // every binding of every quantifier of every evaluation.
        Binding& slot = env->cells[formula.var];
        for (int64_t k = 0;; ++k) {
          if (stop_armed_ && stop_.ShouldStop()) {
            env->cells.erase(formula.var);
            return stop_.Check();
          }
          Result<const QueryEngine::DiscValue*> value =
              engine_.FetchDiscValue(k, max_steps_, stop_);
          if (!value.ok() || *value == nullptr || --budget_ < 0) {
            env->cells.erase(formula.var);
            TOPODB_ASSIGN_OR_RETURN(const QueryEngine::DiscValue* v,
                                    std::move(value));
            if (v == nullptr) return !exists;
            return BudgetExhaustedError(budget_limit_);
          }
          ++bindings_;
          slot.value = (*value)->cells;
          slot.closure = (*value)->closure;
          Result<bool> v = Eval(formula.body, env);
          if (!v.ok() || *v == exists) {
            env->cells.erase(formula.var);
            TOPODB_ASSIGN_OR_RETURN(bool result, std::move(v));
            if (result == exists) return exists;
          }
        }
      }
      case Formula::VarKind::kRect:
        return Status::Unsupported(
            "rect quantifiers are evaluated by RectQueryEngine");
    }
    TOPODB_UNREACHABLE();
  }

  const QueryEngine& engine_;
  int64_t budget_;
  const int64_t budget_limit_;
  const int64_t max_steps_;
  const StopSignal stop_;
  // Hoisted stop_.armed(): the common un-deadlined evaluation pays one
  // constant-member test per checkpoint instead of re-deriving armedness.
  const bool stop_armed_;
  uint64_t atoms_ = 0;
  uint64_t bindings_ = 0;
};

// --- Entry points ---

Status QueryEngine::ValidateAtomNames(const Formula& query) const {
  switch (query.kind) {
    case Formula::Kind::kAtom:
      for (const Term* term : {&query.lhs, &query.rhs}) {
        if (term->kind == Term::Kind::kNameConstant &&
            region_bits_.find(term->text) == region_bits_.end()) {
          return Status::NotFound("no region named " + term->text);
        }
      }
      return Status::OK();
    case Formula::Kind::kNot:
      return ValidateAtomNames(*query.left);
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kImplies:
    case Formula::Kind::kIff: {
      Status left = ValidateAtomNames(*query.left);
      if (!left.ok()) return left;
      return ValidateAtomNames(*query.right);
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall:
      return ValidateAtomNames(*query.body);
    default:
      return Status::OK();
  }
}

Result<bool> QueryEngine::Evaluate(const FormulaPtr& query,
                                   const EvalOptions& options) const {
  Result<bool> result = [&]() -> Result<bool> {
    ScopedTimer latency(RegistryHistogram(options.metrics, "query.eval_us"));
    // Entry checkpoint: an already-expired deadline rejects the evaluation
    // before any work, whatever the query's shape. With metrics enabled
    // the rejection still counts as an evaluation (and a
    // deadline_exceeded).
    TOPODB_RETURN_NOT_OK(StopSignal(options.deadline, options.cancel).Check());
    FormulaPtr formula = query;
    if (options.plan) {
      // Validate against the *input* query: canonicalization may simplify
      // an unknown-name atom away entirely (phi and false -> false), or
      // move it behind a short circuit; failing up front keeps "does this
      // query error?" independent of the order evaluated.
      TOPODB_RETURN_NOT_OK(ValidateAtomNames(*query));
      {
        ScopedTimer plan_timer(
            RegistryHistogram(options.metrics, "planner.plan_us"));
        formula = CanonicalizeQuery(query);
      }
      CounterAdd(RegistryCounter(options.metrics, "planner.plans"));
    }
    BitsetEvaluator evaluator(*this, options);
    BitsetEvaluator::Env env;
    Result<bool> verdict = evaluator.Eval(formula, &env);
    CounterAdd(RegistryCounter(options.metrics, "query.atoms"),
               evaluator.atoms());
    CounterAdd(RegistryCounter(options.metrics, "query.bindings"),
               evaluator.bindings());
    return verdict;
  }();
  if (options.metrics == nullptr) return result;
  options.metrics->counter("query.evaluations")->Add(1);
  if (!result.ok() &&
      result.status().code() == StatusCode::kDeadlineExceeded) {
    options.metrics->counter("query.deadline_exceeded")->Add(1);
  }
  // Engine-cumulative range state, exported as gauges (Set, not Add:
  // many evaluations share the range).
  const CacheStats stats = cache_stats();
  options.metrics->gauge("query.range_discs")->Set(stats.materialized_discs);
  options.metrics->gauge("query.range_raw_candidates")
      ->Set(stats.raw_candidates);
  return result;
}

Result<bool> QueryEngine::Evaluate(const std::string& query,
                                   const EvalOptions& options) const {
  TOPODB_ASSIGN_OR_RETURN(FormulaPtr formula, ParseQuery(query));
  return Evaluate(formula, options);
}

}  // namespace topodb
