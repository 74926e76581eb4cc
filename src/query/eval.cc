#include "src/query/eval.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
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

// Bit f of a face row (a face set of whole words, face f in word f / 64).
bool TestFace(const uint64_t* row, int f) {
  return (row[f >> 6] >> (f & 63)) & 1;
}
void SetFace(uint64_t* row, int f) { row[f >> 6] |= uint64_t{1} << (f & 63); }

}  // namespace

// Resumable enumerator of the raw region-quantifier candidates: connected
// face sets of the dual graph, each produced exactly once (enumeration by
// canonical root + forbidden set), in exactly the order of the reference
// evaluator's recursive enumeration (tests/reference_eval.cc) — the
// explicit stack mirrors its call tree, so budget and step error points
// match the reference's.
//
// Face sets are rows of W = ceil(nf / 64) words. Each stack frame holds two
// rows: its unconsumed frontier, and the bans its finished children added.
// A child's frontier is the parent's remaining frontier OR the new face's
// dual row, consumed lowest face first; chosen and banned faces are skipped
// at consumption time. Both states are stable for a frame's lifetime (the
// chosen set reverts to the frame's base whenever control returns to it,
// and any ban visible at push time is lifted only after the frame pops), so
// the consumed sequence is exactly the sorted frontier the reference
// recomputes from the whole chosen set.
class RawCandidateEnumerator {
 public:
  // `dual` holds nf rows of W words, row f the faces sharing an edge with f.
  RawCandidateEnumerator(const uint64_t* dual, int nf)
      : dual_(dual),
        nf_(nf),
        w_((static_cast<size_t>(nf) + 63) / 64),
        mask_(nf),
        banned_(w_, 0) {}

  // Advances to the next candidate (in mask()); false when done.
  bool Next() {
    while (true) {
      if (depth_ == 0) {
        // The previous root's sets are all produced and its bans lifted;
        // every later set holding it would repeat one, so ban it.
        if (root_ + 1 >= nf_) return false;
        if (root_ >= 0) SetFace(banned_.data(), root_);
        mask_.Set(++root_);
        Push(root_);
        return true;
      }
      uint64_t* top = FrameRows(depth_ - 1);
      const int g = PopLowest(top);
      if (g >= 0) {
        if (TestFace(banned_.data(), g) || mask_.Test(g)) continue;
        mask_.Set(g);
        Push(g);
        return true;
      }
      // The top frame is spent: lift its children's bans, unchoose its face
      // and ban that face for the parent's remaining children.
      for (size_t j = 0; j < w_; ++j) banned_[j] &= ~top[w_ + j];
      const int entry = entries_[--depth_];
      mask_.Reset(entry);
      if (depth_ > 0) {
        SetFace(banned_.data(), entry);
        SetFace(FrameRows(depth_ - 1) + w_, entry);
      }
    }
  }

  // The current candidate as a face bitset.
  const CellSet& mask() const { return mask_; }

 private:
  // Frame d: its frontier row, then its ban row.
  uint64_t* FrameRows(size_t d) { return &frames_[d * 2 * w_]; }

  // Opens a frame for the newly chosen face `entry`: its frontier is the
  // parent's unconsumed frontier (none for a root) OR entry's dual row.
  void Push(int entry) {
    if (depth_ == entries_.size()) {
      entries_.push_back(0);
      frames_.resize(frames_.size() + 2 * w_);
    }
    entries_[depth_] = entry;
    uint64_t* frame = FrameRows(depth_);
    std::copy_n(dual_ + entry * w_, w_, frame);
    if (depth_ > 0) {
      const uint64_t* parent = FrameRows(depth_ - 1);
      for (size_t j = 0; j < w_; ++j) frame[j] |= parent[j];
    }
    std::fill_n(frame + w_, w_, 0);
    ++depth_;
  }

  // Removes and returns the lowest face of a frontier row; -1 if it is empty.
  int PopLowest(uint64_t* row) const {
    for (size_t j = 0; j < w_; ++j) {
      if (row[j] != 0) {
        const int g = static_cast<int>(j * 64) + std::countr_zero(row[j]);
        row[j] &= row[j] - 1;
        return g;
      }
    }
    return -1;
  }

  const uint64_t* dual_;
  int nf_;
  size_t w_;
  int root_ = -1;
  CellSet mask_;                  // Chosen faces.
  std::vector<uint64_t> banned_;  // Banned faces, one row.
  size_t depth_ = 0;
  std::vector<int> entries_;      // Per frame: the face that opened it.
  std::vector<uint64_t> frames_;  // Per frame: two rows (see FrameRows).
};

// The materialized region-quantifier range: disc values in enumeration
// order, extended lazily and shared by every binding and evaluation on
// this engine. A deque keeps appended entries at stable addresses, so
// FetchDiscValue can hand out pointers. Everything but the two counts is
// guarded by mu; the counts are written under it and read without it by
// cache_stats().
struct QueryEngine::DiscRange {
  DiscRange(const uint64_t* dual, int nf, size_t row_words)
      : raw(dual, nf), scratch(4 * row_words) {}

  std::timed_mutex mu;
  std::deque<DiscValue> values;
  RawCandidateEnumerator raw;
  std::vector<uint64_t> scratch;  // The complement flood's rows.
  bool exhausted = false;
  std::atomic<int64_t> raw_total{0};
  std::atomic<int64_t> discs{0};
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
  row_words_ = (static_cast<size_t>(nf_) + 63) / 64;
  face_dual_.assign(nf_ * row_words_, 0);
  vertex_faces_.assign(nv_, {});
  edge_faces_.assign(ne_, {-1, -1});

  auto edge_cell = [&](int e) { return nv_ + e; };
  auto face_cell = [&](int f) { return nv_ + ne_ + f; };
  auto link = [&](std::vector<uint64_t>* rows, int a, int b) {
    SetFace(&(*rows)[a * row_words_], b);
    SetFace(&(*rows)[b * row_words_], a);
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
    if (lf != rf) link(&face_dual_, lf, rf);
  }
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
        if (a < b) link(&face_adj_ext_, a, b);
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
  range_ = std::make_unique<DiscRange>(face_dual_.data(), nf_, row_words_);
  return Status::OK();
}

bool QueryEngine::Flood(const std::vector<uint64_t>& rows, int start,
                        uint64_t* scratch) const {
  const size_t w = row_words_;
  const uint64_t* allowed = scratch;
  uint64_t* reached = scratch + w;
  uint64_t* frontier = scratch + 2 * w;
  uint64_t* next = scratch + 3 * w;
  std::fill_n(frontier, w, 0);
  SetFace(frontier, start);
  std::copy_n(frontier, w, reached);
  for (bool grew = true; grew;) {
    std::fill_n(next, w, 0);
    for (size_t i = 0; i < w; ++i) {
      for (uint64_t bits = frontier[i]; bits != 0; bits &= bits - 1) {
        const uint64_t* row = &rows[(i * 64 + std::countr_zero(bits)) * w];
        for (size_t j = 0; j < w; ++j) next[j] |= row[j];
      }
    }
    grew = false;
    for (size_t j = 0; j < w; ++j) {
      frontier[j] = next[j] & allowed[j] & ~reached[j];
      reached[j] |= frontier[j];
      grew |= frontier[j] != 0;
    }
  }
  return std::equal(reached, reached + w, allowed);
}

bool QueryEngine::ChosenFacesConnected(const CellSet& face_set,
                                       uint64_t* scratch) const {
  // Completion connectivity == dual connectivity of the chosen faces: an
  // edge between two chosen faces is completed (a dual step stays inside
  // the completion), and conversely a path in the completion crosses only
  // completed edges (both sides chosen) and completed vertices (all faces
  // around them chosen, consecutively edge-adjacent).
  int start = -1;
  for (size_t j = 0; j < row_words_; ++j) {
    scratch[j] = face_set.word(j);
    if (start < 0 && scratch[j] != 0) {
      start = static_cast<int>(j * 64) + std::countr_zero(scratch[j]);
    }
  }
  return start >= 0 && Flood(face_dual_, start, scratch);
}

bool QueryEngine::ComplementConnected(const CellSet& face_set,
                                      uint64_t* scratch) const {
  // Sphere-complement connectivity at the face level: every complement
  // edge/vertex is directly incident to an unchosen face, so complement
  // components biject with components of the unchosen faces under
  // face_adj_ext_ (plus the point at infinity on the exterior face).
  bool any = false;
  for (size_t j = 0; j < row_words_; ++j) {
    const int left = nf_ - static_cast<int>(j * 64);  // Faces from word j.
    const uint64_t all = left >= 64 ? ~uint64_t{0} : (uint64_t{1} << left) - 1;
    scratch[j] = all & ~face_set.word(j);
    any |= scratch[j] != 0;
  }
  if (!any) return true;  // Complement is the point at infinity.
  const int exterior = complex_.exterior_face();
  if (face_set.Test(exterior)) return false;  // Infinity is cut off.
  return Flood(face_adj_ext_, exterior, scratch);
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
  std::vector<uint64_t> scratch(4 * row_words_);
  if (ChosenFacesConnected(face_set, scratch.data()) &&
      ComplementConnected(face_set, scratch.data())) {
    CompleteFaceSet(face_set, completed);
    return true;
  }
  completed->Assign(nv_ + ne_ + nf_);
  return false;
}

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  CacheStats stats;
  stats.materialized_discs = range_->discs.load(std::memory_order_relaxed);
  stats.raw_candidates = range_->raw_total.load(std::memory_order_relaxed);
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
  std::unique_lock<std::timed_mutex> lock(range.mu, std::defer_lock);
  if (!stop_armed) {
    lock.lock();
  } else {
    // Another evaluation may hold the lock for a whole extension, so poll
    // while waiting. The wait is on system_clock: libstdc++ turns a
    // steady_clock wait into pthread_mutex_clocklock, which GCC 12's
    // ThreadSanitizer does not intercept.
    while (!lock.try_lock_until(std::chrono::system_clock::now() +
                                std::chrono::milliseconds(1))) {
      if (stop.ShouldStop()) return stop.Check();
    }
  }
  int64_t raw_total = range.raw_total.load(std::memory_order_relaxed);
  while (static_cast<int64_t>(range.values.size()) <= k && !range.exhausted) {
    // The next raw candidate would be number raw_total + 1; a fresh
    // enumeration per quantifier errors when its counter exceeds
    // max_steps, and every instantiation replays the same prefix of the
    // same sequence, so the global counter is exactly its counter.
    if (raw_total >= max_steps) return StepsExhaustedError(max_steps);
    // Cancellation checkpoint: range extension is the unbounded part of a
    // region quantifier, so poll here (cheaply, once per ~1k candidates).
    if (stop_armed && (raw_total & 1023) == 0 && stop.ShouldStop()) {
      return stop.Check();
    }
    if (!range.raw.Next()) {
      range.exhausted = true;
      break;
    }
    range.raw_total.store(++raw_total, std::memory_order_relaxed);
    // Each raw candidate is produced exactly once across the engine's
    // lifetime (canonical-root enumeration), so the completion is only
    // materialized for candidates that are discs. Every candidate is
    // grown by adding dual neighbours, so it is dual-connected already:
    // only its complement needs checking.
    const CellSet& faces = range.raw.mask();
    if (!ComplementConnected(faces, range.scratch.data())) continue;
    DiscValue value;
    CompleteFaceSet(faces, &value.cells);
    // The closure of a completion is the union of its chosen faces'
    // precomputed closures: completed edges/vertices lie inside those
    // closures already, and an edge's closure (its endpoints) inside its
    // faces'.
    value.closure = value.cells;
    faces.ForEachSetBit(
        [&](int f) { value.closure |= closure_bits_[nv_ + ne_ + f]; });
    value.raw_index = raw_total;
    range.values.push_back(std::move(value));
    range.discs.store(static_cast<int64_t>(range.values.size()),
                      std::memory_order_relaxed);
  }
  if (static_cast<int64_t>(range.values.size()) > k) {
    const DiscValue& value = range.values[k];
    // Cached from a run with a larger step limit; this caller's fresh
    // enumeration would have errored before producing it.
    if (value.raw_index > max_steps) return StepsExhaustedError(max_steps);
    return &value;
  }
  if (raw_total > max_steps) return StepsExhaustedError(max_steps);
  return static_cast<const DiscValue*>(nullptr);
}

// --- Evaluation (packed words, shared materialized quantifier range) ---

class BitsetEvaluator {
 public:
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

  Result<bool> Eval(const FormulaPtr& formula) {
    switch (formula->kind) {
      case Formula::Kind::kTrue: return true;
      case Formula::Kind::kFalse: return false;
      case Formula::Kind::kAtom: return EvalAtom(*formula);
      case Formula::Kind::kNameEq: {
        TOPODB_ASSIGN_OR_RETURN(std::string a, NameOf(formula->lhs));
        TOPODB_ASSIGN_OR_RETURN(std::string b, NameOf(formula->rhs));
        return a == b;
      }
      case Formula::Kind::kNot: {
        TOPODB_ASSIGN_OR_RETURN(bool v, Eval(formula->left));
        return !v;
      }
      case Formula::Kind::kAnd: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left));
        if (!a) return false;
        return Eval(formula->right);
      }
      case Formula::Kind::kOr: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left));
        if (a) return true;
        return Eval(formula->right);
      }
      case Formula::Kind::kImplies: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left));
        if (!a) return true;
        return Eval(formula->right);
      }
      case Formula::Kind::kIff: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left));
        TOPODB_ASSIGN_OR_RETURN(bool b, Eval(formula->right));
        return a == b;
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForall: {
        scope_.emplace_back().binder = formula.get();
        Result<bool> v = EvalQuantifier(*formula, scope_.size() - 1);
        scope_.pop_back();
        return v;
      }
    }
    TOPODB_UNREACHABLE();
  }

 private:
  // One bound variable: a name binder's region name, or a cell/region
  // binder's value and its topological closure, computed once at bind
  // time so atoms never recompute closures.
  struct Binding {
    const Formula* binder = nullptr;
    const std::string* name = nullptr;
    CellSet value;
    CellSet closure;
  };

  // A term's value and closure, borrowed from the scope or from the
  // engine's precomputed per-region sets.
  struct ValueRef {
    const CellSet* value;
    const CellSet* closure;
  };

  // The innermost binding of `var` (the scope is searched innermost
  // first, whatever the binders' kinds), or nullptr.
  const Binding* Lookup(const std::string& var) const {
    for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
      if (it->binder->var == var) return &*it;
    }
    return nullptr;
  }

  Result<std::string> NameOf(const Term& term) const {
    if (term.kind == Term::Kind::kNameConstant) return term.text;
    const Binding* binding = Lookup(term.text);
    if (binding == nullptr ||
        binding->binder->var_kind != Formula::VarKind::kName) {
      return Status::InvalidArgument("'" + term.text +
                                     "' is not a name in this context");
    }
    return *binding->name;
  }

  Result<ValueRef> RegionRef(const std::string& name) const {
    auto it = engine_.region_bits_.find(name);
    if (it == engine_.region_bits_.end()) {
      return Status::NotFound("no region named " + name);
    }
    return ValueRef{&it->second,
                    &engine_.region_closure_bits_.find(name)->second};
  }

  Result<ValueRef> ValueOf(const Term& term) const {
    if (term.kind == Term::Kind::kNameConstant) return RegionRef(term.text);
    const Binding* binding = Lookup(term.text);
    if (binding == nullptr) {
      return Status::InvalidArgument("unbound variable " + term.text);
    }
    if (binding->binder->var_kind == Formula::VarKind::kName) {
      return RegionRef(*binding->name);
    }
    return ValueRef{&binding->value, &binding->closure};
  }

  Result<bool> EvalAtom(const Formula& atom) {
    ++atoms_;
    TOPODB_ASSIGN_OR_RETURN(ValueRef s, ValueOf(atom.lhs));
    TOPODB_ASSIGN_OR_RETURN(ValueRef t, ValueOf(atom.rhs));
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

  // Binds scope_[slot] to each value of the quantifier's range in turn
  // and evaluates the body, until a binding decides the quantifier. The
  // slot is addressed by index, never by a reference held across the
  // body: the body's own quantifiers push above it and may reallocate
  // the scope.
  Result<bool> EvalQuantifier(const Formula& formula, size_t slot) {
    const bool exists = formula.kind == Formula::Kind::kExists;
    switch (formula.var_kind) {
      case Formula::VarKind::kName: {
        for (const std::string& name : engine_.complex_.region_names()) {
          if (stop_armed_ && stop_.ShouldStop()) return stop_.Check();
          ++bindings_;
          scope_[slot].name = &name;
          TOPODB_ASSIGN_OR_RETURN(bool value, Eval(formula.body));
          if (value == exists) return exists;
        }
        return !exists;
      }
      case Formula::VarKind::kCell: {
        const int total = static_cast<int>(engine_.num_cells());
        // Per-binding updates reuse the slot's CellSet storage (copy
        // assignment keeps capacity).
        scope_[slot].value = CellSet(total);
        for (int c = 0; c < total; ++c) {
          if (stop_armed_ && stop_.ShouldStop()) return stop_.Check();
          ++bindings_;
          if (c > 0) scope_[slot].value.Reset(c - 1);
          scope_[slot].value.Set(c);
          scope_[slot].closure = engine_.closure_bits_[c];
          TOPODB_ASSIGN_OR_RETURN(bool value, Eval(formula.body));
          if (value == exists) return exists;
        }
        return !exists;
      }
      case Formula::VarKind::kRegion: {
        // Iterate the engine's shared materialized range: disc values (and
        // their closures) are computed once per engine, then replayed for
        // every binding of every quantifier of every evaluation.
        for (int64_t k = 0;; ++k) {
          if (stop_armed_ && stop_.ShouldStop()) return stop_.Check();
          TOPODB_ASSIGN_OR_RETURN(
              const QueryEngine::DiscValue* disc,
              engine_.FetchDiscValue(k, max_steps_, stop_));
          if (disc == nullptr) return !exists;
          if (--budget_ < 0) return BudgetExhaustedError(budget_limit_);
          ++bindings_;
          scope_[slot].value = disc->cells;
          scope_[slot].closure = disc->closure;
          TOPODB_ASSIGN_OR_RETURN(bool value, Eval(formula.body));
          if (value == exists) return exists;
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
  // The bound variables, outermost first: pushed at quantifier entry,
  // popped on every exit.
  std::vector<Binding> scope_;
};

// --- Entry points ---

namespace {

// ValidateAtomNames' walk; `binders` holds the enclosing quantifiers,
// innermost last.
Status ValidateNames(const Formula& f,
                     const std::map<std::string, CellSet>& regions,
                     std::vector<const Formula*>* binders) {
  switch (f.kind) {
    case Formula::Kind::kAtom:
      for (const Term* term : {&f.lhs, &f.rhs}) {
        if (term->kind == Term::Kind::kNameConstant &&
            regions.find(term->text) == regions.end()) {
          return Status::NotFound("no region named " + term->text);
        }
        if (term->kind == Term::Kind::kVariable &&
            std::none_of(binders->begin(), binders->end(),
                         [&](const Formula* b) {
                           return b->var == term->text;
                         })) {
          return Status::InvalidArgument("unbound variable " + term->text);
        }
      }
      return Status::OK();
    case Formula::Kind::kNameEq:
      for (const Term* term : {&f.lhs, &f.rhs}) {
        if (term->kind != Term::Kind::kVariable) continue;
        auto binder = std::find_if(
            binders->rbegin(), binders->rend(),
            [&](const Formula* b) { return b->var == term->text; });
        if (binder == binders->rend() ||
            (*binder)->var_kind != Formula::VarKind::kName) {
          return Status::InvalidArgument("'" + term->text +
                                         "' is not a name in this context");
        }
      }
      return Status::OK();
    case Formula::Kind::kNot:
      return ValidateNames(*f.left, regions, binders);
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kImplies:
    case Formula::Kind::kIff:
      TOPODB_RETURN_NOT_OK(ValidateNames(*f.left, regions, binders));
      return ValidateNames(*f.right, regions, binders);
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      binders->push_back(&f);
      Status body = ValidateNames(*f.body, regions, binders);
      binders->pop_back();
      return body;
    }
    default:
      return Status::OK();
  }
}

}  // namespace

Status QueryEngine::ValidateAtomNames(const Formula& query) const {
  std::vector<const Formula*> binders;
  return ValidateNames(query, region_bits_, &binders);
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
    Result<bool> verdict = evaluator.Eval(formula);
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
