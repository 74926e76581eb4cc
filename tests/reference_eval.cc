#include "tests/reference_eval.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <queue>
#include <set>

#include "src/base/check.h"
#include "src/obs/deadline.h"
#include "src/query/parser.h"

namespace topodb {

namespace {

bool AnyCommon(const std::vector<char>& a, const std::vector<char>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] && b[i]) return true;
  }
  return false;
}

bool SubsetOf(const std::vector<char>& a, const std::vector<char>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] && !b[i]) return false;
  }
  return true;
}

// The engine's error texts, which the differential suites compare.
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

ReferenceEngine::ReferenceEngine(const CellComplex& complex)
    : region_names_(complex.region_names()),
      exterior_face_(complex.exterior_face()),
      nv_(static_cast<int>(complex.vertices().size())),
      ne_(static_cast<int>(complex.edges().size())),
      nf_(static_cast<int>(complex.faces().size())) {
  const int total = nv_ + ne_ + nf_;
  closure_.assign(total, {});
  incidence_.assign(total, {});
  face_dual_.assign(nf_, {});
  vertex_faces_.assign(nv_, {});
  edge_faces_.assign(ne_, {-1, -1});

  auto edge_cell = [&](int e) { return nv_ + e; };
  auto face_cell = [&](int f) { return nv_ + ne_ + f; };
  auto add_incidence = [&](int a, int b) {
    incidence_[a].push_back(b);
    incidence_[b].push_back(a);
  };

  for (int e = 0; e < ne_; ++e) {
    auto [u, v] = complex.EdgeEndpoints(e);
    closure_[edge_cell(e)].push_back(u);
    if (v != u) closure_[edge_cell(e)].push_back(v);
    add_incidence(edge_cell(e), u);
    if (v != u) add_incidence(edge_cell(e), v);
  }
  // Face closures: edges (and their endpoints) on any of its cycles.
  for (int f = 0; f < nf_; ++f) {
    std::set<int> boundary;
    for (int rep : complex.faces()[f].cycle_darts) {
      for (int d : complex.FaceCycle(rep)) {
        const int e = complex.darts()[d].edge;
        boundary.insert(edge_cell(e));
        auto [u, v] = complex.EdgeEndpoints(e);
        boundary.insert(u);
        boundary.insert(v);
      }
    }
    for (int cell : boundary) {
      closure_[face_cell(f)].push_back(cell);
      if (cell >= nv_) add_incidence(face_cell(f), cell);  // Face-edge.
    }
  }
  // Face duals: the two sides of every edge.
  for (int e = 0; e < ne_; ++e) {
    auto [lf, rf] = complex.EdgeFaces(e);
    edge_faces_[e] = {lf, rf};
    if (lf != rf) {
      face_dual_[lf].push_back(rf);
      face_dual_[rf].push_back(lf);
    }
  }
  for (auto& nbrs : face_dual_) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  // Vertex incident faces from darts (faces of darts and of their twins).
  for (int v = 0; v < nv_; ++v) {
    std::set<int> faces;
    for (int d : complex.vertices()[v].darts) {
      faces.insert(complex.darts()[d].face);
      faces.insert(complex.darts()[complex.darts()[d].twin].face);
    }
    vertex_faces_[v].assign(faces.begin(), faces.end());
  }
  // Region values: cells with interior sign.
  for (size_t r = 0; r < region_names_.size(); ++r) {
    std::vector<char> value(total, 0);
    for (int v = 0; v < nv_; ++v) {
      if (complex.vertices()[v].label[r] == Sign::kInterior) value[v] = 1;
    }
    for (int e = 0; e < ne_; ++e) {
      if (complex.edges()[e].label[r] == Sign::kInterior) {
        value[edge_cell(e)] = 1;
      }
    }
    for (int f = 0; f < nf_; ++f) {
      if (complex.faces()[f].label[r] == Sign::kInterior) {
        value[face_cell(f)] = 1;
      }
    }
    region_values_[region_names_[r]] = std::move(value);
  }
}

Result<std::vector<char>> ReferenceEngine::RegionValue(
    const std::string& name) const {
  auto it = region_values_.find(name);
  if (it == region_values_.end()) {
    return Status::NotFound("no region named " + name);
  }
  return it->second;
}

bool ReferenceEngine::IsDiscValue(const std::vector<char>& face_set,
                                  std::vector<char>* completed) const {
  const int total = nv_ + ne_ + nf_;
  std::vector<char>& s = *completed;
  s.assign(total, 0);
  bool any = false;
  for (int f = 0; f < nf_; ++f) {
    if (face_set[f]) {
      s[nv_ + ne_ + f] = 1;
      any = true;
    }
  }
  if (!any) return false;
  // Completion: edges with both sides in, vertices with everything in.
  for (int e = 0; e < ne_; ++e) {
    auto [lf, rf] = edge_faces_[e];
    if (face_set[lf] && face_set[rf]) s[nv_ + e] = 1;
  }
  for (int v = 0; v < nv_; ++v) {
    if (vertex_faces_[v].empty()) continue;  // Never vacuously complete.
    bool all = true;
    for (int f : vertex_faces_[v]) {
      if (!face_set[f]) {
        all = false;
        break;
      }
    }
    // All incident edges are in too: both their faces are.
    if (all) s[v] = 1;
  }
  // Connectivity of S over the incidence graph.
  {
    int start = -1, count = 0;
    for (int c = 0; c < total; ++c) {
      if (s[c]) {
        ++count;
        start = c;
      }
    }
    std::vector<char> seen(total, 0);
    std::queue<int> queue;
    seen[start] = 1;
    queue.push(start);
    int reached = 1;
    while (!queue.empty()) {
      int c = queue.front();
      queue.pop();
      for (int d : incidence_[c]) {
        if (s[d] && !seen[d]) {
          seen[d] = 1;
          ++reached;
          queue.push(d);
        }
      }
    }
    if (reached != count) return false;
  }
  // Sphere-complement connectivity: complement cells plus a point at
  // infinity attached to the unbounded face.
  {
    const int infinity = total;
    std::vector<char> seen(total + 1, 0);
    std::queue<int> queue;
    seen[infinity] = 1;
    queue.push(infinity);
    int complement = 1;
    for (int c = 0; c < total; ++c) {
      if (!s[c]) ++complement;
    }
    const int exterior_cell = nv_ + ne_ + exterior_face_;
    int reached = 1;
    while (!queue.empty()) {
      int c = queue.front();
      queue.pop();
      if (c == infinity) {
        if (!s[exterior_cell] && !seen[exterior_cell]) {
          seen[exterior_cell] = 1;
          ++reached;
          queue.push(exterior_cell);
        }
        continue;
      }
      for (int d : incidence_[c]) {
        if (!s[d] && !seen[d]) {
          seen[d] = 1;
          ++reached;
          queue.push(d);
        }
      }
      if (c == exterior_cell && !seen[infinity]) {
        seen[infinity] = 1;
        ++reached;
      }
    }
    if (reached != complement) return false;
  }
  return true;
}

class ReferenceEngine::Walker {
 public:
  Walker(const ReferenceEngine& engine, const EvalOptions& options)
      : engine_(engine),
        budget_(options.max_region_candidates),
        budget_limit_(options.max_region_candidates),
        max_steps_(options.max_enumeration_steps),
        stop_(options.deadline, options.cancel),
        stop_armed_(stop_.armed()) {}

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
  // binder's cell set.
  struct Binding {
    const Formula* binder = nullptr;
    std::string name;
    std::vector<char> value;
  };

  // The innermost binding of `var`, whatever the binders' kinds, or
  // nullptr.
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
    return binding->name;
  }

  Result<std::vector<char>> ValueOf(const Term& term) const {
    if (term.kind == Term::Kind::kNameConstant) {
      return engine_.RegionValue(term.text);
    }
    const Binding* binding = Lookup(term.text);
    if (binding == nullptr) {
      return Status::InvalidArgument("unbound variable " + term.text);
    }
    if (binding->binder->var_kind == Formula::VarKind::kName) {
      return engine_.RegionValue(binding->name);
    }
    return binding->value;
  }

  std::vector<char> Closure(const std::vector<char>& s) const {
    std::vector<char> out = s;
    for (size_t c = 0; c < s.size(); ++c) {
      if (!s[c]) continue;
      for (int b : engine_.closure_[c]) out[b] = 1;
    }
    return out;
  }

  Result<bool> EvalAtom(const Formula& atom) {
    TOPODB_ASSIGN_OR_RETURN(std::vector<char> s, ValueOf(atom.lhs));
    TOPODB_ASSIGN_OR_RETURN(std::vector<char> t, ValueOf(atom.rhs));
    const std::vector<char> cs = Closure(s);
    const std::vector<char> ct = Closure(t);
    auto boundary = [](const std::vector<char>& closure,
                       const std::vector<char>& interior) {
      std::vector<char> b = closure;
      for (size_t i = 0; i < b.size(); ++i) {
        if (interior[i]) b[i] = 0;
      }
      return b;
    };
    switch (atom.predicate) {
      case Predicate::kConnect: return AnyCommon(cs, ct);
      case Predicate::kDisjoint: return !AnyCommon(cs, ct);
      case Predicate::kIntersects: return AnyCommon(s, t);
      case Predicate::kSubset: return SubsetOf(s, t);
      case Predicate::kBoundaryPart: return SubsetOf(s, boundary(ct, t));
      case Predicate::kEqual: return s == t;
      case Predicate::kOverlap:
        return AnyCommon(s, t) && !SubsetOf(s, t) && !SubsetOf(t, s);
      case Predicate::kMeet:
        return AnyCommon(cs, ct) && !AnyCommon(s, t);
      case Predicate::kInside:
        return s != t && SubsetOf(s, t) &&
               !AnyCommon(boundary(cs, s), boundary(ct, t));
      case Predicate::kContains:
        return s != t && SubsetOf(t, s) &&
               !AnyCommon(boundary(cs, s), boundary(ct, t));
      case Predicate::kCovers:
        return s != t && SubsetOf(t, s) &&
               AnyCommon(boundary(cs, s), boundary(ct, t));
      case Predicate::kCoveredBy:
        return s != t && SubsetOf(s, t) &&
               AnyCommon(boundary(cs, s), boundary(ct, t));
    }
    TOPODB_UNREACHABLE();
  }

  // Binds scope_[slot] to each value of the quantifier's range in turn;
  // the slot is addressed by index, since the body's quantifiers push
  // above it.
  Result<bool> EvalQuantifier(const Formula& formula, size_t slot) {
    const bool exists = formula.kind == Formula::Kind::kExists;
    switch (formula.var_kind) {
      case Formula::VarKind::kName: {
        for (const std::string& name : engine_.region_names_) {
          if (stop_armed_ && stop_.ShouldStop()) return stop_.Check();
          scope_[slot].name = name;
          TOPODB_ASSIGN_OR_RETURN(bool value, Eval(formula.body));
          if (value == exists) return exists;
        }
        return !exists;
      }
      case Formula::VarKind::kCell: {
        const size_t total = engine_.num_cells();
        for (size_t c = 0; c < total; ++c) {
          if (stop_armed_ && stop_.ShouldStop()) return stop_.Check();
          std::vector<char> value(total, 0);
          value[c] = 1;
          scope_[slot].value = std::move(value);
          TOPODB_ASSIGN_OR_RETURN(bool result, Eval(formula.body));
          if (result == exists) return exists;
        }
        return !exists;
      }
      case Formula::VarKind::kRegion:
        return EvalRegionQuantifier(exists, formula, slot);
      case Formula::VarKind::kRect:
        return Status::Unsupported(
            "rect quantifiers are evaluated by RectQueryEngine");
    }
    TOPODB_UNREACHABLE();
  }

  // Enumerates completions of dual-connected face sets that are discs;
  // each connected set is produced exactly once (enumeration by canonical
  // root + forbidden set). The budget is charged per *disc* value, after
  // the disc check, so exhaustion points depend only on the instance's
  // topology (see EvalOptions::max_region_candidates); the raw step guard
  // bounds the work spent between discs.
  Result<bool> EvalRegionQuantifier(bool exists, const Formula& formula,
                                    size_t slot) {
    const int nf = engine_.nf_;
    std::vector<char> chosen(nf, 0);
    std::vector<char> banned(nf, 0);
    std::optional<bool> verdict;
    Status error = Status::OK();
    int64_t raw_steps = 0;  // Per-instantiation enumeration counter.

    // Returns true to stop the whole enumeration.
    std::function<bool()> process = [&]() {
      if (++raw_steps > max_steps_) {
        error = StepsExhaustedError(max_steps_);
        return true;
      }
      // Cancellation checkpoint, once per ~1k raw candidates — the stretch
      // between disc values is the only unbounded work in this loop.
      if (stop_armed_ && (raw_steps & 1023) == 0 && stop_.ShouldStop()) {
        error = stop_.Check();
        return true;
      }
      std::vector<char> completed;
      if (!engine_.IsDiscValue(chosen, &completed)) return false;
      if (--budget_ < 0) {
        error = BudgetExhaustedError(budget_limit_);
        return true;
      }
      if (stop_armed_ && stop_.ShouldStop()) {
        error = stop_.Check();
        return true;
      }
      scope_[slot].value = std::move(completed);
      Result<bool> v = Eval(formula.body);
      if (!v.ok()) {
        error = v.status();
        return true;
      }
      if (*v == exists) {
        verdict = exists;
        return true;
      }
      return false;
    };

    std::function<bool()> spawn = [&]() -> bool {
      if (process()) return true;
      // Frontier: faces adjacent to the chosen set, not banned.
      std::vector<int> frontier;
      for (int f = 0; f < nf; ++f) {
        if (!chosen[f]) continue;
        for (int g : engine_.face_dual_[f]) {
          if (!chosen[g] && !banned[g]) frontier.push_back(g);
        }
      }
      std::sort(frontier.begin(), frontier.end());
      frontier.erase(std::unique(frontier.begin(), frontier.end()),
                     frontier.end());
      std::vector<int> added_bans;
      bool stop = false;
      for (int g : frontier) {
        if (banned[g]) continue;  // Banned by an earlier sibling.
        chosen[g] = 1;
        stop = spawn();
        chosen[g] = 0;
        if (stop) break;
        banned[g] = 1;
        added_bans.push_back(g);
      }
      for (int g : added_bans) banned[g] = 0;
      return stop;
    };

    for (int root = 0; root < nf && !verdict.has_value() && error.ok();
         ++root) {
      std::fill(chosen.begin(), chosen.end(), 0);
      std::fill(banned.begin(), banned.end(), 0);
      for (int f = 0; f < root; ++f) banned[f] = 1;
      chosen[root] = 1;
      if (spawn()) break;
    }
    TOPODB_RETURN_NOT_OK(error);
    if (verdict.has_value()) return *verdict;
    return !exists;
  }

  const ReferenceEngine& engine_;
  int64_t budget_;
  const int64_t budget_limit_;
  const int64_t max_steps_;
  const StopSignal stop_;
  const bool stop_armed_;
  // The bound variables, outermost first: pushed at quantifier entry,
  // popped on every exit.
  std::vector<Binding> scope_;
};

Result<bool> ReferenceEngine::Evaluate(const FormulaPtr& query,
                                       const EvalOptions& options) const {
  // Entry checkpoint, as in QueryEngine::Evaluate.
  TOPODB_RETURN_NOT_OK(StopSignal(options.deadline, options.cancel).Check());
  Walker walker(*this, options);
  return walker.Eval(query);
}

Result<bool> ReferenceEngine::Evaluate(const std::string& query,
                                       const EvalOptions& options) const {
  TOPODB_ASSIGN_OR_RETURN(FormulaPtr formula, ParseQuery(query));
  return Evaluate(formula, options);
}

}  // namespace topodb
