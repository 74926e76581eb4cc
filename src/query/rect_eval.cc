#include "src/query/rect_eval.h"

#include <algorithm>
#include <set>

#include "src/base/check.h"
#include "src/region/region.h"

namespace topodb {

namespace {

// Closed-interval overlap length class: -1 disjoint, 0 touch at a point,
// +1 positive-length overlap. Intervals are [a1, a2], [b1, b2].
int IntervalContact(const Rational& a1, const Rational& a2,
                    const Rational& b1, const Rational& b2) {
  const Rational lo = Rational::Max(a1, b1);
  const Rational hi = Rational::Min(a2, b2);
  const int cmp = lo.Compare(hi);
  if (cmp > 0) return -1;
  return cmp == 0 ? 0 : 1;
}

}  // namespace

Result<RectQueryEngine> RectQueryEngine::Build(
    const SpatialInstance& instance) {
  RectQueryEngine engine;
  std::set<Rational> xs, ys;
  for (const auto& [name, region] : instance.regions()) {
    if (!Region::IsRectangle(region.boundary())) {
      return Status::InvalidArgument(
          "FO(Rect, Rect) evaluation requires rectangle regions; " + name +
          " is not a rectangle");
    }
    const Box box = region.BoundingBox();
    engine.regions_[name] =
        Rect{box.min.x, box.min.y, box.max.x, box.max.y};
    xs.insert(box.min.x);
    xs.insert(box.max.x);
    ys.insert(box.min.y);
    ys.insert(box.max.y);
  }
  if (xs.empty()) {
    xs.insert(Rational(0));
    xs.insert(Rational(1));
    ys.insert(Rational(0));
    ys.insert(Rational(1));
  }
  auto refine = [](const std::set<Rational>& in) {
    std::vector<Rational> sorted(in.begin(), in.end());
    std::vector<Rational> out;
    out.push_back(sorted.front() - Rational(1));
    for (size_t i = 0; i < sorted.size(); ++i) {
      out.push_back(sorted[i]);
      if (i + 1 < sorted.size()) {
        out.push_back((sorted[i] + sorted[i + 1]) / Rational(2));
      }
    }
    out.push_back(sorted.back() + Rational(1));
    return out;
  };
  engine.xs_ = refine(xs);
  engine.ys_ = refine(ys);
  return engine;
}

Result<RectQueryEngine::Rect> RectQueryEngine::Lookup(
    const std::string& name) const {
  auto it = regions_.find(name);
  if (it == regions_.end()) {
    return Status::NotFound("no region named " + name);
  }
  return it->second;
}

class RectQueryEngine::Evaluator {
 public:
  explicit Evaluator(const RectQueryEngine& engine) : engine_(engine) {}

  Result<bool> Eval(const FormulaPtr& f) {
    switch (f->kind) {
      case Formula::Kind::kTrue: return true;
      case Formula::Kind::kFalse: return false;
      case Formula::Kind::kAtom: return EvalAtom(*f);
      case Formula::Kind::kNameEq: {
        TOPODB_ASSIGN_OR_RETURN(std::string a, NameOf(f->lhs));
        TOPODB_ASSIGN_OR_RETURN(std::string b, NameOf(f->rhs));
        return a == b;
      }
      case Formula::Kind::kNot: {
        TOPODB_ASSIGN_OR_RETURN(bool v, Eval(f->left));
        return !v;
      }
      case Formula::Kind::kAnd: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(f->left));
        if (!a) return false;
        return Eval(f->right);
      }
      case Formula::Kind::kOr: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(f->left));
        if (a) return true;
        return Eval(f->right);
      }
      case Formula::Kind::kImplies: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(f->left));
        if (!a) return true;
        return Eval(f->right);
      }
      case Formula::Kind::kIff: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(f->left));
        TOPODB_ASSIGN_OR_RETURN(bool b, Eval(f->right));
        return a == b;
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForall: {
        scope_.push_back({f.get(), nullptr, Rect{}});
        Result<bool> v = EvalQuantifier(*f, scope_.size() - 1);
        scope_.pop_back();
        return v;
      }
    }
    TOPODB_UNREACHABLE();
  }

 private:
  // One bound variable: its binder, and its current value (a name
  // binder's region name and that region's rectangle, or a rect binder's
  // rectangle).
  struct Binding {
    const Formula* binder;
    const std::string* name;
    Rect rect;
  };

  // Binds scope_[slot] to each value of the quantifier's range in turn and
  // evaluates the body, until a binding decides the quantifier. The slot
  // is addressed by index: the body's quantifiers push above it and may
  // reallocate the scope.
  Result<bool> EvalQuantifier(const Formula& f, size_t slot) {
    const bool exists = f.kind == Formula::Kind::kExists;
    if (f.var_kind == Formula::VarKind::kName) {
      for (const auto& [name, rect] : engine_.regions_) {
        scope_[slot].name = &name;
        scope_[slot].rect = rect;
        TOPODB_ASSIGN_OR_RETURN(bool value, Eval(f.body));
        if (value == exists) return exists;
      }
      return !exists;
    }
    if (f.var_kind != Formula::VarKind::kRect) {
      return Status::Unsupported(
          "RectQueryEngine evaluates rect and name quantifiers only");
    }
    const auto& xs = engine_.xs_;
    const auto& ys = engine_.ys_;
    for (size_t i = 0; i < xs.size(); ++i) {
      for (size_t j = i + 1; j < xs.size(); ++j) {
        for (size_t k = 0; k < ys.size(); ++k) {
          for (size_t l = k + 1; l < ys.size(); ++l) {
            scope_[slot].rect = Rect{xs[i], ys[k], xs[j], ys[l]};
            TOPODB_ASSIGN_OR_RETURN(bool value, Eval(f.body));
            if (value == exists) return exists;
          }
        }
      }
    }
    return !exists;
  }

  // The innermost binding of `var`, whatever its sort, or nullptr.
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
      return Status::InvalidArgument("'" + term.text + "' is not a name");
    }
    return *binding->name;
  }

  Result<Rect> ValueOf(const Term& term) const {
    if (term.kind != Term::Kind::kVariable) return engine_.Lookup(term.text);
    const Binding* binding = Lookup(term.text);
    if (binding == nullptr) {
      return Status::InvalidArgument("unbound variable " + term.text);
    }
    return binding->rect;
  }

  Result<bool> EvalAtom(const Formula& atom) const {
    TOPODB_ASSIGN_OR_RETURN(Rect a, ValueOf(atom.lhs));
    TOPODB_ASSIGN_OR_RETURN(Rect b, ValueOf(atom.rhs));
    const int cx = IntervalContact(a.x1, a.x2, b.x1, b.x2);
    const int cy = IntervalContact(a.y1, a.y2, b.y1, b.y2);
    const bool closures_meet = cx >= 0 && cy >= 0;
    const bool interiors_meet = cx > 0 && cy > 0;
    const bool a_in_b =
        b.x1 <= a.x1 && a.x2 <= b.x2 && b.y1 <= a.y1 && a.y2 <= b.y2;
    const bool b_in_a =
        a.x1 <= b.x1 && b.x2 <= a.x2 && a.y1 <= b.y1 && b.y2 <= a.y2;
    const bool equal = a_in_b && b_in_a;
    const bool a_strict =
        b.x1 < a.x1 && a.x2 < b.x2 && b.y1 < a.y1 && a.y2 < b.y2;
    const bool b_strict =
        a.x1 < b.x1 && b.x2 < a.x2 && a.y1 < b.y1 && b.y2 < a.y2;
    switch (atom.predicate) {
      case Predicate::kConnect: return closures_meet;
      case Predicate::kDisjoint: return !closures_meet;
      case Predicate::kIntersects: return interiors_meet;
      case Predicate::kSubset: return a_in_b;
      case Predicate::kBoundaryPart: return false;  // Rects have area.
      case Predicate::kEqual: return equal;
      case Predicate::kOverlap:
        return interiors_meet && !a_in_b && !b_in_a;
      case Predicate::kMeet: return closures_meet && !interiors_meet;
      case Predicate::kInside: return a_strict;
      case Predicate::kContains: return b_strict;
      case Predicate::kCovers: return b_in_a && !equal && !b_strict;
      case Predicate::kCoveredBy: return a_in_b && !equal && !a_strict;
    }
    TOPODB_UNREACHABLE();
  }

  const RectQueryEngine& engine_;
  // The bound variables, outermost first: pushed at quantifier entry,
  // popped on every exit.
  std::vector<Binding> scope_;
};

Result<bool> RectQueryEngine::Evaluate(const FormulaPtr& query) const {
  Evaluator evaluator(*this);
  return evaluator.Eval(query);
}

Result<bool> RectQueryEngine::Evaluate(const std::string& query) const {
  TOPODB_ASSIGN_OR_RETURN(FormulaPtr formula, ParseQuery(query));
  return Evaluate(formula);
}

Result<bool> RectQueryEngine::Edge(const std::string& a,
                                   const std::string& b) const {
  TOPODB_ASSIGN_OR_RETURN(Rect ra, Lookup(a));
  TOPODB_ASSIGN_OR_RETURN(Rect rb, Lookup(b));
  const int cx = IntervalContact(ra.x1, ra.x2, rb.x1, rb.x2);
  const int cy = IntervalContact(ra.y1, ra.y2, rb.y1, rb.y2);
  // Boundaries share a positive-length segment: touching in one axis with
  // positive overlap in the other, or aligned sides within overlap.
  if (cx < 0 || cy < 0) return false;
  if (cx == 0 && cy > 0) return true;
  if (cy == 0 && cx > 0) return true;
  // Interiors overlap or contained: shared boundary segments require an
  // aligned side pair.
  auto aligned = [](const Rational& u, const Rational& v) { return u == v; };
  const bool x_side = aligned(ra.x1, rb.x1) || aligned(ra.x1, rb.x2) ||
                      aligned(ra.x2, rb.x1) || aligned(ra.x2, rb.x2);
  const bool y_side = aligned(ra.y1, rb.y1) || aligned(ra.y1, rb.y2) ||
                      aligned(ra.y2, rb.y1) || aligned(ra.y2, rb.y2);
  return (x_side && cy > 0) || (y_side && cx > 0);
}

Result<bool> RectQueryEngine::Corner(const std::string& a,
                                     const std::string& b) const {
  TOPODB_ASSIGN_OR_RETURN(Rect ra, Lookup(a));
  TOPODB_ASSIGN_OR_RETURN(Rect rb, Lookup(b));
  const int cx = IntervalContact(ra.x1, ra.x2, rb.x1, rb.x2);
  const int cy = IntervalContact(ra.y1, ra.y2, rb.y1, rb.y2);
  return cx == 0 && cy == 0;
}

Result<bool> RectQueryEngine::OneEdge(const std::string& a,
                                      const std::string& b) const {
  TOPODB_ASSIGN_OR_RETURN(Rect ra, Lookup(a));
  TOPODB_ASSIGN_OR_RETURN(Rect rb, Lookup(b));
  // Sharing a complete side of both rectangles: touching in one axis and
  // identical extent in the other.
  const int cx = IntervalContact(ra.x1, ra.x2, rb.x1, rb.x2);
  const int cy = IntervalContact(ra.y1, ra.y2, rb.y1, rb.y2);
  if (cx == 0 && ra.y1 == rb.y1 && ra.y2 == rb.y2) return true;
  if (cy == 0 && ra.x1 == rb.x1 && ra.x2 == rb.x2) return true;
  return false;
}

}  // namespace topodb
