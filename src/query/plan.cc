#include "src/query/plan.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/query/parser.h"

namespace topodb {
namespace {

using Kind = Formula::Kind;
using VarKind = Formula::VarKind;

// Quantifier blocks longer than this keep their (canonicalized-children)
// order instead of searching all permutations: 6! = 720 key renderings is
// the largest search worth paying per canonicalization.
constexpr size_t kMaxBlockPermutation = 6;

bool IsSymmetricPredicate(Predicate p) {
  switch (p) {
    case Predicate::kConnect:
    case Predicate::kIntersects:
    case Predicate::kOverlap:
    case Predicate::kMeet:
    case Predicate::kEqual:
      return true;
    default:
      return false;
  }
}

int VarKindRank(VarKind k) {
  switch (k) {
    case VarKind::kName: return 0;
    case VarKind::kCell: return 1;
    case VarKind::kRegion: return 2;
    case VarKind::kRect: return 3;
  }
  return 4;
}

// ---------------------------------------------------------------------
// Structural keys. The key of a formula is a compact prefix rendering in
// which bound variables appear as de Bruijn indices ($0 = innermost
// enclosing binder), so alpha-equivalent subtrees — and subtrees whose
// binders will later be renamed — compare equal. `binders` is the stack
// of enclosing binder names, outermost first.

void AppendTermKey(const Term& term, const std::vector<std::string>& binders,
                   std::string* out) {
  if (term.kind == Term::Kind::kVariable) {
    for (size_t i = binders.size(); i-- > 0;) {
      if (binders[i] == term.text) {
        out->push_back('$');
        out->append(std::to_string(binders.size() - 1 - i));
        return;
      }
    }
    // A dangling variable (possible only in programmatic ASTs; the parser
    // cannot produce one). Keep its name so distinct danglers differ.
    out->append("$?");
    out->append(term.text);
    return;
  }
  // Always quoted: a constant can never collide with a variable key.
  out->append(QuoteQueryName(term.text));
}

void AppendFormulaKey(const Formula& f, std::vector<std::string>* binders,
                      std::string* out) {
  switch (f.kind) {
    case Kind::kTrue: out->push_back('T'); return;
    case Kind::kFalse: out->push_back('F'); return;
    case Kind::kAtom:
      out->push_back('A');
      out->append(PredicateName(f.predicate));
      out->push_back('(');
      AppendTermKey(f.lhs, *binders, out);
      out->push_back(',');
      AppendTermKey(f.rhs, *binders, out);
      out->push_back(')');
      return;
    case Kind::kNameEq:
      // '@' < 'A' < 'E': a sorted chain tests its name equalities (string
      // compares) before its atoms, and both before its quantifiers.
      out->append("@(");
      AppendTermKey(f.lhs, *binders, out);
      out->push_back(',');
      AppendTermKey(f.rhs, *binders, out);
      out->push_back(')');
      return;
    case Kind::kNot:
      out->append("!(");
      AppendFormulaKey(*f.left, binders, out);
      out->push_back(')');
      return;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
    case Kind::kIff:
      out->push_back(f.kind == Kind::kAnd ? '&'
                     : f.kind == Kind::kOr ? '|'
                     : f.kind == Kind::kImplies ? '>'
                                               : '=');
      out->push_back('(');
      AppendFormulaKey(*f.left, binders, out);
      out->push_back(',');
      AppendFormulaKey(*f.right, binders, out);
      out->push_back(')');
      return;
    case Kind::kExists:
    case Kind::kForall:
      out->push_back(f.kind == Kind::kExists ? 'E' : 'U');
      out->append(std::to_string(VarKindRank(f.var_kind)));
      out->push_back('.');
      binders->push_back(f.var);
      AppendFormulaKey(*f.body, binders, out);
      binders->pop_back();
      return;
  }
}

std::string FormulaKey(const FormulaPtr& f, std::vector<std::string> binders) {
  std::string out;
  AppendFormulaKey(*f, &binders, &out);
  return out;
}

// Free occurrence of `var` (as a variable, respecting shadowing).
bool MentionsVar(const Formula& f, const std::string& var) {
  switch (f.kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      return false;
    case Kind::kAtom:
    case Kind::kNameEq:
      return (f.lhs.kind == Term::Kind::kVariable && f.lhs.text == var) ||
             (f.rhs.kind == Term::Kind::kVariable && f.rhs.text == var);
    case Kind::kNot:
      return MentionsVar(*f.left, var);
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
    case Kind::kIff:
      return MentionsVar(*f.left, var) || MentionsVar(*f.right, var);
    case Kind::kExists:
    case Kind::kForall:
      if (f.var == var) return false;  // Shadowed below this binder.
      return MentionsVar(*f.body, var);
  }
  return false;
}

FormulaPtr True() {
  static const FormulaPtr t = std::make_shared<Formula>();
  return t;
}

FormulaPtr False() {
  static const FormulaPtr f = [] {
    auto p = std::make_shared<Formula>();
    p->kind = Kind::kFalse;
    return FormulaPtr(p);
  }();
  return f;
}

// ---------------------------------------------------------------------
// Canonicalization.

class Canonicalizer {
 public:
  FormulaPtr Run(const FormulaPtr& f) {
    binders_.clear();
    return Canon(f, false);
  }

 private:
  // Canonicalizes `f` under the current binder stack; `neg` asks for the
  // canonical form of its negation (negation push-down).
  FormulaPtr Canon(const FormulaPtr& f, bool neg) {
    switch (f->kind) {
      case Kind::kTrue:
        return neg ? False() : True();
      case Kind::kFalse:
        return neg ? True() : False();
      case Kind::kAtom:
        return CanonAtom(*f, neg);
      case Kind::kNameEq:
        return Negate(CanonNameEq(*f), neg);
      case Kind::kNot:
        return Canon(f->left, !neg);
      case Kind::kAnd:
      case Kind::kOr: {
        const bool conj = (f->kind == Kind::kAnd) != neg;
        std::vector<FormulaPtr> children;
        children.push_back(Canon(f->left, neg));
        children.push_back(Canon(f->right, neg));
        return BuildConnective(conj ? Kind::kAnd : Kind::kOr,
                               std::move(children));
      }
      case Kind::kImplies: {
        // a implies b == (not a) or b; negated: a and (not b).
        std::vector<FormulaPtr> children;
        children.push_back(Canon(f->left, !neg));
        children.push_back(Canon(f->right, neg));
        return BuildConnective(neg ? Kind::kAnd : Kind::kOr,
                               std::move(children));
      }
      case Kind::kIff:
        return CanonIff(*f, neg);
      case Kind::kExists:
      case Kind::kForall: {
        const Kind kind =
            ((f->kind == Kind::kExists) != neg) ? Kind::kExists : Kind::kForall;
        binders_.push_back(f->var);
        FormulaPtr body = Canon(f->body, neg);
        binders_.pop_back();
        return BuildQuantifier(kind, f->var_kind, f->var, std::move(body));
      }
    }
    return f;
  }

  FormulaPtr CanonAtom(const Formula& f, bool neg) {
    Predicate p = f.predicate;
    Term lhs = f.lhs;
    Term rhs = f.rhs;
    // disjoint is definitionally not-connect (Section 4): eliminating it
    // here lets `disjoint(a, b)` and `not connect(a, b)` share one form.
    if (p == Predicate::kDisjoint) {
      p = Predicate::kConnect;
      neg = !neg;
    }
    // Converse pairs collapse onto one representative with swapped
    // operands: contains(a, b) == inside(b, a), covers == coveredBy.
    if (p == Predicate::kContains) {
      p = Predicate::kInside;
      std::swap(lhs, rhs);
    } else if (p == Predicate::kCovers) {
      p = Predicate::kCoveredBy;
      std::swap(lhs, rhs);
    }
    if (IsSymmetricPredicate(p)) {
      std::string lk, rk;
      AppendTermKey(lhs, binders_, &lk);
      AppendTermKey(rhs, binders_, &rk);
      if (rk < lk) std::swap(lhs, rhs);
    }
    return Negate(MakeAtom(p, std::move(lhs), std::move(rhs)), neg);
  }

  FormulaPtr CanonNameEq(const Formula& f) {
    Term lhs = f.lhs;
    Term rhs = f.rhs;
    std::string lk, rk;
    AppendTermKey(lhs, binders_, &lk);
    AppendTermKey(rhs, binders_, &rk);
    if (rk < lk) std::swap(lhs, rhs);
    if (lk == rk) return True();  // a = a.
    return MakeNameEq(std::move(lhs), std::move(rhs));
  }

  // iff is kept as a connective (NNF-expanding nested iff is
  // exponential); negations on either side and on the whole node fold
  // into one parity bit, so a iff not b, not a iff b and not (a iff b)
  // all canonicalize identically.
  FormulaPtr CanonIff(const Formula& f, bool neg) {
    FormulaPtr a = Canon(f.left, false);
    // Constant sides reduce the connective away entirely; recanonicalize
    // the other original side under the induced polarity.
    if (a->kind == Kind::kTrue) return Canon(f.right, neg);
    if (a->kind == Kind::kFalse) return Canon(f.right, !neg);
    FormulaPtr b = Canon(f.right, false);
    // Same for a constant right side. Negate the canonical `a` (it has no
    // constant iff operand left, so this is linear) rather than
    // re-canonicalizing f.left, which would double the work per level of
    // a left-nested `(... iff true) iff true` chain. Canon, unlike a bare
    // MakeNot, keeps the result in NNF.
    if (b->kind == Kind::kTrue) return neg ? Canon(a, true) : a;
    if (b->kind == Kind::kFalse) return neg ? a : Canon(a, true);
    bool parity = neg;
    while (a->kind == Kind::kNot) {
      a = a->left;
      parity = !parity;
    }
    while (b->kind == Kind::kNot) {
      b = b->left;
      parity = !parity;
    }
    std::string ka = FormulaKey(a, binders_);
    std::string kb = FormulaKey(b, binders_);
    if (ka == kb) return parity ? False() : True();  // a iff a.
    if (kb < ka) std::swap(a, b);
    auto out = std::make_shared<Formula>();
    out->kind = Kind::kIff;
    out->left = std::move(a);
    out->right = std::move(b);
    return Negate(out, parity);
  }

  FormulaPtr Negate(FormulaPtr f, bool neg) {
    if (!neg) return f;
    // Constant-fold so simplification rules (a = a, iff collapse) never
    // leave an opaque not(true)/not(false) that later passes can't see.
    if (f->kind == Kind::kTrue) return False();
    if (f->kind == Kind::kFalse) return True();
    return MakeNot(std::move(f));
  }

  // Flattens, sorts, dedupes and simplifies an and/or chain. `kind` is
  // kAnd or kOr; children are already canonical.
  FormulaPtr BuildConnective(Kind kind, std::vector<FormulaPtr> children) {
    const bool conj = kind == Kind::kAnd;
    std::vector<FormulaPtr> flat;
    for (auto& c : children) Flatten(kind, std::move(c), &flat);
    // Identity / annihilator.
    std::vector<std::pair<std::string, FormulaPtr>> keyed;
    keyed.reserve(flat.size());
    for (auto& c : flat) {
      if (c->kind == (conj ? Kind::kTrue : Kind::kFalse)) continue;
      if (c->kind == (conj ? Kind::kFalse : Kind::kTrue)) {
        return conj ? False() : True();
      }
      keyed.emplace_back(FormulaKey(c, binders_), std::move(c));
    }
    std::sort(keyed.begin(), keyed.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    keyed.erase(std::unique(keyed.begin(), keyed.end(),
                            [](const auto& x, const auto& y) {
                              return x.first == y.first;
                            }),
                keyed.end());
    // Complement pairs: (phi and not phi) / (phi or not phi).
    std::set<std::string> keys;
    for (const auto& [k, c] : keyed) keys.insert(k);
    for (const auto& [k, c] : keyed) {
      if (c->kind == Kind::kNot &&
          keys.count(FormulaKey(c->left, binders_)) > 0) {
        return conj ? False() : True();
      }
    }
    if (keyed.empty()) return conj ? True() : False();
    FormulaPtr out = std::move(keyed.front().second);
    for (size_t i = 1; i < keyed.size(); ++i) {
      out = conj ? MakeAnd(std::move(out), std::move(keyed[i].second))
                 : MakeOr(std::move(out), std::move(keyed[i].second));
    }
    return out;
  }

  static void Flatten(Kind kind, FormulaPtr f, std::vector<FormulaPtr>* out) {
    if (f->kind == kind) {
      Flatten(kind, f->left, out);
      Flatten(kind, f->right, out);
      return;
    }
    out->push_back(std::move(f));
  }

  // Hoists var-independent operands out of the quantifier, then picks the
  // key-minimal permutation of the same-kind quantifier block. Only the
  // two hoisting directions that stay sound for *empty* quantifier
  // ranges are applied:
  //   exists x . (phi and psi)  ==  psi and exists x . phi   (x free in psi)
  //   forall x . (phi or  psi)  ==  psi or  forall x . phi
  // (both sides are false resp. true when the range is empty). The dual
  // directions (and under forall, or under exists) would change the
  // verdict on an empty range, so they are left alone.
  FormulaPtr BuildQuantifier(Kind kind, VarKind var_kind, std::string var,
                             FormulaPtr body) {
    const Kind inner = kind == Kind::kExists ? Kind::kAnd : Kind::kOr;
    if (body->kind == inner) {
      std::vector<FormulaPtr> flat;
      Flatten(inner, std::move(body), &flat);
      std::vector<FormulaPtr> hoisted, kept;
      for (auto& c : flat) {
        (MentionsVar(*c, var) ? kept : hoisted).push_back(std::move(c));
      }
      if (!hoisted.empty()) {
        binders_.push_back(var);
        FormulaPtr rest = BuildConnective(inner, std::move(kept));
        binders_.pop_back();
        hoisted.push_back(
            BuildQuantifier(kind, var_kind, std::move(var), std::move(rest)));
        return BuildConnective(inner, std::move(hoisted));
      }
      // Nothing hoisted: kept holds every operand (flat's elements were
      // moved into the partition above).
      binders_.push_back(var);
      body = BuildConnective(inner, std::move(kept));
      binders_.pop_back();
    }
    return CanonBlock(kind, var_kind, std::move(var), std::move(body));
  }

  // Same-kind quantifier prefixes commute; pick the permutation whose
  // whole-formula key is smallest, which both fixes an order for
  // logically interchangeable binders and groups equal var_kinds.
  FormulaPtr CanonBlock(Kind kind, VarKind var_kind, std::string var,
                        FormulaPtr body) {
    std::vector<std::pair<VarKind, std::string>> block;
    block.emplace_back(var_kind, std::move(var));
    FormulaPtr tail = std::move(body);
    while (tail->kind == kind) {
      block.emplace_back(tail->var_kind, tail->var);
      tail = tail->body;
    }
    auto rebuild = [&](const std::vector<size_t>& order) {
      FormulaPtr out = tail;
      for (size_t i = order.size(); i-- > 0;) {
        out = MakeQuantifier(kind, block[order[i]].first,
                             block[order[i]].second, std::move(out));
      }
      return out;
    };
    std::vector<size_t> order(block.size());
    std::iota(order.begin(), order.end(), size_t{0});
    if (block.size() < 2 || block.size() > kMaxBlockPermutation) {
      return rebuild(order);
    }
    std::vector<size_t> best = order;
    std::string best_key = FormulaKey(rebuild(order), binders_);
    while (std::next_permutation(order.begin(), order.end())) {
      std::string key = FormulaKey(rebuild(order), binders_);
      if (key < best_key) {
        best_key = std::move(key);
        best = order;
      }
    }
    return rebuild(best);
  }

  std::vector<std::string> binders_;
};

// Renames bound variables to x0, x1, ... in pre-order. Shadowing-safe:
// each binder pushes its new name for the scope of its body.
FormulaPtr RenameBinders(const FormulaPtr& f,
                         std::vector<std::pair<std::string, std::string>>* env,
                         int* next) {
  auto rename_term = [&](const Term& t) {
    if (t.kind != Term::Kind::kVariable) return t;
    for (size_t i = env->size(); i-- > 0;) {
      if ((*env)[i].first == t.text) return Var((*env)[i].second);
    }
    return t;
  };
  switch (f->kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      return f;
    case Kind::kAtom:
      return MakeAtom(f->predicate, rename_term(f->lhs), rename_term(f->rhs));
    case Kind::kNameEq:
      return MakeNameEq(rename_term(f->lhs), rename_term(f->rhs));
    case Kind::kNot:
      return MakeNot(RenameBinders(f->left, env, next));
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kImplies:
    case Kind::kIff: {
      auto out = std::make_shared<Formula>();
      out->kind = f->kind;
      out->left = RenameBinders(f->left, env, next);
      out->right = RenameBinders(f->right, env, next);
      return out;
    }
    case Kind::kExists:
    case Kind::kForall: {
      std::string fresh = "x" + std::to_string((*next)++);
      env->emplace_back(f->var, fresh);
      FormulaPtr body = RenameBinders(f->body, env, next);
      env->pop_back();
      return MakeQuantifier(f->kind, f->var_kind, std::move(fresh),
                            std::move(body));
    }
  }
  return f;
}

FormulaPtr CanonicalizeOnce(const FormulaPtr& query) {
  Canonicalizer canon;
  FormulaPtr out = canon.Run(query);
  std::vector<std::pair<std::string, std::string>> env;
  int next = 0;
  return RenameBinders(out, &env, &next);
}

}  // namespace

FormulaPtr CanonicalizeQuery(const FormulaPtr& query, std::string* rendering) {
  // One pass is not idempotent: symmetric-atom operands and connective
  // chains are sorted under de Bruijn indices of the binder order seen
  // *during* the pass, and quantifier-block permutation afterwards can
  // invalidate that order. Iterating to a fixpoint restores
  // Canonicalize∘Canonicalize = Canonicalize, which is what makes the
  // canonical key stable across a ToString/reparse cycle. Convergence is
  // fast in practice (one extra pass); the cap is a safety net.
  FormulaPtr cur = CanonicalizeOnce(query);
  std::string key = cur->ToString();
  for (int i = 0; i < 8; ++i) {
    FormulaPtr next = CanonicalizeOnce(cur);
    std::string next_key = next->ToString();
    if (next_key == key) break;
    cur = std::move(next);
    key = std::move(next_key);
  }
  if (rendering != nullptr) *rendering = std::move(key);
  return cur;
}

std::string CanonicalQueryKey(const FormulaPtr& query) {
  std::string key;
  CanonicalizeQuery(query, &key);
  return key;
}

FormulaPtr PlanQuery(const FormulaPtr& query, const SelectivityStats&) {
  return CanonicalizeQuery(query);
}

}  // namespace topodb
