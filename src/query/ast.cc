#include "src/query/ast.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "src/query/parser.h"

namespace topodb {

const char* PredicateName(Predicate p) {
  switch (p) {
    case Predicate::kConnect: return "connect";
    case Predicate::kDisjoint: return "disjoint";
    case Predicate::kIntersects: return "intersects";
    case Predicate::kSubset: return "subset";
    case Predicate::kBoundaryPart: return "boundarypart";
    case Predicate::kOverlap: return "overlap";
    case Predicate::kMeet: return "meet";
    case Predicate::kEqual: return "equal";
    case Predicate::kInside: return "inside";
    case Predicate::kContains: return "contains";
    case Predicate::kCovers: return "covers";
    case Predicate::kCoveredBy: return "coveredBy";
  }
  return "?";
}

const char* VarKindName(Formula::VarKind kind) {
  switch (kind) {
    case Formula::VarKind::kRegion: return "region";
    case Formula::VarKind::kCell: return "cell";
    case Formula::VarKind::kName: return "name";
    case Formula::VarKind::kRect: return "rect";
  }
  return "?";
}

namespace {

// Enclosing binders, innermost last. `rendered` differs from `original`
// when the binder had to be renamed to stay parseable (the parser
// rejects rebinding a name already in scope).
struct BoundVar {
  std::string original;
  std::string rendered;
};

// Renders a term so the output reparses to the same AST. A name constant
// is quoted when it is not a plain identifier (or would lex as a
// keyword) — and also when a quantifier in scope binds the same
// identifier: rendered bare it would reparse as that *variable*, since
// the parser resolves bound identifiers first. A variable resolves to
// its innermost binder's rendered name, mirroring the evaluator's
// innermost-wins lookup.
std::string TermText(const Term& term, const std::vector<BoundVar>& bound) {
  if (term.kind == Term::Kind::kNameConstant) {
    const bool shadowed =
        std::any_of(bound.begin(), bound.end(), [&](const BoundVar& b) {
          return b.rendered == term.text;
        });
    if (shadowed || !IsPlainQueryIdentifier(term.text)) {
      return QuoteQueryName(term.text);
    }
    return term.text;
  }
  for (auto it = bound.rbegin(); it != bound.rend(); ++it) {
    if (it->original == term.text) return it->rendered;
  }
  return term.text;
}

void AppendFormula(const Formula& f, std::vector<BoundVar>* bound,
                   std::ostringstream& os) {
  switch (f.kind) {
    case Formula::Kind::kTrue: os << "true"; break;
    case Formula::Kind::kFalse: os << "false"; break;
    case Formula::Kind::kAtom:
      os << PredicateName(f.predicate) << "(" << TermText(f.lhs, *bound)
         << ", " << TermText(f.rhs, *bound) << ")";
      break;
    case Formula::Kind::kNameEq:
      os << TermText(f.lhs, *bound) << " = " << TermText(f.rhs, *bound);
      break;
    case Formula::Kind::kNot:
      os << "not (";
      AppendFormula(*f.left, bound, os);
      os << ")";
      break;
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kImplies:
    case Formula::Kind::kIff: {
      // A quantifier body extends as far right as possible, so a
      // quantifier rendered bare as the *left* operand would swallow the
      // connective on reparse; parenthesize it.
      const bool left_quantified =
          f.left->kind == Formula::Kind::kExists ||
          f.left->kind == Formula::Kind::kForall;
      os << "(";
      if (left_quantified) os << "(";
      AppendFormula(*f.left, bound, os);
      if (left_quantified) os << ")";
      os << (f.kind == Formula::Kind::kAnd       ? " and "
             : f.kind == Formula::Kind::kOr      ? " or "
             : f.kind == Formula::Kind::kImplies ? " implies "
                                                 : " iff ");
      AppendFormula(*f.right, bound, os);
      os << ")";
      break;
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      // The parser rejects rebinding a name already in scope, so a
      // shadowing binder (possible in programmatically built ASTs) is
      // renamed on output; occurrences resolve innermost-first, matching
      // evaluation semantics, so meaning is preserved.
      std::string rendered = f.var;
      auto in_scope = [&](const std::string& name) {
        return std::any_of(bound->begin(), bound->end(),
                           [&](const BoundVar& b) {
                             return b.rendered == name;
                           });
      };
      for (int i = 2; in_scope(rendered); ++i) {
        rendered = f.var + "_" + std::to_string(i);
      }
      os << (f.kind == Formula::Kind::kExists ? "exists " : "forall ")
         << VarKindName(f.var_kind) << " " << rendered << " . ";
      bound->push_back({f.var, rendered});
      AppendFormula(*f.body, bound, os);
      bound->pop_back();
      break;
    }
  }
}

}  // namespace

std::string Formula::ToString() const {
  std::ostringstream os;
  std::vector<BoundVar> bound;
  AppendFormula(*this, &bound, os);
  return os.str();
}

FormulaPtr MakeAtom(Predicate predicate, Term lhs, Term rhs) {
  auto f = std::make_shared<Formula>();
  f->kind = Formula::Kind::kAtom;
  f->predicate = predicate;
  f->lhs = std::move(lhs);
  f->rhs = std::move(rhs);
  return f;
}

FormulaPtr MakeNameEq(Term lhs, Term rhs) {
  auto f = std::make_shared<Formula>();
  f->kind = Formula::Kind::kNameEq;
  f->lhs = std::move(lhs);
  f->rhs = std::move(rhs);
  return f;
}

FormulaPtr MakeNot(FormulaPtr inner) {
  auto f = std::make_shared<Formula>();
  f->kind = Formula::Kind::kNot;
  f->left = std::move(inner);
  return f;
}

FormulaPtr MakeAnd(FormulaPtr a, FormulaPtr b) {
  auto f = std::make_shared<Formula>();
  f->kind = Formula::Kind::kAnd;
  f->left = std::move(a);
  f->right = std::move(b);
  return f;
}

FormulaPtr MakeOr(FormulaPtr a, FormulaPtr b) {
  auto f = std::make_shared<Formula>();
  f->kind = Formula::Kind::kOr;
  f->left = std::move(a);
  f->right = std::move(b);
  return f;
}

FormulaPtr MakeImplies(FormulaPtr a, FormulaPtr b) {
  auto f = std::make_shared<Formula>();
  f->kind = Formula::Kind::kImplies;
  f->left = std::move(a);
  f->right = std::move(b);
  return f;
}

FormulaPtr MakeQuantifier(Formula::Kind kind, Formula::VarKind var_kind,
                          std::string var, FormulaPtr body) {
  auto f = std::make_shared<Formula>();
  f->kind = kind;
  f->var_kind = var_kind;
  f->var = std::move(var);
  f->body = std::move(body);
  return f;
}

Term NameConstant(std::string name) {
  Term t;
  t.kind = Term::Kind::kNameConstant;
  t.text = std::move(name);
  return t;
}

Term Var(std::string name) {
  Term t;
  t.kind = Term::Kind::kVariable;
  t.text = std::move(name);
  return t;
}

}  // namespace topodb
