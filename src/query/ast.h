#ifndef TOPODB_QUERY_AST_H_
#define TOPODB_QUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

namespace topodb {

// Abstract syntax of the region-based language FO(Region, Region')
// (Section 4 of the paper), with the effective quantifier ranges of
// Section 7:
//   exists cell x . phi      -- x ranges over single cells of the
//                               arrangement of the input regions;
//   exists region r . phi    -- r ranges over unions of cells that are
//                               disc homeomorphs (legitimate regions);
//   exists name a . phi      -- a ranges over names(I).
//
// Atoms are the 4-intersection relationships and their first-order
// derivables (Section 4 shows connect alone suffices; the others are
// provided as primitives for convenience and for the Fig 13 predicates).
enum class Predicate {
  kConnect,    // closure(r) n closure(s) nonempty.
  kDisjoint,   // not connect.
  kIntersects, // interior n interior nonempty.
  kSubset,     // r subset of s.
  kBoundaryPart,  // r subset of the boundary of s (closure(s) minus s).
  kOverlap,    // 4-intersection relations...
  kMeet,
  kEqual,
  kInside,
  kContains,
  kCovers,
  kCoveredBy,
};

const char* PredicateName(Predicate p);

// A term denotes a region value (a set of cells) or a name.
struct Term {
  enum class Kind {
    kNameConstant,  // A region name literal; as a region term it denotes
                    // ext(name).
    kVariable,      // A declared variable (region, cell or name).
  };
  Kind kind = Kind::kNameConstant;
  std::string text;
};

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

struct Formula {
  enum class Kind {
    kTrue,
    kFalse,
    kAtom,     // predicate(lhs, rhs)
    kNameEq,   // lhs == rhs as names
    kNot,
    kAnd,
    kOr,
    kImplies,
    kIff,
    kExists,
    kForall,
  };
  enum class VarKind {
    kRegion,
    kCell,
    kName,
    kRect,  // FO(Rect, .) rectangle variables; see rect_eval.h.
  };

  Kind kind = Kind::kTrue;
  // kAtom / kNameEq:
  Predicate predicate = Predicate::kConnect;
  Term lhs;
  Term rhs;
  // Connectives:
  FormulaPtr left;
  FormulaPtr right;
  // Quantifiers:
  VarKind var_kind = VarKind::kRegion;
  std::string var;
  FormulaPtr body;

  std::string ToString() const;
};

// The sort keyword of a quantifier: "region", "cell", "name" or "rect".
const char* VarKindName(Formula::VarKind kind);

// Construction helpers (used by tests and programmatic query building).
FormulaPtr MakeAtom(Predicate predicate, Term lhs, Term rhs);
FormulaPtr MakeNameEq(Term lhs, Term rhs);
FormulaPtr MakeNot(FormulaPtr f);
FormulaPtr MakeAnd(FormulaPtr a, FormulaPtr b);
FormulaPtr MakeOr(FormulaPtr a, FormulaPtr b);
FormulaPtr MakeImplies(FormulaPtr a, FormulaPtr b);
FormulaPtr MakeQuantifier(Formula::Kind kind, Formula::VarKind var_kind,
                          std::string var, FormulaPtr body);
Term NameConstant(std::string name);
Term Var(std::string name);

}  // namespace topodb

#endif  // TOPODB_QUERY_AST_H_
