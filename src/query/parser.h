#ifndef TOPODB_QUERY_PARSER_H_
#define TOPODB_QUERY_PARSER_H_

#include <string>

#include "src/base/status.h"
#include "src/query/ast.h"

namespace topodb {

// Parses the textual form of the region-based language. Examples:
//
//   exists region r . subset(r, A) and subset(r, B) and subset(r, C)
//
//   forall region r . forall region s .
//     (subset(r, A) and subset(s, A)) implies
//     exists region t . subset(t, A) and connect(t, r) and connect(t, s)
//
//   exists cell c . subset(c, A) and subset(c, B)
//
//   exists name a . exists name b . not (a = b) and overlap(a, b)
//
//   exists cell c . subset(c, "main street") and subset(c, "1a")
//
// Identifiers bound by a quantifier are variables; free identifiers are
// region name constants (denoting ext(name)). Connectives by decreasing
// precedence: not, and, or, implies (right associative), iff. A
// quantifier's body extends as far right as possible.
//
// Grammar (terms):
//
//   term  ::= identifier | quoted
//   ident ::= [A-Za-z_][A-Za-z0-9_]*        (not a keyword)
//   quoted ::= '"' ( [^"\\] | '\"' | '\\\\' )* '"'
//
// A quoted term is always a region name constant — never a variable — so
// every name ValidateRegionName accepts is referenceable, including names
// that are not identifiers ("1a", "main street") or collide with keywords
// ("cell", "exists"). Inside quotes, \" yields a double quote and \\ a
// backslash; any other escape is a parse error. Quantified variables must
// still be plain identifiers.
//
// A query nested deeper than kMaxQueryDepth is a ParseError.
Result<FormulaPtr> ParseQuery(const std::string& text);

// The deepest query ParseQuery accepts. Each parenthesis, `not`,
// quantifier and binary connective adds one level, so a chain of n
// operators is n levels deep whatever its associativity. The parser,
// canonicalization, ToString, name validation, the evaluators and the
// AST destructor all recurse on depth; the bound keeps them within a
// thread's stack whatever the query text.
inline constexpr int kMaxQueryDepth = 256;

// True for reserved words of the language (quantifiers, connectives, sort
// names and predicate names); such words only denote regions when quoted.
bool IsQueryKeyword(const std::string& word);

// True iff the word lexes as a single non-keyword identifier token, i.e.
// it can appear in a query without quoting.
bool IsPlainQueryIdentifier(const std::string& word);

// Renders a region name as a quoted term ('"' + escapes + '"').
std::string QuoteQueryName(const std::string& name);

}  // namespace topodb

#endif  // TOPODB_QUERY_PARSER_H_
