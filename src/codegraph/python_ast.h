#ifndef KGPIP_CODEGRAPH_PYTHON_AST_H_
#define KGPIP_CODEGRAPH_PYTHON_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace kgpip::codegraph {

/// AST for the Python subset that data-science notebooks exercise:
/// imports, assignments (incl. tuple unpacking), attribute chains, calls
/// with positional/keyword arguments, subscripts, literals, lists, and
/// `for`/`if` blocks. That is the same surface GraphGen4Code models for
/// flow analysis of ML scripts.

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kName,       // x
  kAttribute,  // value.attr
  kCall,       // func(args, kw=...)
  kConstant,   // "str" | number
  kList,       // [a, b]
  kSubscript,  // value[index]
  kBinOp,      // a + b (operator kept as text)
};

struct KeywordArg;

struct Expr {
  ExprKind kind = ExprKind::kName;
  // kName: `text` is the identifier. kAttribute: `text` is the attribute.
  // kConstant: `text` is the literal spelling; `is_string` marks strings.
  // kBinOp: `text` is the operator.
  std::string text;
  bool is_string = false;
  ExprPtr value;               // attribute/subscript/call target, binop lhs
  ExprPtr index;               // subscript index, binop rhs
  std::vector<ExprPtr> args;   // call args / list elements
  std::vector<KeywordArg> keywords;
  int line = 0;
};

struct KeywordArg {
  std::string name;
  ExprPtr value;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

enum class StmtKind {
  kAssign,      // targets = value
  kExpr,        // bare expression (usually a call)
  kImport,      // import module [as alias]
  kImportFrom,  // from module import name [as alias]
  kFor,         // for var in iter: body
  kIf,          // if cond: body [else: orelse]
};

struct Stmt {
  StmtKind kind = StmtKind::kExpr;
  // kAssign: `targets` (Name/Attribute/Subscript), `value`.
  std::vector<ExprPtr> targets;
  ExprPtr value;  // assign RHS, expr-statement, for-iterable, if-condition
  // Imports.
  std::string module;
  std::string imported_name;  // from-import only
  std::string alias;
  // for-loop variable.
  std::string loop_var;
  std::vector<StmtPtr> body;
  std::vector<StmtPtr> orelse;
  int line = 0;
};

struct Module {
  std::vector<StmtPtr> statements;
};

/// Expressions and indented blocks nest at most this deep; every bracket
/// opens one more expression, so `x = (1)` nests two. No expression tree
/// is taller either: each operator, `.name`, call or subscript in a chain
/// wraps the expression before it, so `a + b + c` is three levels tall.
/// Deeper input fails with `parse.nesting-too-deep` (CPython stops at 200
/// nested brackets).
constexpr int kMaxParseNesting = 200;

/// Parses a script; reports the first syntax error with its line.
Result<Module> ParsePython(const std::string& source);

}  // namespace kgpip::codegraph

#endif  // KGPIP_CODEGRAPH_PYTHON_AST_H_
