#ifndef KGPIP_CODEGRAPH_ANALYSIS_TYPE_FLOW_H_
#define KGPIP_CODEGRAPH_ANALYSIS_TYPE_FLOW_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "codegraph/python_ast.h"

namespace kgpip::codegraph::analysis {

/// The qualified types a variable may hold at a program point. More than
/// one element means the paths into this point disagree (e.g. an
/// if/else assigning different estimator classes).
using TypeSet = std::set<std::string>;
using TypeEnv = std::map<std::string, TypeSet>;
using ImportMap = std::map<std::string, std::string>;  // alias -> path

/// Flow-sensitive receiver-type propagation over the statement tree.
/// Replaces the analyzer's historical "last assignment wins" map: each
/// statement gets the type environment that actually reaches it, with
/// branch joins unioning the candidate sets and loop bodies iterated to
/// a fixpoint.
struct TypeFlowResult {
  ImportMap imports;
  /// Type environment at the entry of every statement (loop headers carry
  /// the post-fixpoint merge, so body types include back-edge bindings).
  std::map<const Stmt*, TypeEnv> stmt_in;

  const TypeEnv& EnvAt(const Stmt* stmt) const;
};

/// Runs the type flow over a parsed module (traced as the
/// "codegraph.pass.type-flow" span). The analyzer calls it once per
/// script, before emitting the graph.
TypeFlowResult RunTypeFlow(const Module& module);

/// ---- Shared resolution helpers (used by the type flow and by the graph
/// emission walk in analyzer.cc, so both agree on every label). ----

/// Known return types for the APIs the corpus uses; "" when unknown.
/// Constructor calls (Capitalized last component) return their own class.
std::string ReturnTypeOf(const std::string& qualified);

/// For tuple unpacking `a, b = f(...)`: the per-slot element type.
std::string TupleElementType(const std::string& value_type, bool is_tuple);

/// Alias -> module path over the whole module (imports in notebooks are
/// effectively global; nesting them in branches is not a corpus idiom).
ImportMap CollectImports(const Module& module);

/// Candidate qualified names for a callee expression under `env`. Always
/// returns at least one name (falling back to the spelled chain). When
/// the base of the chain resolved through an import, `via_import_alias`
/// (if non-null) receives that alias.
std::vector<std::string> ResolveCalleeNames(const Expr& func,
                                            const TypeEnv& env,
                                            const ImportMap& imports,
                                            std::string* via_import_alias =
                                                nullptr);

/// Possible qualified types of an expression's value (empty = unknown).
TypeSet EvalExprTypes(const Expr& expr, const TypeEnv& env,
                      const ImportMap& imports);

}  // namespace kgpip::codegraph::analysis

#endif  // KGPIP_CODEGRAPH_ANALYSIS_TYPE_FLOW_H_
