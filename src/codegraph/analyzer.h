#ifndef KGPIP_CODEGRAPH_ANALYZER_H_
#define KGPIP_CODEGRAPH_ANALYZER_H_

#include <string>

#include "codegraph/code_graph.h"
#include "codegraph/python_ast.h"

namespace kgpip::codegraph {

/// Static analysis of one script: resolves imports and receiver types,
/// tracks the flow of objects through calls, and emits a code graph with
/// data-flow, control-flow and auxiliary nodes/edges.
///
/// The auxiliary nodes imitate GraphGen4Code's density: one parameter
/// node per call argument, three location records per import and call,
/// and a doc node for calls on every fourth line. A 72-line script
/// yields ~1600 nodes / ~3700 edges, which is what makes unfiltered
/// graphs expensive to train on.
///
/// Receiver types are flow-SENSITIVE (analysis::RunTypeFlow): each
/// statement sees the type environment reaching it, branch joins union
/// the candidates, and a receiver with several possible classes emits
/// one call node per candidate qualified name. Calls are additionally
/// rooted in their import nodes via data-flow edges, and — when the
/// analysis::CodeGraphVerifier is enabled (debug/test builds) — every
/// emitted graph is checked against the structural invariants before
/// being returned.
Result<CodeGraph> AnalyzeScript(const std::string& script_name,
                                const std::string& source);

/// The dataset file argument of the pandas.read_csv call feeding the
/// fitted pipeline ("" if none). Aliased imports are already resolved in
/// call labels; when several read_csv calls exist, the one whose frame
/// reaches an ML estimator/transformer call through data flow wins over
/// earlier auxiliary loads. Graph4ML uses this to link pipelines to
/// dataset nodes when the file name is explicit.
std::string FindReadCsvArgument(const CodeGraph& graph);

}  // namespace kgpip::codegraph

#endif  // KGPIP_CODEGRAPH_ANALYZER_H_
