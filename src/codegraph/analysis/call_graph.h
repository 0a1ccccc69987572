#ifndef KGPIP_CODEGRAPH_ANALYSIS_CALL_GRAPH_H_
#define KGPIP_CODEGRAPH_ANALYSIS_CALL_GRAPH_H_

#include <map>
#include <vector>

#include "codegraph/code_graph.h"

namespace kgpip::codegraph::analysis {

/// Call graph distilled from an emitted CodeGraph: one vertex per kCall
/// node, with an edge A -> B when A's result feeds B through data flow
/// (directly or via intermediate non-call nodes such as variables or
/// list literals). Lets clients ask "does this read_csv feed the fitted
/// pipeline?" without re-walking raw edges.
struct CallGraphResult {
  std::vector<int> call_nodes;              // kCall node ids, ascending
  std::map<int, std::vector<int>> callees;  // call id -> directly-fed calls
  std::map<int, std::vector<int>> callers;  // inverse of `callees`

  /// True if data flows (transitively) from call node `src` into `dst`.
  bool Reaches(int src, int dst) const;
};

/// Builds the call graph of an emitted CodeGraph (traced as the
/// "codegraph.pass.call-graph" span).
CallGraphResult BuildCallGraph(const CodeGraph& graph);

}  // namespace kgpip::codegraph::analysis

#endif  // KGPIP_CODEGRAPH_ANALYSIS_CALL_GRAPH_H_
