#include "codegraph/analysis/call_graph.h"

#include <algorithm>
#include <deque>
#include <set>

#include "obs/trace.h"

namespace kgpip::codegraph::analysis {

bool CallGraphResult::Reaches(int src, int dst) const {
  if (src == dst) return false;
  std::set<int> seen{src};
  std::deque<int> frontier{src};
  while (!frontier.empty()) {
    int cur = frontier.front();
    frontier.pop_front();
    auto it = callees.find(cur);
    if (it == callees.end()) continue;
    for (int next : it->second) {
      if (next == dst) return true;
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  return false;
}

CallGraphResult BuildCallGraph(const CodeGraph& graph) {
  KGPIP_TRACE_SPAN("codegraph.pass.call-graph");
  CallGraphResult result;

  std::vector<std::vector<int>> flow(graph.nodes.size());
  for (const CodeEdge& edge : graph.edges) {
    if (edge.kind != EdgeKind::kDataFlow) continue;
    if (edge.src < 0 || edge.dst < 0 ||
        edge.src >= static_cast<int>(graph.nodes.size()) ||
        edge.dst >= static_cast<int>(graph.nodes.size())) {
      continue;  // verifier reports these; stay total here
    }
    flow[static_cast<size_t>(edge.src)].push_back(edge.dst);
  }

  for (size_t i = 0; i < graph.nodes.size(); ++i) {
    if (graph.nodes[i].kind == NodeKind::kCall) {
      result.call_nodes.push_back(static_cast<int>(i));
    }
  }

  // From each call, chase data flow through non-call nodes; the first
  // call node hit on a path is a direct callee.
  for (int call : result.call_nodes) {
    std::set<int> seen{call};
    std::deque<int> frontier{call};
    std::set<int> direct;
    while (!frontier.empty()) {
      int cur = frontier.front();
      frontier.pop_front();
      for (int next : flow[static_cast<size_t>(cur)]) {
        if (!seen.insert(next).second) continue;
        if (graph.nodes[static_cast<size_t>(next)].kind == NodeKind::kCall) {
          direct.insert(next);
        } else {
          frontier.push_back(next);
        }
      }
    }
    for (int callee : direct) {
      result.callees[call].push_back(callee);
      result.callers[callee].push_back(call);
    }
  }
  return result;
}

}  // namespace kgpip::codegraph::analysis
