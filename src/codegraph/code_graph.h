#ifndef KGPIP_CODEGRAPH_CODE_GRAPH_H_
#define KGPIP_CODEGRAPH_CODE_GRAPH_H_

#include <string>
#include <vector>

namespace kgpip::codegraph {

/// Node flavours of a GraphGen4Code-style code graph. Beyond call and
/// variable nodes, the real toolkit emits many auxiliary nodes (source
/// locations, parameters, literals, documentation); they dominate graph
/// size and are exactly what KGpip's filter removes.
enum class NodeKind {
  kCall,       // an invocation, labeled with its resolved qualified name
  kVariable,   // a named binding
  kLiteral,    // constant value
  kImport,     // module import
  kParameter,  // one argument slot of a call
  kLocation,   // source position record
  kDoc,        // docstring / comment-ish metadata
  kDataset,    // dataset anchor added by Graph4ML linking
};

const char* NodeKindName(NodeKind kind);

enum class EdgeKind {
  kDataFlow,     // value produced by src flows into dst
  kControlFlow,  // src executes immediately before dst
  kParameter,    // call -> parameter node
  kLocation,     // node -> location record
  kDoc,          // node -> documentation record
};

const char* EdgeKindName(EdgeKind kind);

struct CodeNode {
  NodeKind kind = NodeKind::kCall;
  /// Resolved qualified label, e.g. "sklearn.svm.SVC.fit",
  /// "pandas.read_csv", a variable name, or a literal spelling.
  std::string label;
  int line = 0;
};

struct CodeEdge {
  int src = 0;
  int dst = 0;
  EdgeKind kind = EdgeKind::kDataFlow;
};

/// A per-script code graph.
struct CodeGraph {
  std::string script_name;
  std::vector<CodeNode> nodes;
  std::vector<CodeEdge> edges;

  int AddNode(NodeKind kind, std::string label, int line) {
    nodes.push_back({kind, std::move(label), line});
    return static_cast<int>(nodes.size()) - 1;
  }
  void AddEdge(int src, int dst, EdgeKind kind) {
    edges.push_back({src, dst, kind});
  }
  size_t CountNodes(NodeKind kind) const;
};

}  // namespace kgpip::codegraph

#endif  // KGPIP_CODEGRAPH_CODE_GRAPH_H_
