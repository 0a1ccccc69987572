#include "codegraph/code_graph.h"

namespace kgpip::codegraph {

const char* NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kCall:
      return "call";
    case NodeKind::kVariable:
      return "variable";
    case NodeKind::kLiteral:
      return "literal";
    case NodeKind::kImport:
      return "import";
    case NodeKind::kParameter:
      return "parameter";
    case NodeKind::kLocation:
      return "location";
    case NodeKind::kDoc:
      return "doc";
    case NodeKind::kDataset:
      return "dataset";
  }
  return "?";
}

const char* EdgeKindName(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kDataFlow:
      return "data_flow";
    case EdgeKind::kControlFlow:
      return "control_flow";
    case EdgeKind::kParameter:
      return "parameter";
    case EdgeKind::kLocation:
      return "location";
    case EdgeKind::kDoc:
      return "doc";
  }
  return "?";
}

size_t CodeGraph::CountNodes(NodeKind kind) const {
  size_t n = 0;
  for (const CodeNode& node : nodes) {
    if (node.kind == kind) ++n;
  }
  return n;
}

}  // namespace kgpip::codegraph
