#ifndef KGPIP_GRAPH4ML_VERIFY_H_
#define KGPIP_GRAPH4ML_VERIFY_H_

#include <vector>

#include "codegraph/analysis/diagnostic.h"
#include "graph4ml/filter.h"

namespace kgpip::graph4ml {

/// Structural invariants of a filtered PipelineGraph:
///
///   * every node type is a valid PipelineVocab index;
///   * every edge's endpoints are in range;
///   * the graph is the chain the filter promises (node 0 is the dataset
///     anchor, exactly num_nodes - 1 edges, acyclic);
///   * when the pipeline is valid(), its last node is an estimator type
///     matching the `estimator` field.
///
/// Runs after every FilterCodeGraph when the CodeGraphVerifier toggle is
/// on (debug/test builds), where violations indicate filter bugs, not bad
/// input scripts; and on every pipeline Graph4Ml::FromJson decodes, where
/// they reject the saved store. Returns the violated invariants (empty =
/// well-formed).
std::vector<codegraph::analysis::Diagnostic> VerifyPipelineGraph(
    const PipelineGraph& pipeline);

}  // namespace kgpip::graph4ml

#endif  // KGPIP_GRAPH4ML_VERIFY_H_
