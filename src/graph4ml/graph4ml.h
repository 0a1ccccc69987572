#ifndef KGPIP_GRAPH4ML_GRAPH4ML_H_
#define KGPIP_GRAPH4ML_GRAPH4ML_H_

#include <map>
#include <string>
#include <vector>

#include "codegraph/corpus.h"
#include "graph4ml/filter.h"
#include "util/json.h"
#include "util/status.h"

namespace kgpip::graph4ml {

/// The interconnected training structure of the paper (§3.4): every mined
/// ML pipeline, filtered and linked to its dataset node. "Conceptually
/// ... the graph generator functions like a database of datasets and their
/// associated pipelines" — this class is that database's storage layer.
class Graph4Ml {
 public:
  Graph4Ml() = default;

  /// Statically analyzes scripts, filters their code graphs, links each
  /// valid pipeline to its dataset, and accumulates mining statistics.
  Status Build(const std::vector<codegraph::NotebookScript>& scripts);

  /// Pipelines for one dataset (empty if unknown).
  const std::vector<PipelineGraph>& PipelinesFor(
      const std::string& dataset_name) const;

  /// All dataset names with at least one pipeline.
  std::vector<std::string> DatasetNames() const;

  /// Every stored pipeline.
  std::vector<const PipelineGraph*> AllPipelines() const;

  size_t NumPipelines() const;
  size_t NumDatasets() const { return by_dataset_.size(); }

  /// Scripts seen / scripts kept (the paper: 11.7K seen, 2,046 kept).
  size_t scripts_analyzed() const { return scripts_analyzed_; }
  size_t scripts_kept() const { return scripts_kept_; }
  const FilterStats& filter_stats() const { return filter_stats_; }

  /// Frequency of each canonical op across stored pipelines (Figure 9).
  std::map<std::string, size_t> OpHistogram() const;

  /// JSON (de)serialization of the full store. FromJson returns
  /// kParseError for a pipeline without an estimator or one that fails
  /// VerifyPipelineGraph (graph4ml/verify.h).
  Json ToJson() const;
  static Result<Graph4Ml> FromJson(const Json& json);

 private:
  std::map<std::string, std::vector<PipelineGraph>> by_dataset_;
  size_t scripts_analyzed_ = 0;
  size_t scripts_kept_ = 0;
  FilterStats filter_stats_;
};

}  // namespace kgpip::graph4ml

#endif  // KGPIP_GRAPH4ML_GRAPH4ML_H_
