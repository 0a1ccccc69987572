#ifndef KGPIP_ML_PIPELINE_H_
#define KGPIP_ML_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/featurizer.h"
#include "ml/learner.h"
#include "ml/preprocess.h"

namespace kgpip::ml {

/// A pipeline skeleton: the (pre-processors, estimator) pair the graph
/// generator emits, before hyper-parameter optimization fills in `params`.
struct PipelineSpec {
  std::vector<std::string> preprocessors;
  std::string learner;
  HyperParams params;

  std::string ToString() const;
};

/// A fitted end-to-end pipeline: featurizer -> transformers -> learner.
class Pipeline {
 public:
  Pipeline() = default;

  /// Builds and fits a pipeline on a raw Table. The featurizer runs first
  /// (imputation, one-hot, text vectorization), then each transformer in
  /// `spec.preprocessors`, then the learner.
  static Result<Pipeline> FitOnTable(const PipelineSpec& spec,
                                     const Table& train, TaskType task,
                                     uint64_t seed);

  /// Fits on already-featurized data reusing an external featurizer
  /// (shared across HPO trials to avoid recomputation).
  static Result<Pipeline> FitOnData(const PipelineSpec& spec,
                                    const LabeledData& train, TaskType task,
                                    uint64_t seed);

  /// Predicts from featurized data.
  Result<std::vector<double>> PredictData(const FeatureMatrix& x) const;

  /// Scores against a raw test table: macro-F1 for classification, R^2
  /// for regression (the paper's metrics).
  Result<double> ScoreTable(const Table& test) const;

  /// Scores featurized data.
  Result<double> ScoreData(const LabeledData& test) const;

  const PipelineSpec& spec() const { return spec_; }
  TaskType task() const { return task_; }

 private:
  Status FitTransformersAndLearner(const LabeledData& train, uint64_t seed);

  PipelineSpec spec_;
  TaskType task_ = TaskType::kBinaryClassification;
  int num_classes_ = 0;
  std::shared_ptr<Featurizer> featurizer_;  // null when fit on LabeledData
  std::vector<std::shared_ptr<Transformer>> transformers_;
  std::shared_ptr<Learner> learner_;
};

}  // namespace kgpip::ml

#endif  // KGPIP_ML_PIPELINE_H_
