#include "ml/pipeline.h"

#include "ml/metrics.h"
#include "util/string_util.h"

namespace kgpip::ml {

std::string PipelineSpec::ToString() const {
  std::string out;
  for (const std::string& p : preprocessors) {
    out += p;
    out += " -> ";
  }
  out += learner;
  std::string params_str = params.ToString();
  if (!params_str.empty()) out += " {" + params_str + "}";
  return out;
}

Status Pipeline::FitTransformersAndLearner(const LabeledData& train,
                                           uint64_t seed) {
  transformers_.clear();
  LabeledData current = train;
  uint64_t salt = 0;
  for (const std::string& name : spec_.preprocessors) {
    KGPIP_ASSIGN_OR_RETURN(
        std::unique_ptr<Transformer> transformer,
        CreateTransformer(name, spec_.params, seed + (++salt)));
    KGPIP_RETURN_IF_ERROR(transformer->Fit(current.x, &current.y));
    current.x = transformer->Transform(current.x);
    transformers_.push_back(std::move(transformer));
  }
  KGPIP_ASSIGN_OR_RETURN(std::unique_ptr<Learner> learner,
                         CreateLearner(spec_.learner, task_, spec_.params,
                                       seed));
  KGPIP_RETURN_IF_ERROR(learner->Fit(current));
  learner_ = std::move(learner);
  num_classes_ = current.num_classes;
  return Status::Ok();
}

Result<Pipeline> Pipeline::FitOnTable(const PipelineSpec& spec,
                                      const Table& train, TaskType task,
                                      uint64_t seed) {
  Pipeline p;
  p.spec_ = spec;
  p.task_ = task;
  p.featurizer_ = std::make_shared<Featurizer>();
  KGPIP_RETURN_IF_ERROR(p.featurizer_->Fit(train, task));
  KGPIP_ASSIGN_OR_RETURN(LabeledData data, p.featurizer_->Transform(train));
  KGPIP_RETURN_IF_ERROR(p.FitTransformersAndLearner(data, seed));
  return p;
}

Result<Pipeline> Pipeline::FitOnData(const PipelineSpec& spec,
                                     const LabeledData& train, TaskType task,
                                     uint64_t seed) {
  Pipeline p;
  p.spec_ = spec;
  p.task_ = task;
  KGPIP_RETURN_IF_ERROR(p.FitTransformersAndLearner(train, seed));
  return p;
}

Result<std::vector<double>> Pipeline::PredictData(
    const FeatureMatrix& x) const {
  if (learner_ == nullptr) {
    return Status::FailedPrecondition("pipeline not fitted");
  }
  FeatureMatrix current = x;
  for (const auto& transformer : transformers_) {
    current = transformer->Transform(current);
  }
  return learner_->Predict(current);
}

Result<double> Pipeline::ScoreData(const LabeledData& test) const {
  KGPIP_ASSIGN_OR_RETURN(std::vector<double> pred, PredictData(test.x));
  if (IsClassification(task_)) {
    return MacroF1(test.y, pred,
                   std::max(test.num_classes, num_classes_));
  }
  return R2Score(test.y, pred);
}

Result<double> Pipeline::ScoreTable(const Table& test) const {
  if (featurizer_ == nullptr) {
    return Status::FailedPrecondition(
        "pipeline was fitted on featurized data; use ScoreData");
  }
  KGPIP_ASSIGN_OR_RETURN(LabeledData data, featurizer_->Transform(test));
  return ScoreData(data);
}

}  // namespace kgpip::ml
