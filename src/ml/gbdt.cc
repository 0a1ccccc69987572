#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace kgpip::ml {

namespace {

struct Preset {
  int n_estimators;
  double learning_rate;
  int max_depth;
  double subsample;
  double colsample;
};

Preset PresetFor(const std::string& registry_name) {
  if (registry_name == "xgboost") {
    return {40, 0.25, 6, 1.0, 0.8};
  }
  if (registry_name == "lgbm") {
    return {60, 0.15, 5, 0.9, 1.0};
  }
  return {40, 0.1, 3, 1.0, 1.0};  // gradient_boosting
}

}  // namespace

GbdtLearner::GbdtLearner(std::string registry_name, TaskType task,
                         const HyperParams& params, uint64_t seed)
    : registry_name_(std::move(registry_name)), task_(task), rng_(seed) {
  Preset preset = PresetFor(registry_name_);
  n_estimators_ = params.GetInt("n_estimators", preset.n_estimators);
  learning_rate_ = params.GetNum("learning_rate", preset.learning_rate);
  subsample_ = params.GetNum("subsample", preset.subsample);
  tree_params_.max_depth = params.GetInt("max_depth", preset.max_depth);
  tree_params_.min_samples_leaf = params.GetInt("min_samples_leaf", 3);
  tree_params_.min_samples_split = 2 * tree_params_.min_samples_leaf;
  tree_params_.max_features = params.GetNum("colsample", preset.colsample);
  tree_params_.lambda = params.GetNum("lambda", 1.0);
}

Status GbdtLearner::Fit(const LabeledData& data) {
  if (data.rows() == 0) return Status::InvalidArgument("empty dataset");
  const size_t n = data.rows();
  num_classes_ = data.num_classes;
  trees_.clear();
  rounds_used_ = 0;

  const bool classification = IsClassification(task_);
  score_dims_ = classification ? std::max(2, num_classes_) : 1;

  // Base score: log-odds-free zero init for classification, mean target
  // for regression.
  if (classification) {
    base_score_ = 0.0;
  } else {
    base_score_ = 0.0;
    for (double v : data.y) base_score_ += v;
    base_score_ /= static_cast<double>(n);
  }

  Result<SortedColumns> sorted = SortedColumns::Build(data.x);
  if (!sorted.ok()) return sorted.status();

  // Running scores per row (and per class for classification).
  std::vector<double> scores(n * static_cast<size_t>(score_dims_),
                             classification ? 0.0 : base_score_);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  std::vector<double> probs(static_cast<size_t>(score_dims_));
  // Without row subsampling every tree shares the presort's root lists;
  // otherwise each round's sample is expanded once for all its trees.
  TreeWorkspace workspace;
  if (subsample_ >= 1.0) workspace.SetAllRows(*sorted);
  std::vector<size_t> rows;
  rows.reserve(n);

  for (int round = 0; round < n_estimators_; ++round) {
    if (subsample_ < 1.0) {
      rows.clear();
      for (size_t i = 0; i < n; ++i) {
        if (rng_.Bernoulli(subsample_)) rows.push_back(i);
      }
      if (rows.empty()) rows.push_back(rng_.UniformInt(n));
      workspace.SetRows(*sorted, rows);
    }

    if (classification) {
      for (int k = 0; k < score_dims_; ++k) {
        // Softmax gradients for class k.
        for (size_t i = 0; i < n; ++i) {
          const double* s =
              scores.data() + i * static_cast<size_t>(score_dims_);
          double max_s = s[0];
          for (int c = 1; c < score_dims_; ++c) {
            max_s = std::max(max_s, s[c]);
          }
          double z = 0.0;
          for (int c = 0; c < score_dims_; ++c) {
            probs[c] = std::exp(s[c] - max_s);
            z += probs[c];
          }
          double p = probs[k] / z;
          double y = static_cast<int>(data.y[i]) == k ? 1.0 : 0.0;
          grad[i] = p - y;
          hess[i] = std::max(p * (1.0 - p), 1e-6);
        }
        Tree tree = FitGradientTree(*sorted, grad, hess, tree_params_,
                                    &rng_, &workspace);
        for (size_t i = 0; i < n; ++i) {
          scores[i * static_cast<size_t>(score_dims_) +
                 static_cast<size_t>(k)] +=
              learning_rate_ * tree.Evaluate(data.x.Row(i));
        }
        trees_.push_back(std::move(tree));
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        grad[i] = scores[i] - data.y[i];
        hess[i] = 1.0;
      }
      Tree tree = FitGradientTree(*sorted, grad, hess, tree_params_, &rng_,
                                  &workspace);
      for (size_t i = 0; i < n; ++i) {
        scores[i] += learning_rate_ * tree.Evaluate(data.x.Row(i));
      }
      trees_.push_back(std::move(tree));
    }
    ++rounds_used_;
  }
  fitted_ = true;
  return Status::Ok();
}

std::vector<double> GbdtLearner::ScoreRow(const double* row) const {
  std::vector<double> s(static_cast<size_t>(score_dims_),
                        IsClassification(task_) ? 0.0 : base_score_);
  size_t tree_index = 0;
  for (int round = 0; round < rounds_used_; ++round) {
    for (int k = 0; k < (IsClassification(task_) ? score_dims_ : 1); ++k) {
      s[static_cast<size_t>(k)] +=
          learning_rate_ * trees_[tree_index].Evaluate(row);
      ++tree_index;
    }
  }
  return s;
}

std::vector<double> GbdtLearner::Predict(const FeatureMatrix& x) const {
  KGPIP_CHECK(fitted_);
  std::vector<double> out(x.rows);
  for (size_t r = 0; r < x.rows; ++r) {
    std::vector<double> s = ScoreRow(x.Row(r));
    if (IsClassification(task_)) {
      size_t best = 0;
      for (size_t c = 1; c < s.size(); ++c) {
        if (s[c] > s[best]) best = c;
      }
      out[r] = static_cast<double>(best);
    } else {
      out[r] = s[0];
    }
  }
  return out;
}

}  // namespace kgpip::ml
