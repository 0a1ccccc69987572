#include "ml/forest.h"

#include <cmath>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace kgpip::ml {

ForestLearner::ForestLearner(std::string registry_name, TaskType task,
                             bool extra_trees, const HyperParams& params,
                             uint64_t seed)
    : registry_name_(std::move(registry_name)),
      task_(task),
      extra_trees_(extra_trees),
      n_estimators_(params.GetInt("n_estimators", 30)),
      rng_(seed) {
  tree_params_.max_depth = params.GetInt("max_depth", 12);
  tree_params_.min_samples_leaf = params.GetInt("min_samples_leaf", 1);
  tree_params_.min_samples_split = params.GetInt("min_samples_split", 2);
  tree_params_.max_features = params.GetNum("max_features", -1.0);
  tree_params_.random_thresholds = extra_trees_;
}

Status ForestLearner::Fit(const LabeledData& data) {
  if (data.rows() == 0) return Status::InvalidArgument("empty dataset");
  num_classes_ = data.num_classes;
  trees_.clear();
  TreeParams params = tree_params_;
  if (params.max_features < 0.0) {
    // sklearn default: sqrt(features) for classification, all for
    // regression forests.
    params.max_features =
        IsClassification(task_)
            ? std::sqrt(static_cast<double>(data.x.cols)) /
                  static_cast<double>(data.x.cols)
            : 1.0;
  }
  const size_t n = data.rows();
  Result<SortedColumns> sorted = SortedColumns::Build(data.x);
  if (!sorted.ok()) return sorted.status();
  std::vector<double> grad;
  std::vector<double> hess;
  if (!IsClassification(task_)) {
    grad.resize(n);
    hess.assign(n, 1.0);
    for (size_t i = 0; i < n; ++i) grad[i] = -data.y[i];
  }
  // Trees are independent given their bootstrap sample and RNG stream.
  // Forking one stream per tree up front decouples each tree's draws
  // from scheduling, so the fitted forest is identical at any thread
  // count (though it differs from the old single-stream sequential fit).
  std::vector<Rng> tree_rngs =
      util::ForkRngs(&rng_, static_cast<size_t>(n_estimators_));
  // Every tree reads the one presort and partitions it in a workspace of
  // its own.
  trees_ = util::ThreadPool::Global().ParallelMap<Tree>(
      static_cast<size_t>(n_estimators_), [&](size_t t) {
        Rng* rng = &tree_rngs[t];
        TreeWorkspace ws;
        if (extra_trees_) {
          ws.SetAllRows(*sorted);
        } else {
          std::vector<size_t> rows(n);
          for (size_t i = 0; i < n; ++i) rows[i] = rng->UniformInt(n);
          ws.SetRows(*sorted, rows);
        }
        if (IsClassification(task_)) {
          return FitClassificationTree(*sorted, data.y, num_classes_, params,
                                       rng, &ws);
        }
        TreeParams p = params;
        p.lambda = 0.0;
        return FitGradientTree(*sorted, grad, hess, p, rng, &ws);
      });
  fitted_ = true;
  return Status::Ok();
}

std::vector<double> ForestLearner::Predict(const FeatureMatrix& x) const {
  KGPIP_CHECK(fitted_);
  std::vector<double> out(x.rows, 0.0);
  if (IsClassification(task_)) {
    std::vector<int> votes(static_cast<size_t>(num_classes_));
    for (size_t r = 0; r < x.rows; ++r) {
      std::fill(votes.begin(), votes.end(), 0);
      for (const Tree& tree : trees_) {
        int c = static_cast<int>(std::lround(tree.Evaluate(x.Row(r))));
        if (c >= 0 && c < num_classes_) ++votes[static_cast<size_t>(c)];
      }
      int best = 0;
      for (int c = 1; c < num_classes_; ++c) {
        if (votes[c] > votes[best]) best = c;
      }
      out[r] = static_cast<double>(best);
    }
  } else {
    for (size_t r = 0; r < x.rows; ++r) {
      double sum = 0.0;
      for (const Tree& tree : trees_) sum += tree.Evaluate(x.Row(r));
      out[r] = trees_.empty() ? 0.0
                              : sum / static_cast<double>(trees_.size());
    }
  }
  return out;
}

}  // namespace kgpip::ml
