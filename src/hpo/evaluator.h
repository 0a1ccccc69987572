#ifndef KGPIP_HPO_EVALUATOR_H_
#define KGPIP_HPO_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "data/table.h"
#include "ml/featurizer.h"
#include "ml/pipeline.h"
#include "util/stopwatch.h"

namespace kgpip::hpo {

/// Optimization budget: a trial cap (deterministic accounting used by the
/// benchmarks) plus an optional wall-clock cap. The paper's time budgets
/// (1 h / 30 min) map to trial counts here, scaled to a single core.
class Budget {
 public:
  Budget(int max_trials, double max_seconds)
      : max_trials_(max_trials), deadline_(max_seconds) {}

  /// Consumes one trial; false if the budget is already exhausted.
  bool ConsumeTrial() {
    if (Exhausted()) return false;
    ++used_trials_;
    return true;
  }
  /// Charges `trials` trials spent under a slice of this budget, even if
  /// the deadline has passed since.
  void Charge(int trials) { used_trials_ += trials; }
  bool Exhausted() const {
    return used_trials_ >= max_trials_ || deadline_.Expired();
  }
  int used_trials() const { return used_trials_; }
  int max_trials() const { return max_trials_; }
  int remaining_trials() const {
    return std::max(0, max_trials_ - used_trials_);
  }

  /// The next of `k` skeletons' slice of the *remaining* trials — the
  /// paper's "(T - t) / K" division across predicted graphs. Ceiling
  /// division gives the remainder to the first slices instead of dropping
  /// it (10 trials over 3 skeletons → 4, then 3, then 3 when each slice's
  /// trials are charged back before the next split). The slice keeps this
  /// budget's deadline, so slices searched side by side all stop when the
  /// whole budget's wall clock runs out.
  Budget SplitRemaining(int k) const {
    k = std::max(1, k);
    Budget slice = *this;
    slice.max_trials_ = std::max(1, (remaining_trials() + k - 1) / k);
    slice.used_trials_ = 0;
    return slice;
  }

 private:
  int max_trials_;
  int used_trials_ = 0;
  Deadline deadline_;
};

/// Featurizes a training table once (with an internal train/validation
/// holdout) and evaluates pipeline configurations against the holdout.
/// Sharing one featurization across every trial is what lets the 1-core
/// benchmark suite finish; it matches how real AutoML systems cache
/// data preparation. Read-only after Create, so the skeleton searches of
/// one Fit call Evaluate from several threads at once.
class TrialEvaluator {
 public:
  /// `holdout_fraction` rows go to validation.
  static Result<TrialEvaluator> Create(const Table& train, TaskType task,
                                       double holdout_fraction,
                                       uint64_t seed);

  /// Fits `spec` on the fit split, scores on the holdout (macro-F1 / R²).
  /// Errors (e.g. unsupported learner) surface as a status.
  Result<double> Evaluate(const ml::PipelineSpec& spec, uint64_t seed) const;

  TaskType task() const { return task_; }
  const ml::LabeledData& fit_data() const { return fit_data_; }

 private:
  TaskType task_ = TaskType::kBinaryClassification;
  ml::LabeledData fit_data_;
  ml::LabeledData holdout_data_;
};

}  // namespace kgpip::hpo

#endif  // KGPIP_HPO_EVALUATOR_H_
