#ifndef KGPIP_HPO_OPTIMIZER_H_
#define KGPIP_HPO_OPTIMIZER_H_

#include <memory>
#include <string>

#include "hpo/evaluator.h"
#include "hpo/search_space.h"
#include "hpo/trial_guard.h"

namespace kgpip::hpo {

/// Outcome of optimizing one skeleton.
struct OptimizeResult {
  ml::PipelineSpec best_spec;
  double best_score = -1e18;
  int trials = 0;
  int failures = 0;
  /// True when the skeleton's circuit breaker opened, which ended its
  /// search; the rest of its budget goes to the skeletons after it.
  bool abandoned = false;
};

/// The Propose/Tell loop a skeleton search drives: propose a
/// configuration, evaluate it, tell the score back.
class Searcher {
 public:
  virtual ~Searcher() = default;
  virtual ml::HyperParams Propose() = 0;
  virtual void Tell(const ml::HyperParams& config, double score) = 0;
};

/// Stateful cost-frugal local search (FLAML's CFO flavour): start from
/// the default configuration, propose one-dimension perturbations, expand
/// the step on success and shrink it on failure, with occasional random
/// restarts. Non-finite scores are failure signals: they shrink the step
/// (FLAML treats failed trials as evidence to search more locally) and
/// never enter best/incumbent comparisons.
class CfoSearch final : public Searcher {
 public:
  CfoSearch(SearchSpace space, uint64_t seed);

  ml::HyperParams Propose() override;
  void Tell(const ml::HyperParams& config, double score) override;

  double best_score() const { return best_score_; }
  const ml::HyperParams& best_config() const { return best_config_; }
  /// False until a finite-score trial has been told.
  bool has_best() const { return has_best_; }

 private:
  SearchSpace space_;
  Rng rng_;
  double step_ = 0.3;
  bool first_ = true;
  bool has_best_ = false;
  ml::HyperParams incumbent_;
  double incumbent_score_ = -1e18;
  ml::HyperParams best_config_;
  double best_score_ = -1e18;
};

/// Stateful random search with a default-config warm start (the
/// Auto-Sklearn-style optimizer's inner loop). NaN-score safe like
/// CfoSearch.
class RandomSearch final : public Searcher {
 public:
  RandomSearch(SearchSpace space, uint64_t seed);

  ml::HyperParams Propose() override;
  void Tell(const ml::HyperParams& config, double score) override;

  double best_score() const { return best_score_; }
  const ml::HyperParams& best_config() const { return best_config_; }
  bool has_best() const { return has_best_; }

 private:
  SearchSpace space_;
  Rng rng_;
  bool first_ = true;
  bool has_best_ = false;
  ml::HyperParams best_config_;
  double best_score_ = -1e18;
};

/// One skeleton's hyper-parameter search, resumable: a Run stops where
/// the next Run picks up, with the same searcher and trial-seed counter,
/// so Runs over a trials and then b trials try exactly the configurations
/// one Run over a + b trials tries. Searchers never read the budget.
class SkeletonSearch {
 public:
  SkeletonSearch(ml::PipelineSpec skeleton,
                 std::unique_ptr<Searcher> searcher, uint64_t seed);

  /// Runs trials of the skeleton through `guard` (which owns retries,
  /// quarantine, and the per-skeleton circuit breaker) until `budget`
  /// runs out or the guard opens the skeleton's circuit, which sets
  /// `abandoned`.
  void Run(TrialGuard* guard, Budget* budget);

  /// Totals over every Run so far.
  const OptimizeResult& result() const { return result_; }
  /// The guard group of its trials: the skeleton's spec string.
  const std::string& group() const { return group_; }

 private:
  ml::PipelineSpec skeleton_;
  std::string group_;
  std::unique_ptr<Searcher> searcher_;
  uint64_t trial_seed_;
  OptimizeResult result_;
};

/// A skeleton-level hyper-parameter optimizer (the component KGpip
/// borrows from FLAML / Auto-Sklearn).
class HpOptimizer {
 public:
  virtual ~HpOptimizer() = default;

  /// A fresh search of `skeleton`'s hyper-parameters, seeded by `seed`.
  virtual SkeletonSearch StartSkeleton(const ml::PipelineSpec& skeleton,
                                       uint64_t seed) const = 0;
  /// Spends `budget` on a fresh search of `skeleton` through `guard`.
  /// When the guard opens the skeleton's circuit, the search stops with
  /// `abandoned` set and the guard records the budget's unspent trials
  /// as redistributed.
  OptimizeResult OptimizeSkeleton(const ml::PipelineSpec& skeleton,
                                  TrialGuard* guard, Budget* budget,
                                  uint64_t seed) const;
  virtual std::string name() const = 0;
};

/// "flaml" (CFO) or "autosklearn" (random + default warm start).
Result<std::unique_ptr<HpOptimizer>> CreateOptimizer(
    const std::string& name);

}  // namespace kgpip::hpo

#endif  // KGPIP_HPO_OPTIMIZER_H_
