#include "hpo/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace kgpip::hpo {

CfoSearch::CfoSearch(SearchSpace space, uint64_t seed)
    : space_(std::move(space)), rng_(seed) {}

ml::HyperParams CfoSearch::Propose() {
  if (first_) return space_.DefaultConfig();
  if (rng_.Bernoulli(0.08)) return space_.Sample(&rng_);  // restart kick
  return space_.Perturb(incumbent_, step_, &rng_);
}

void CfoSearch::Tell(const ml::HyperParams& config, double score) {
  // A NaN score compares false against everything, which used to flip
  // `first_` while leaving `best_config_` unset — the search could then
  // return an empty incumbent. Treat non-finite scores as failures: they
  // shrink the step but never win a comparison, and until a finite score
  // arrives the last-told config stands in as the incumbent so the
  // search never returns an empty configuration.
  const bool finite = std::isfinite(score);
  if (finite && score > best_score_) {
    best_score_ = score;
    best_config_ = config;
    has_best_ = true;
  } else if (!has_best_) {
    best_config_ = config;
  }
  if (first_) {
    first_ = false;
    incumbent_ = config;
    incumbent_score_ = finite ? score : -1e18;
    return;
  }
  if (finite && score > incumbent_score_) {
    incumbent_ = config;
    incumbent_score_ = score;
    step_ = std::min(0.6, step_ * 1.2);  // expand on success
  } else {
    step_ = std::max(0.05, step_ * 0.85);  // shrink on failure
  }
}

RandomSearch::RandomSearch(SearchSpace space, uint64_t seed)
    : space_(std::move(space)), rng_(seed) {}

ml::HyperParams RandomSearch::Propose() {
  if (first_) return space_.DefaultConfig();
  return space_.Sample(&rng_);
}

void RandomSearch::Tell(const ml::HyperParams& config, double score) {
  first_ = false;
  if (std::isfinite(score) && score > best_score_) {
    best_score_ = score;
    best_config_ = config;
    has_best_ = true;
  } else if (!has_best_) {
    best_config_ = config;  // never return an empty incumbent
  }
}

SkeletonSearch::SkeletonSearch(ml::PipelineSpec skeleton,
                               std::unique_ptr<Searcher> searcher,
                               uint64_t seed)
    : skeleton_(std::move(skeleton)),
      group_(skeleton_.ToString()),
      searcher_(std::move(searcher)),
      trial_seed_(seed) {
  result_.best_spec = skeleton_;
}

void SkeletonSearch::Run(TrialGuard* guard, Budget* budget) {
  while (!guard->CircuitOpen(group_) && budget->ConsumeTrial()) {
    ml::HyperParams config = searcher_->Propose();
    ml::PipelineSpec spec = skeleton_;
    // Merge skeleton params under the proposed configuration.
    for (const auto& [k, v] : config.numeric()) spec.params.SetNum(k, v);
    for (const auto& [k, v] : config.strings()) spec.params.SetStr(k, v);
    GuardedTrial trial = guard->Evaluate(spec, ++trial_seed_, group_);
    ++result_.trials;
    if (trial.ok()) {
      searcher_->Tell(config, trial.score);
      if (trial.score > result_.best_score) {
        result_.best_score = trial.score;
        result_.best_spec = spec;
      }
    } else {
      // Failure signal: NaN shrinks CFO's step without polluting the
      // incumbent (the searchers are NaN-safe by contract).
      searcher_->Tell(config, std::numeric_limits<double>::quiet_NaN());
      ++result_.failures;
    }
  }
  result_.abandoned = guard->CircuitOpen(group_);
}

OptimizeResult HpOptimizer::OptimizeSkeleton(const ml::PipelineSpec& skeleton,
                                             TrialGuard* guard,
                                             Budget* budget,
                                             uint64_t seed) const {
  SkeletonSearch search = StartSkeleton(skeleton, seed);
  search.Run(guard, budget);
  if (search.result().abandoned) {
    guard->NoteRedistribution(search.group(), budget->remaining_trials());
  }
  return search.result();
}

namespace {

class FlamlOptimizer : public HpOptimizer {
 public:
  SkeletonSearch StartSkeleton(const ml::PipelineSpec& skeleton,
                               uint64_t seed) const override {
    return SkeletonSearch(
        skeleton,
        std::make_unique<CfoSearch>(
            SpaceForSkeleton(skeleton.learner, skeleton.preprocessors), seed),
        seed);
  }
  std::string name() const override { return "flaml"; }
};

class AskOptimizer : public HpOptimizer {
 public:
  SkeletonSearch StartSkeleton(const ml::PipelineSpec& skeleton,
                               uint64_t seed) const override {
    return SkeletonSearch(
        skeleton,
        std::make_unique<RandomSearch>(
            SpaceForSkeleton(skeleton.learner, skeleton.preprocessors), seed),
        seed);
  }
  std::string name() const override { return "autosklearn"; }
};

}  // namespace

Result<std::unique_ptr<HpOptimizer>> CreateOptimizer(
    const std::string& name) {
  std::unique_ptr<HpOptimizer> out;
  if (name == "flaml") {
    out = std::make_unique<FlamlOptimizer>();
  } else if (name == "autosklearn") {
    out = std::make_unique<AskOptimizer>();
  } else {
    return Status::NotFound("unknown optimizer '" + name + "'");
  }
  return out;
}

}  // namespace kgpip::hpo
