#include "automl/flaml_system.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "hpo/optimizer.h"
#include "ml/learner.h"

namespace kgpip::automl {

Status FinalizeResult(const ml::PipelineSpec& spec, const Table& train,
                      TaskType task, uint64_t seed, AutoMlResult* result) {
  KGPIP_ASSIGN_OR_RETURN(result->fitted,
                         ml::Pipeline::FitOnTable(spec, train, task, seed));
  result->best_spec = spec;
  return Status::Ok();
}

Result<AutoMlResult> FlamlSystem::Fit(const Table& train, TaskType task,
                                      hpo::Budget budget,
                                      uint64_t seed) const {
  KGPIP_ASSIGN_OR_RETURN(
      hpo::TrialEvaluator evaluator,
      hpo::TrialEvaluator::Create(train, task, 0.25, seed));

  // One CFO state per supported learner.
  struct LearnerState {
    std::string name;
    double cost = 1.0;
    hpo::CfoSearch search;
    double best = -1e18;
    int trials = 0;
  };
  std::vector<LearnerState> states;
  uint64_t salt = 0;
  for (const ml::LearnerInfo& info : ml::LearnerRegistry()) {
    if (!ml::LearnerSupports(info.name, task)) continue;
    states.push_back(LearnerState{
        info.name, info.relative_cost,
        hpo::CfoSearch(hpo::SpaceForLearner(info.name), seed + (++salt)),
        -1e18, 0});
  }
  // Cheap learners first, FLAML-style.
  std::sort(states.begin(), states.end(),
            [](const LearnerState& a, const LearnerState& b) {
              return a.cost < b.cost;
            });

  AutoMlResult result;
  // Trials run through the guard: NaN quarantine, bounded retries, and a
  // per-learner circuit breaker that drops a learner whose trials keep
  // failing instead of letting it eat the whole budget.
  hpo::TrialGuard guard(&evaluator);
  uint64_t trial_seed = seed * 31 + 7;
  int total_trials = 0;
  while (!budget.Exhausted()) {
    // Estimated-cost-for-improvement scheduling: untried learners first
    // (in cost order); afterwards pick the learner with the best
    // score-per-cost upper bound. Circuit-open learners are skipped.
    LearnerState* chosen = nullptr;
    for (LearnerState& s : states) {
      if (s.trials == 0 && !guard.CircuitOpen(s.name)) {
        chosen = &s;
        break;
      }
    }
    if (chosen == nullptr) {
      double best_priority = -1e18;
      for (LearnerState& s : states) {
        if (guard.CircuitOpen(s.name)) continue;
        double exploration =
            0.25 * std::sqrt(std::log(static_cast<double>(total_trials + 2)) /
                            static_cast<double>(s.trials + 1));
        double priority =
            (s.best + exploration) / std::sqrt(s.cost);
        if (priority > best_priority) {
          best_priority = priority;
          chosen = &s;
        }
      }
    }
    if (chosen == nullptr) break;  // every learner abandoned
    if (!budget.ConsumeTrial()) break;
    ml::HyperParams config = chosen->search.Propose();
    ml::PipelineSpec spec;
    spec.learner = chosen->name;
    spec.params = config;
    hpo::GuardedTrial trial = guard.Evaluate(spec, ++trial_seed,
                                             chosen->name);
    double value = trial.ok() ? trial.score
                              : std::numeric_limits<double>::quiet_NaN();
    chosen->search.Tell(config, value);
    if (trial.ok()) chosen->best = std::max(chosen->best, trial.score);
    ++chosen->trials;
    ++total_trials;
    result.learner_sequence.push_back(chosen->name);
    if (trial.ok() && trial.score > result.validation_score) {
      result.validation_score = trial.score;
      result.best_spec = spec;
    }
  }
  result.trials = total_trials;
  result.report = guard.TakeReport();
  if (result.best_spec.learner.empty()) {
    return Status::Internal("FLAML search produced no candidate");
  }
  KGPIP_RETURN_IF_ERROR(
      FinalizeResult(result.best_spec, train, task, seed, &result));
  return result;
}

}  // namespace kgpip::automl
