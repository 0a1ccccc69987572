#include "automl/autosklearn_system.h"

#include <algorithm>
#include <map>

#include "automl/meta_features.h"
#include "data/synthetic.h"
#include "hpo/optimizer.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "ml/learner.h"

namespace kgpip::automl {

namespace {

/// One record of the built-in experience database: meta-features of a
/// previously "run" dataset plus the learners that worked on it.
struct Experience {
  std::vector<double> meta;
  std::vector<std::string> learners;
};

/// The experience database stands in for Auto-Sklearn's OpenML run
/// history: small datasets spanning families/tasks, with their genuinely
/// best learners. Meta-features here are shape-only, so retrieval is much
/// coarser than KGpip's content embeddings — which is the point of the
/// paper's comparison.
const std::vector<Experience>& ExperienceDatabase() {
  static const std::vector<Experience>& kDb = *new std::vector<Experience>(
      [] {
        std::vector<Experience> db;
        const ConceptFamily families[] = {
            ConceptFamily::kLinear,  ConceptFamily::kRules,
            ConceptFamily::kInteractions, ConceptFamily::kSparse,
            ConceptFamily::kClusters, ConceptFamily::kNoise,
        };
        const TaskType tasks[] = {TaskType::kBinaryClassification,
                                  TaskType::kMultiClassification,
                                  TaskType::kRegression};
        int index = 0;
        for (TaskType task : tasks) {
          for (ConceptFamily family : families) {
            DatasetSpec spec;
            spec.name = "ask_experience";
            spec.family = family;
            spec.task = task;
            spec.rows = 160;
            spec.num_numeric = 6 + (index % 3) * 4;
            spec.num_categorical = index % 3;
            spec.num_classes =
                task == TaskType::kMultiClassification ? 4 : 2;
            spec.seed = 0x4A5 + static_cast<uint64_t>(index);
            Experience exp;
            exp.meta = ComputeMetaFeatures(GenerateDataset(spec));
            exp.learners = FamilyAffineLearners(family, task);
            db.push_back(std::move(exp));
            ++index;
          }
        }
        return db;
      }());
  return kDb;
}

/// The v2.0-style static portfolio: one robust default per learner, in
/// the order Auto-Sklearn would warm-start them.
std::vector<std::string> StaticPortfolio(TaskType task) {
  static const char* kOrder[] = {
      "lgbm",        "xgboost",       "random_forest",
      "gradient_boosting", "extra_trees", "logistic_regression",
      "ridge",       "linear_svm",    "sgd",
      "knn",         "gaussian_nb",   "decision_tree",
      "lasso",       "linear_regression",
  };
  std::vector<std::string> portfolio;
  for (const char* name : kOrder) {
    if (ml::LearnerSupports(name, task)) portfolio.push_back(name);
  }
  return portfolio;
}

}  // namespace

Result<AutoMlResult> AutoSklearnSystem::Fit(const Table& train,
                                            TaskType task,
                                            hpo::Budget budget,
                                            uint64_t seed) const {
  KGPIP_ASSIGN_OR_RETURN(
      hpo::TrialEvaluator evaluator,
      hpo::TrialEvaluator::Create(train, task, 0.25, seed));

  AutoMlResult result;
  // All trials run through the guard: NaN quarantine, bounded retries,
  // and a per-learner circuit breaker feeding the run report.
  hpo::TrialGuard guard(&evaluator);
  uint64_t trial_seed = seed * 131 + 17;

  auto run_trial = [&](const std::string& learner,
                       const ml::HyperParams& config) {
    ml::PipelineSpec spec;
    spec.learner = learner;
    spec.params = config;
    hpo::GuardedTrial trial = guard.Evaluate(spec, ++trial_seed, learner);
    double value = trial.ok() ? trial.score : -1e18;
    result.learner_sequence.push_back(learner);
    ++result.trials;
    if (trial.ok() && trial.score > result.validation_score) {
      result.validation_score = trial.score;
      result.best_spec = spec;
    }
    return value;
  };

  // ---- Meta-learning cold start: learners suggested by the 3 nearest
  // experience records. ----
  std::vector<double> meta = ComputeMetaFeatures(train);
  std::vector<std::pair<double, const Experience*>> neighbours;
  for (const Experience& exp : ExperienceDatabase()) {
    neighbours.emplace_back(MetaFeatureDistance(meta, exp.meta), &exp);
  }
  std::sort(neighbours.begin(), neighbours.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::string> suggested;
  for (size_t i = 0; i < neighbours.size() && i < 3; ++i) {
    for (const std::string& learner : neighbours[i].second->learners) {
      if (!ml::LearnerSupports(learner, task)) continue;
      if (std::find(suggested.begin(), suggested.end(), learner) ==
          suggested.end()) {
        suggested.push_back(learner);
      }
    }
  }

  // ---- Phase 1: portfolio defaults (meta-suggested first). ----
  std::vector<std::string> portfolio = suggested;
  for (const std::string& learner : StaticPortfolio(task)) {
    if (std::find(portfolio.begin(), portfolio.end(), learner) ==
        portfolio.end()) {
      portfolio.push_back(learner);
    }
  }
  std::map<std::string, double> learner_best;
  for (const std::string& learner : portfolio) {
    if (!budget.ConsumeTrial()) break;
    double value = run_trial(
        learner, hpo::SpaceForLearner(learner).DefaultConfig());
    learner_best[learner] = value;
  }

  // ---- Phase 2: random-search refinement, biased toward the best
  // learners seen so far. ----
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [learner, best] : learner_best) {
    ranked.emplace_back(best, learner);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::map<std::string, hpo::RandomSearch> searches;
  Rng pick_rng(seed ^ 0xA5C3);
  while (budget.ConsumeTrial()) {
    // Drop learners whose circuit breaker tripped before picking.
    ranked.erase(std::remove_if(ranked.begin(), ranked.end(),
                                [&](const auto& entry) {
                                  return guard.CircuitOpen(entry.second);
                                }),
                 ranked.end());
    if (ranked.empty()) break;
    // 60% best learner, 25% runner-up, 15% anything from the top five.
    size_t rank = 0;
    double u = pick_rng.Uniform();
    if (ranked.size() > 1 && u > 0.6) rank = 1;
    if (ranked.size() > 2 && u > 0.85) {
      rank = 2 + pick_rng.UniformInt(std::min<size_t>(3,
                                                      ranked.size() - 2));
    }
    rank = std::min(rank, ranked.size() - 1);
    const std::string& learner = ranked[rank].second;
    auto it = searches.find(learner);
    if (it == searches.end()) {
      it = searches
               .emplace(learner,
                        hpo::RandomSearch(hpo::SpaceForLearner(learner),
                                          seed ^ Fnv1a64(learner)))
               .first;
    }
    ml::HyperParams config = it->second.Propose();
    double value = run_trial(learner, config);
    it->second.Tell(config, value);
    // Keep the ranking current so refinement follows improvements.
    for (auto& [best, name] : ranked) {
      if (name == learner) best = std::max(best, value);
    }
    std::sort(ranked.rbegin(), ranked.rend());
  }

  result.report = guard.TakeReport();
  if (result.best_spec.learner.empty()) {
    return Status::Internal("Auto-Sklearn search produced no candidate");
  }
  KGPIP_RETURN_IF_ERROR(
      FinalizeResult(result.best_spec, train, task, seed, &result));
  return result;
}

}  // namespace kgpip::automl
