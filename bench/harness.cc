#include "bench/harness.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/file_io.h"
#include "util/stats.h"

namespace kgpip::bench {

HarnessOptions ParseOptions(int argc, char** argv) {
  HarnessOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--quick") == 0) {
      options.quick = true;
      options.runs = 1;
      options.trials = 14;
      options.half_trials = 8;
      options.generator_epochs = 8;
      options.corpus_pipelines_per_dataset = 6;
      options.corpus_noise_per_dataset = 2;
    } else if (std::strncmp(arg, "--runs=", 7) == 0) {
      options.runs = std::atoi(arg + 7);
    } else if (std::strncmp(arg, "--trials=", 9) == 0) {
      options.trials = std::atoi(arg + 9);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      options.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--json-out=", 11) == 0) {
      options.json_out = arg + 11;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      options.metrics_out = arg + 14;
    }
  }
  return options;
}

EvalHarness::EvalHarness(HarnessOptions options) : options_(options) {}

Status EvalHarness::TrainKgpip() {
  core::KgpipConfig config;
  config.top_k = 3;
  config.generator_epochs = options_.generator_epochs;
  config.optimizer = "flaml";
  kgpip_flaml_ = std::make_unique<core::Kgpip>(config);

  codegraph::CorpusOptions corpus;
  corpus.pipelines_per_dataset = options_.corpus_pipelines_per_dataset;
  corpus.noise_scripts_per_dataset = options_.corpus_noise_per_dataset;
  corpus.seed = options_.seed;
  KGPIP_RETURN_IF_ERROR(
      kgpip_flaml_->Train(registry_.TrainingSpecs(), corpus,
                          options_.seed));

  // The Auto-Sklearn variant shares every trained artifact; only the host
  // optimizer differs (the paper's point: integration is pluggable).
  config.optimizer = "autosklearn";
  kgpip_ask_ = std::make_unique<core::Kgpip>(config);
  KGPIP_RETURN_IF_ERROR(kgpip_ask_->LoadJson(kgpip_flaml_->ToJson()));
  return Status::Ok();
}

double EvalHarness::EvaluateOnce(const automl::AutoMlSystem& system,
                                 const DatasetSpec& spec, int run_index,
                                 int trials,
                                 automl::AutoMlResult* result_out) {
  DatasetSpec run_spec = spec;
  Table table = GenerateDataset(run_spec);
  auto split = SplitTable(table, 0.25,
                          options_.seed + static_cast<uint64_t>(run_index));
  auto result =
      system.Fit(split.train, spec.task, hpo::Budget(trials, 1e9),
                 options_.seed * 7919 + static_cast<uint64_t>(run_index));
  if (!result.ok()) return std::nan("");
  auto score = result->fitted.ScoreTable(split.test);
  if (!score.ok()) return std::nan("");
  if (result_out != nullptr) *result_out = std::move(*result);
  return std::max(0.0, *score);  // the paper reports floor-0 metrics
}

std::vector<SystemScores> EvalHarness::RunComparison(
    const std::vector<DatasetSpec>& specs,
    const std::vector<const automl::AutoMlSystem*>& systems, int trials) {
  std::vector<SystemScores> out;
  for (const automl::AutoMlSystem* system : systems) {
    SystemScores scores;
    scores.system = system->name();
    for (const DatasetSpec& spec : specs) {
      for (int run = 0; run < options_.runs; ++run) {
        automl::AutoMlResult result;
        double score = EvaluateOnce(*system, spec, run, trials, &result);
        scores.scores[spec.name].push_back(score);
        if (!std::isnan(score)) {
          const hpo::RunReport& report = result.report;
          scores.trial_failures += report.total_failures;
          scores.trial_retries += report.total_retries;
          scores.quarantined_scores += report.quarantined_scores;
          scores.circuit_breaker_trips += report.circuit_breaker_trips;
          if (report.fallback_portfolio || report.last_resort_pass) {
            ++scores.degraded_runs;
          }
          scores.skeleton_ranks[spec.name].push_back(
              result.best_skeleton_rank);
          scores.learner_sequences[spec.name].push_back(
              result.learner_sequence);
          std::vector<std::string> predicted;
          for (const auto& skeleton : result.skeletons) {
            predicted.push_back(skeleton.learner);
          }
          scores.predicted_learners[spec.name].push_back(
              std::move(predicted));
          scores.best_learners[spec.name].push_back(
              result.best_spec.learner);
        }
      }
      std::fprintf(stderr, "  [%s] %s done\n", scores.system.c_str(),
                   spec.name.c_str());
    }
    if (scores.trial_failures > 0 || scores.degraded_runs > 0) {
      std::fprintf(stderr,
                   "  [%s] robustness: %d trial failures, %d retries, "
                   "%d NaN quarantined, %d circuit trips, %d degraded "
                   "runs\n",
                   scores.system.c_str(), scores.trial_failures,
                   scores.trial_retries, scores.quarantined_scores,
                   scores.circuit_breaker_trips, scores.degraded_runs);
    }
    out.push_back(std::move(scores));
  }
  return out;
}

double MeanScore(const std::vector<double>& scores) {
  double sum = 0.0;
  size_t n = 0;
  for (double s : scores) {
    if (std::isnan(s)) continue;
    sum += s;
    ++n;
  }
  return n == 0 ? std::nan("") : sum / static_cast<double>(n);
}

std::vector<double> PerDatasetMeans(const SystemScores& scores,
                                    const std::vector<DatasetSpec>& specs) {
  std::vector<double> out;
  for (const DatasetSpec& spec : specs) {
    auto it = scores.scores.find(spec.name);
    double mean =
        it == scores.scores.end() ? std::nan("") : MeanScore(it->second);
    out.push_back(std::isnan(mean) ? 0.0 : mean);
  }
  return out;
}

TaskAggregate AggregateByTask(const SystemScores& scores,
                              const std::vector<DatasetSpec>& specs) {
  std::vector<double> binary, multi, regression;
  for (const DatasetSpec& spec : specs) {
    auto it = scores.scores.find(spec.name);
    if (it == scores.scores.end()) continue;
    double mean = MeanScore(it->second);
    if (std::isnan(mean)) mean = 0.0;
    switch (spec.task) {
      case TaskType::kBinaryClassification:
        binary.push_back(mean);
        break;
      case TaskType::kMultiClassification:
        multi.push_back(mean);
        break;
      case TaskType::kRegression:
        regression.push_back(mean);
        break;
    }
  }
  TaskAggregate out;
  out.binary_mean = Mean(binary);
  out.binary_std = StdDev(binary);
  out.multi_mean = Mean(multi);
  out.multi_std = StdDev(multi);
  out.regression_mean = Mean(regression);
  out.regression_std = StdDev(regression);
  return out;
}

void PrintRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

Json ComparisonToJson(const std::vector<DatasetSpec>& specs,
                      const std::vector<SystemScores>& all,
                      const HarnessOptions& options) {
  Json out = Json::Object();
  Json opts = Json::Object();
  opts.Set("runs", options.runs);
  opts.Set("trials", options.trials);
  opts.Set("seed", static_cast<int64_t>(options.seed));
  opts.Set("quick", options.quick);
  out.Set("options", std::move(opts));

  Json systems = Json::Array();
  for (const SystemScores& scores : all) {
    Json entry = Json::Object();
    entry.Set("system", scores.system);

    TaskAggregate agg = AggregateByTask(scores, specs);
    Json aggregates = Json::Object();
    auto task_row = [](double mean, double std_dev) {
      Json row = Json::Object();
      row.Set("mean", mean);
      row.Set("std", std_dev);
      return row;
    };
    aggregates.Set("binary", task_row(agg.binary_mean, agg.binary_std));
    aggregates.Set("multi_class", task_row(agg.multi_mean, agg.multi_std));
    aggregates.Set("regression",
                   task_row(agg.regression_mean, agg.regression_std));
    entry.Set("aggregates", std::move(aggregates));

    Json datasets = Json::Object();
    for (const DatasetSpec& spec : specs) {
      auto it = scores.scores.find(spec.name);
      if (it == scores.scores.end()) continue;
      Json d = Json::Object();
      double mean = MeanScore(it->second);
      // NaN (every run failed) is not representable in strict JSON.
      d.Set("mean", std::isnan(mean) ? Json() : Json(mean));
      Json runs = Json::Array();
      for (double s : it->second) {
        runs.Append(std::isnan(s) ? Json() : Json(s));
      }
      d.Set("scores", std::move(runs));
      d.Set("task", TaskTypeName(spec.task));
      datasets.Set(spec.name, std::move(d));
    }
    entry.Set("datasets", std::move(datasets));

    Json robustness = Json::Object();
    robustness.Set("trial_failures", scores.trial_failures);
    robustness.Set("trial_retries", scores.trial_retries);
    robustness.Set("quarantined_scores", scores.quarantined_scores);
    robustness.Set("circuit_breaker_trips", scores.circuit_breaker_trips);
    robustness.Set("degraded_runs", scores.degraded_runs);
    entry.Set("robustness", std::move(robustness));
    systems.Append(std::move(entry));
  }
  out.Set("systems", std::move(systems));
  return out;
}

void WriteHarnessOutputs(const HarnessOptions& options,
                         const Json* comparison) {
  if (!options.json_out.empty() && comparison != nullptr) {
    Status written =
        util::WriteFileAtomic(options.json_out, comparison->Dump(2) + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "WARNING: could not write --json-out=%s: %s\n",
                   options.json_out.c_str(), written.ToString().c_str());
    } else {
      std::fprintf(stderr, "wrote %s\n", options.json_out.c_str());
    }
  }
  if (!options.metrics_out.empty()) {
    Status written =
        obs::MetricsRegistry::Global().WriteJsonFile(options.metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "WARNING: %s\n", written.ToString().c_str());
    } else {
      std::fprintf(stderr, "wrote %s\n", options.metrics_out.c_str());
    }
  }
}

}  // namespace kgpip::bench
