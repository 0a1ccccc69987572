#include <gtest/gtest.h>

#include "automl/flaml_system.h"
#include "core/kgpip.h"
#include "data/benchmark_registry.h"
#include "obs/stage_profile.h"
#include "util/thread_pool.h"

namespace kgpip::core {
namespace {

/// Trains a small KGpip once for the whole suite (generator training is
/// the expensive part).
class KgpipFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BenchmarkRegistry registry;
    auto specs = registry.TrainingSpecs();
    // A compact but family-diverse subset of the corpus datasets.
    std::vector<DatasetSpec> chosen;
    for (const auto& spec : specs) {
      if (spec.task == TaskType::kRegression) continue;
      chosen.push_back(spec);
      if (chosen.size() >= 16) break;
    }
    KgpipConfig config;
    config.top_k = 3;
    config.generator_epochs = 12;
    config.optimizer = "flaml";
    kgpip_ = new Kgpip(config);
    codegraph::CorpusOptions corpus;
    corpus.pipelines_per_dataset = 8;
    corpus.noise_scripts_per_dataset = 2;
    auto status = kgpip_->Train(chosen, corpus, 11);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  static void TearDownTestSuite() {
    delete kgpip_;
    kgpip_ = nullptr;
  }

  static Kgpip* kgpip_;
};

Kgpip* KgpipFixture::kgpip_ = nullptr;

TEST_F(KgpipFixture, TrainedStateAndStore) {
  ASSERT_TRUE(kgpip_->trained());
  EXPECT_GT(kgpip_->store().NumPipelines(), 50u);
  EXPECT_EQ(kgpip_->store().NumDatasets(), 16u);
}

TEST_F(KgpipFixture, NearestDatasetFindsPlausibleNeighbour) {
  DatasetSpec spec;
  spec.name = "unseen_linear";
  spec.family = ConceptFamily::kLinear;
  spec.domain = Domain::kFinance;
  spec.rows = 250;
  Table table = GenerateDataset(spec);
  auto nearest = kgpip_->NearestDataset(table);
  ASSERT_TRUE(nearest.ok()) << nearest.status().ToString();
  EXPECT_GT(nearest->similarity, 0.5);
}

TEST_F(KgpipFixture, PredictSkeletonsIsFastAndValid) {
  DatasetSpec spec;
  spec.name = "unseen_rules";
  spec.family = ConceptFamily::kRules;
  spec.domain = Domain::kGames;
  spec.rows = 250;
  Table table = GenerateDataset(spec);
  Stopwatch watch;
  auto skeletons = kgpip_->PredictSkeletons(
      table, TaskType::kBinaryClassification, 3);
  ASSERT_TRUE(skeletons.ok()) << skeletons.status().ToString();
  // Paper: learner prediction is "almost instantaneous".
  EXPECT_LT(watch.ElapsedSeconds(), 2.0);
  ASSERT_LE(skeletons->size(), 3u);
  ASSERT_GE(skeletons->size(), 1u);
  for (const auto& s : *skeletons) {
    EXPECT_FALSE(s.spec.learner.empty());
    EXPECT_TRUE(ml::LearnerSupports(s.spec.learner,
                                    TaskType::kBinaryClassification));
    EXPECT_LE(s.log_prob, 0.0);
  }
  // Ranked by score.
  for (size_t i = 1; i < skeletons->size(); ++i) {
    EXPECT_GE((*skeletons)[i - 1].log_prob, (*skeletons)[i].log_prob);
  }
}

TEST_F(KgpipFixture, SkeletonsAreDeduplicated) {
  DatasetSpec spec;
  spec.name = "unseen_dedup";
  spec.family = ConceptFamily::kClusters;
  spec.domain = Domain::kVision;
  spec.rows = 250;
  Table table = GenerateDataset(spec);
  auto skeletons = kgpip_->PredictSkeletons(
      table, TaskType::kBinaryClassification, 5);
  ASSERT_TRUE(skeletons.ok());
  std::set<std::string> keys;
  for (const auto& s : *skeletons) {
    EXPECT_TRUE(keys.insert(s.spec.ToString()).second)
        << "duplicate skeleton " << s.spec.ToString();
  }
}

TEST_F(KgpipFixture, FitSplitsBudgetAndBeatsChance) {
  DatasetSpec spec;
  spec.name = "unseen_fit";
  spec.family = ConceptFamily::kLinear;
  spec.domain = Domain::kWeb;
  spec.rows = 320;
  spec.label_noise = 0.05;
  Table table = GenerateDataset(spec);
  auto split = SplitTable(table, 0.25, 9);
  auto result = kgpip_->Fit(split.train, TaskType::kBinaryClassification,
                            hpo::Budget(24, 1e9), 7);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->trials, 24);
  EXPECT_GE(result->best_skeleton_rank, 1);
  EXPECT_LE(result->best_skeleton_rank,
            static_cast<int>(result->skeletons.size()));
  auto score = result->fitted.ScoreTable(split.test);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(*score, 0.7);
}

TEST_F(KgpipFixture, ArtifactsJsonRoundTrip) {
  Json artifacts = kgpip_->ToJson();
  KgpipConfig config = kgpip_->config();
  Kgpip reloaded(config);
  auto status = reloaded.LoadJson(artifacts);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(reloaded.trained());
  EXPECT_EQ(reloaded.store().NumPipelines(),
            kgpip_->store().NumPipelines());

  DatasetSpec spec;
  spec.name = "unseen_reload";
  spec.family = ConceptFamily::kRules;
  spec.rows = 200;
  Table table = GenerateDataset(spec);
  auto a = kgpip_->PredictSkeletons(table,
                                    TaskType::kBinaryClassification, 3);
  auto b = reloaded.PredictSkeletons(table,
                                     TaskType::kBinaryClassification, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].spec.ToString(), (*b)[i].spec.ToString());
  }
}

TEST_F(KgpipFixture, UntrainedKgpipRefusesToPredict) {
  Kgpip fresh;
  DatasetSpec spec;
  spec.name = "x";
  spec.rows = 50;
  Table table = GenerateDataset(spec);
  EXPECT_FALSE(
      fresh.PredictSkeletons(table, TaskType::kBinaryClassification, 1)
          .ok());
  EXPECT_FALSE(fresh.NearestDataset(table).ok());
}

TEST(KgpipLintGateTest, RejectedSkeletonsConsumeNoTrialBudget) {
  // Four candidates, three of them invalid: the linter must drop the bad
  // ones before the (T - t) / K rule sees them, so the survivor gets the
  // whole trial pool. Works untrained — the gate is in the search phase.
  Kgpip fresh;
  DatasetSpec spec;
  spec.name = "lint_gate";
  spec.family = ConceptFamily::kLinear;
  spec.rows = 200;
  Table table = GenerateDataset(spec);

  std::vector<gen::ScoredSkeleton> candidates(4);
  candidates[0].spec.learner = "ridge";  // regression-only: task-mismatch
  candidates[0].log_prob = -0.5;
  candidates[1].spec.learner = "decision_tree";  // duplicate transformer
  candidates[1].spec.preprocessors = {"standard_scaler", "standard_scaler"};
  candidates[1].log_prob = -0.7;
  candidates[2].spec.learner = "not_a_learner";  // unknown op
  candidates[2].log_prob = -0.9;
  candidates[3].spec.learner = "decision_tree";  // the only valid one
  candidates[3].log_prob = -1.0;

  auto result = fresh.FitWithSkeletons(std::move(candidates), table,
                                       TaskType::kBinaryClassification,
                                       hpo::Budget(8, 1e9), 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const hpo::RunReport& report = result->report;
  EXPECT_EQ(report.lint_rejected, 3);
  EXPECT_EQ(report.lint_rejected_by_code.size(), 3u);
  EXPECT_EQ(report.lint_rejected_by_code.at("lint.task-mismatch"), 1);
  EXPECT_EQ(report.lint_rejected_by_code.at("lint.duplicate-transformer"),
            1);
  EXPECT_EQ(report.lint_rejected_by_code.at("lint.unknown-op"), 1);
  EXPECT_NE(report.Summary().find("lint_rejected=3"), std::string::npos);

  // Only the survivor was searched: every trial belongs to it, and the
  // rejected candidates never appear in the result or the report.
  ASSERT_EQ(result->skeletons.size(), 1u);
  EXPECT_EQ(result->skeletons[0].learner, "decision_tree");
  EXPECT_EQ(result->best_spec.learner, "decision_tree");
  EXPECT_GT(result->trials, 0);
  EXPECT_LE(result->trials, 8);
  for (const std::string& learner : result->learner_sequence) {
    EXPECT_EQ(learner, "decision_tree");
  }
  for (const hpo::SkeletonReport& s : report.skeletons) {
    EXPECT_EQ(s.key.find("ridge"), std::string::npos);
    EXPECT_EQ(s.key.find("not_a_learner"), std::string::npos);
  }

  // Serialized report carries the counters for the bench harness.
  Json json = report.ToJson();
  EXPECT_EQ(json.Get("lint_rejected").AsInt(), 3);
}

TEST(KgpipLintGateTest, AllCandidatesRejectedFailsCleanly) {
  Kgpip fresh;
  DatasetSpec spec;
  spec.name = "lint_gate_empty";
  spec.rows = 120;
  Table table = GenerateDataset(spec);

  std::vector<gen::ScoredSkeleton> candidates(1);
  candidates[0].spec.learner = "not_a_learner";
  auto result = fresh.FitWithSkeletons(std::move(candidates), table,
                                       TaskType::kBinaryClassification,
                                       hpo::Budget(4, 1e9), 5);
  // The last-resort rung may still rescue the run; either way no trial
  // was spent on the rejected candidate.
  if (result.ok()) {
    EXPECT_EQ(result->report.lint_rejected, 1);
    EXPECT_TRUE(result->report.last_resort_pass);
  } else {
    EXPECT_FALSE(result.status().ok());
  }
}

TEST(KgpipDeterminismTest, TrainFitAndArtifactsAreIdenticalAcrossThreadCounts) {
  // The whole stack — corpus generation, mining, table embedding, index
  // build, batched generator training, HPO search — runs through the
  // thread pool. This is the end-to-end contract: the serialized
  // artifacts and the (timing-stripped) run report are byte-identical
  // whether the pool is inline or multi-threaded.
  BenchmarkRegistry registry;
  std::vector<DatasetSpec> chosen;
  for (const auto& spec : registry.TrainingSpecs()) {
    if (spec.task == TaskType::kRegression) continue;
    chosen.push_back(spec);
    if (chosen.size() >= 8) break;
  }
  DatasetSpec eval;
  eval.name = "determinism_eval";
  eval.family = ConceptFamily::kLinear;
  eval.domain = Domain::kWeb;
  eval.rows = 200;
  Table table = GenerateDataset(eval);

  auto run_once = [&]() -> std::string {
    KgpipConfig config;
    config.top_k = 2;
    config.generator_epochs = 4;
    config.candidate_samples = 8;
    Kgpip kgpip(config);
    codegraph::CorpusOptions corpus;
    corpus.pipelines_per_dataset = 6;
    corpus.noise_scripts_per_dataset = 2;
    Status status = kgpip.Train(chosen, corpus, 13);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok()) return "train-failed";
    auto result = kgpip.Fit(table, TaskType::kBinaryClassification,
                            hpo::Budget(8, 1e9), 5);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return "fit-failed";
    hpo::RunReport report = result->report;
    // Stage timings are wall-clock and legitimately vary run to run;
    // everything else must match exactly.
    report.stage_profile = obs::StageProfile();
    return kgpip.ToJson().Dump() + "\n===\n" + report.ToJson().Dump() +
           "\n===\n" + result->best_spec.ToString();
  };

  util::ThreadPool::Configure(1);
  const std::string baseline = run_once();
  for (int threads : {2, 4}) {
    util::ThreadPool::Configure(threads);
    EXPECT_EQ(run_once(), baseline) << "divergence at " << threads
                                    << " threads";
  }
  util::ThreadPool::Configure(0);
}

TEST_F(KgpipFixture, DiversityAcrossRunsWithSameDataset) {
  // §4.5.3: different runs over the same dataset yield different (but
  // correlated) pipeline lists.
  DatasetSpec spec;
  spec.name = "unseen_diverse";
  spec.family = ConceptFamily::kInteractions;
  spec.domain = Domain::kPhysics;
  spec.rows = 250;
  Table table = GenerateDataset(spec);
  std::set<std::string> first_learners;
  for (uint64_t run = 1; run <= 6; ++run) {
    auto skeletons = kgpip_->PredictSkeletons(
        table, TaskType::kBinaryClassification, run * 101);
    ASSERT_TRUE(skeletons.ok());
    first_learners.insert((*skeletons)[0].spec.learner);
  }
  // Not necessarily all distinct, but not a single deterministic output
  // across six runs either would be typical; we only require the call to
  // be stochastic *somewhere* in the list.
  std::set<std::string> all_specs;
  for (uint64_t run = 1; run <= 6; ++run) {
    auto skeletons = kgpip_->PredictSkeletons(
        table, TaskType::kBinaryClassification, run * 37);
    for (const auto& s : *skeletons) all_specs.insert(s.spec.ToString());
  }
  EXPECT_GT(all_specs.size(), 3u) << "no diversity across runs";
}

}  // namespace
}  // namespace kgpip::core
