#include <gtest/gtest.h>

#include "automl/al_system.h"
#include "automl/autosklearn_system.h"
#include "automl/flaml_system.h"
#include "automl/meta_features.h"
#include "data/benchmark_registry.h"
#include "hpo/optimizer.h"
#include "hpo/search_space.h"

namespace kgpip {
namespace {

Table MakeEvalTable(ConceptFamily family, TaskType task, uint64_t seed) {
  DatasetSpec spec;
  spec.name = "automl_fixture";
  spec.family = family;
  spec.task = task;
  spec.rows = 320;
  spec.num_numeric = 8;
  spec.num_categorical = 2;
  spec.num_classes = 2;
  spec.seed = seed;
  return GenerateDataset(spec);
}

TEST(SearchSpaceTest, DefaultSampleAndPerturbStayInBounds) {
  hpo::SearchSpace space = hpo::SpaceForLearner("xgboost");
  ASSERT_FALSE(space.empty());
  Rng rng(1);
  ml::HyperParams config = space.DefaultConfig();
  for (int i = 0; i < 200; ++i) {
    config = i % 2 == 0 ? space.Sample(&rng)
                        : space.Perturb(config, 0.3, &rng);
    for (const hpo::ParamSpec& spec : space.params()) {
      if (spec.kind == hpo::ParamSpec::Kind::kChoice) continue;
      double v = config.GetNum(spec.name, spec.default_value);
      EXPECT_GE(v, spec.lo - 1e-9) << spec.name;
      EXPECT_LE(v, spec.hi + 1e-9) << spec.name;
      if (spec.kind == hpo::ParamSpec::Kind::kInt) {
        EXPECT_DOUBLE_EQ(v, std::round(v)) << spec.name;
      }
    }
  }
}

TEST(SearchSpaceTest, JsonRoundTrip) {
  hpo::SearchSpace space =
      hpo::SpaceForSkeleton("logistic_regression", {"select_k_best"});
  auto reloaded = hpo::SearchSpace::FromJson(space.ToJson());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->params().size(), space.params().size());
  // k from select_k_best must be present.
  bool has_k = false;
  for (const auto& p : reloaded->params()) has_k |= p.name == "k";
  EXPECT_TRUE(has_k);
  EXPECT_FALSE(hpo::SearchSpace::FromJson(Json("nope")).ok());
}

TEST(SearchSpaceTest, IntegrationDocumentListsAllLearners) {
  Json doc = hpo::IntegrationDocument();
  const Json& estimators = doc.Get("estimators");
  EXPECT_TRUE(estimators.Has("xgboost"));
  EXPECT_TRUE(estimators.Has("logistic_regression"));
  EXPECT_TRUE(estimators.Get("xgboost").Get("classification").AsBool());
  EXPECT_GT(doc.Get("preprocessors").size(), 3u);
}

TEST(BudgetTest, TrialAccountingAndSplit) {
  hpo::Budget budget(10, 1e9);
  EXPECT_EQ(budget.remaining_trials(), 10);
  EXPECT_TRUE(budget.ConsumeTrial());
  EXPECT_EQ(budget.used_trials(), 1);
  hpo::Budget slice = budget.SplitRemaining(3);
  EXPECT_EQ(slice.max_trials(), 3);
  for (int i = 0; i < 9; ++i) budget.ConsumeTrial();
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_FALSE(budget.ConsumeTrial());
}

TEST(OptimizerTest, CfoImprovesOverDefault) {
  Table table = MakeEvalTable(ConceptFamily::kRules,
                              TaskType::kBinaryClassification, 21);
  auto evaluator = hpo::TrialEvaluator::Create(
      table, TaskType::kBinaryClassification, 0.25, 3);
  ASSERT_TRUE(evaluator.ok());
  ml::PipelineSpec skeleton;
  skeleton.learner = "decision_tree";
  auto optimizer = hpo::CreateOptimizer("flaml");
  ASSERT_TRUE(optimizer.ok());
  hpo::Budget budget(20, 1e9);
  hpo::TrialGuard guard(&*evaluator);
  hpo::OptimizeResult result = (*optimizer)->OptimizeSkeleton(
      skeleton, &guard, &budget, 5);
  EXPECT_EQ(result.trials, 20);
  EXPECT_GT(result.best_score, 0.6);
  // The default config is trial 1, run at seed 5 + 1; the best must be at
  // least as good.
  ml::PipelineSpec first = skeleton;
  first.params = hpo::SpaceForLearner("decision_tree").DefaultConfig();
  auto default_score = evaluator->Evaluate(first, 6);
  ASSERT_TRUE(default_score.ok());
  EXPECT_GE(result.best_score, *default_score);
}

TEST(OptimizerTest, UnknownOptimizerRejected) {
  EXPECT_FALSE(hpo::CreateOptimizer("tpot").ok());
}

TEST(MetaFeaturesTest, CapturesShape) {
  Table a = MakeEvalTable(ConceptFamily::kLinear,
                          TaskType::kBinaryClassification, 3);
  auto meta = automl::ComputeMetaFeatures(a);
  ASSERT_EQ(meta.size(), 10u);
  EXPECT_GT(meta[0], 0.0);
  // Self-distance zero, and different shapes differ.
  EXPECT_DOUBLE_EQ(automl::MetaFeatureDistance(meta, meta), 0.0);
  DatasetSpec spec;
  spec.name = "wide";
  spec.rows = 100;
  spec.num_numeric = 16;
  spec.num_text = 1;
  auto other = automl::ComputeMetaFeatures(GenerateDataset(spec));
  EXPECT_GT(automl::MetaFeatureDistance(meta, other), 0.05);
}

class BaselineSystemTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineSystemTest, FitsRulesDatasetAboveChance) {
  std::unique_ptr<automl::AutoMlSystem> system;
  std::string which = GetParam();
  if (which == "flaml") system = std::make_unique<automl::FlamlSystem>();
  else system = std::make_unique<automl::AutoSklearnSystem>();

  Table table = MakeEvalTable(ConceptFamily::kRules,
                              TaskType::kBinaryClassification, 33);
  auto split = SplitTable(table, 0.25, 5);
  auto result = system->Fit(split.train, TaskType::kBinaryClassification,
                            hpo::Budget(25, 1e9), 7);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->trials, 0);
  EXPECT_FALSE(result->learner_sequence.empty());
  auto test_score = result->fitted.ScoreTable(split.test);
  ASSERT_TRUE(test_score.ok());
  EXPECT_GT(*test_score, 0.6) << which;
}

INSTANTIATE_TEST_SUITE_P(Baselines, BaselineSystemTest,
                         ::testing::Values("flaml", "autosklearn"));

TEST(AlSystemTest, TransfersOnSimpleDataFailsOnText) {
  automl::AlSystem al;
  Table simple = MakeEvalTable(ConceptFamily::kLinear,
                               TaskType::kBinaryClassification, 9);
  auto ok_result = al.Fit(simple, TaskType::kBinaryClassification,
                          hpo::Budget(20, 1e9), 3);
  ASSERT_TRUE(ok_result.ok()) << ok_result.status().ToString();
  EXPECT_LE(ok_result->trials, 5);  // AL barely tunes

  // Text dataset: AL's transferred pipelines cannot vectorize text.
  DatasetSpec text_spec;
  text_spec.name = "al_text";
  text_spec.family = ConceptFamily::kText;
  text_spec.num_text = 1;
  text_spec.rows = 200;
  Table text_table = GenerateDataset(text_spec);
  EXPECT_FALSE(al.Fit(text_table, TaskType::kBinaryClassification,
                      hpo::Budget(20, 1e9), 3)
                   .ok());

  // Many-class dataset outside the analyzed notebooks.
  DatasetSpec many;
  many.name = "al_many";
  many.task = TaskType::kMultiClassification;
  many.num_classes = 10;
  many.rows = 420;
  Table many_table = GenerateDataset(many);
  EXPECT_FALSE(al.Fit(many_table, TaskType::kMultiClassification,
                      hpo::Budget(20, 1e9), 3)
                   .ok());
}

}  // namespace
}  // namespace kgpip
