// Failure-injection and edge-case coverage: empty/degenerate inputs,
// budget exhaustion, artifact corruption, schema drift.
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "core/kgpip.h"
#include "data/benchmark_registry.h"
#include "data/csv.h"
#include "data/type_inference.h"
#include "hpo/optimizer.h"
#include "ml/featurizer.h"
#include "ml/learner.h"

namespace kgpip {
namespace {

TEST(EdgeCaseTest, EmptyCsvAndHeaderOnly) {
  EXPECT_FALSE(ReadCsvText("", CsvOptions{}).ok());
  auto header_only = ReadCsvText("a,b,c\n", CsvOptions{});
  ASSERT_TRUE(header_only.ok());
  EXPECT_EQ(header_only->num_rows(), 0u);
  EXPECT_EQ(header_only->num_columns(), 3u);
}

TEST(EdgeCaseTest, HeaderlessCsvGetsSyntheticNames) {
  CsvOptions options;
  options.has_header = false;
  auto table = ReadCsvText("1,2\n3,4\n", options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->column(0).name(), "col_0");
  EXPECT_EQ(table->num_rows(), 2u);
}

TEST(EdgeCaseTest, AllMissingColumnSurvivesInference) {
  Table t("allmiss");
  ASSERT_TRUE(
      t.AddColumn(Column::Categorical("gone", {"", "", ""})).ok());
  ASSERT_TRUE(
      t.AddColumn(Column::Categorical("y", {"a", "b", "a"})).ok());
  t.set_target_name("y");
  ASSERT_TRUE(InferColumnTypes(&t).ok());
  ml::Featurizer featurizer;
  ASSERT_TRUE(featurizer.Fit(t, TaskType::kBinaryClassification).ok());
  auto data = featurizer.Transform(t);
  ASSERT_TRUE(data.ok());
  for (double v : data->x.values) EXPECT_FALSE(std::isnan(v));
}

TEST(EdgeCaseTest, SingleClassTargetRejected) {
  Table t("oneclass");
  ASSERT_TRUE(t.AddColumn(Column::Numeric("x", {1, 2, 3, 4})).ok());
  ASSERT_TRUE(t.AddColumn(
      Column::Categorical("y", {"a", "a", "a", "a"})).ok());
  t.set_target_name("y");
  ml::Featurizer featurizer;
  EXPECT_FALSE(featurizer.Fit(t, TaskType::kBinaryClassification).ok());
}

TEST(EdgeCaseTest, MissingTargetColumn) {
  Table t("notarget");
  ASSERT_TRUE(t.AddColumn(Column::Numeric("x", {1, 2, 3})).ok());
  EXPECT_FALSE(t.TargetColumn().ok());
  t.set_target_name("nope");
  EXPECT_FALSE(t.TargetColumn().ok());
}

TEST(EdgeCaseTest, LearnerOnEmptyData) {
  ml::LabeledData empty;
  empty.task = TaskType::kBinaryClassification;
  empty.num_classes = 2;
  auto learner = ml::CreateLearner(
      "xgboost", TaskType::kBinaryClassification, {}, 1);
  ASSERT_TRUE(learner.ok());
  EXPECT_FALSE((*learner)->Fit(empty).ok());
}

TEST(EdgeCaseTest, BudgetZeroTrialsYieldsNoCandidates) {
  DatasetSpec spec;
  spec.name = "zero_budget";
  spec.rows = 120;
  Table table = GenerateDataset(spec);
  auto evaluator = hpo::TrialEvaluator::Create(
      table, TaskType::kBinaryClassification, 0.25, 1);
  ASSERT_TRUE(evaluator.ok());
  ml::PipelineSpec skeleton;
  skeleton.learner = "decision_tree";
  auto optimizer = hpo::CreateOptimizer("flaml");
  hpo::Budget budget(0, 1e9);
  hpo::TrialGuard guard(&*evaluator);
  auto result =
      (*optimizer)->OptimizeSkeleton(skeleton, &guard, &budget, 1);
  EXPECT_EQ(result.trials, 0);
}

TEST(EdgeCaseTest, DeadlineExpiryStopsOptimization) {
  DatasetSpec spec;
  spec.name = "deadline";
  spec.rows = 150;
  Table table = GenerateDataset(spec);
  auto evaluator = hpo::TrialEvaluator::Create(
      table, TaskType::kBinaryClassification, 0.25, 1);
  ASSERT_TRUE(evaluator.ok());
  ml::PipelineSpec skeleton;
  skeleton.learner = "xgboost";
  auto optimizer = hpo::CreateOptimizer("flaml");
  // Already-expired wall clock: at most the first consume may slip in.
  hpo::Budget budget(1000, 1e-9);
  hpo::TrialGuard guard(&*evaluator);
  auto result =
      (*optimizer)->OptimizeSkeleton(skeleton, &guard, &budget, 1);
  EXPECT_LE(result.trials, 1);
}

TEST(EdgeCaseTest, KgpipArtifactFileRoundTripAndCorruption) {
  BenchmarkRegistry registry;
  auto specs = registry.TrainingSpecs();
  specs.resize(6);
  core::KgpipConfig config;
  config.generator_epochs = 4;
  core::Kgpip kgpip(config);
  codegraph::CorpusOptions corpus;
  corpus.pipelines_per_dataset = 4;
  corpus.noise_scripts_per_dataset = 1;
  ASSERT_TRUE(kgpip.Train(specs, corpus, 3).ok());

  const std::string path = "/tmp/kgpip_artifacts_test.json";
  ASSERT_TRUE(kgpip.SaveFile(path).ok());
  core::Kgpip reloaded(config);
  ASSERT_TRUE(reloaded.LoadFile(path).ok());
  EXPECT_TRUE(reloaded.trained());
  EXPECT_EQ(reloaded.store().NumPipelines(), kgpip.store().NumPipelines());

  // Corrupted artifact file fails cleanly.
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"store\": 42";
  }
  core::Kgpip broken(config);
  EXPECT_FALSE(broken.LoadFile(path).ok());
  EXPECT_FALSE(broken.trained());
  // Missing file fails cleanly.
  core::Kgpip missing(config);
  EXPECT_FALSE(missing.LoadFile("/tmp/definitely_not_here.json").ok());
  // Untrained save fails cleanly.
  core::Kgpip fresh(config);
  EXPECT_FALSE(fresh.SaveFile(path).ok());
  std::remove(path.c_str());
}

TEST(EdgeCaseTest, FeaturizerHandlesSchemaDrift) {
  // A test table missing one training column and having one extra column:
  // the missing column encodes as zeros/impute, the extra is ignored.
  DatasetSpec spec;
  spec.name = "drift";
  spec.rows = 60;
  spec.num_numeric = 3;
  Table train = GenerateDataset(spec);
  ml::Featurizer featurizer;
  ASSERT_TRUE(featurizer.Fit(train, spec.task).ok());

  Table drifted(train.name());
  drifted.set_target_name(train.target_name());
  for (size_t c = 1; c < train.num_columns(); ++c) {  // drop column 0
    ASSERT_TRUE(drifted.AddColumn(train.column(c)).ok());
  }
  std::vector<double> extra(train.num_rows(), 1.0);
  ASSERT_TRUE(drifted.AddColumn(Column::Numeric("surprise", extra)).ok());
  auto encoded = featurizer.TransformFeatures(drifted);
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded->cols, featurizer.output_dims());
}

TEST(EdgeCaseTest, TinyDatasetsStillFit) {
  // 12 rows, 2 features: every learner must either fit or fail cleanly.
  DatasetSpec spec;
  spec.name = "tiny";
  spec.rows = 12;
  spec.num_numeric = 2;
  spec.num_categorical = 0;
  spec.missing_fraction = 0.0;
  Table table = GenerateDataset(spec);
  ml::Featurizer featurizer;
  ASSERT_TRUE(featurizer.Fit(table, spec.task).ok());
  auto data = featurizer.Transform(table);
  ASSERT_TRUE(data.ok());
  for (const auto& info : ml::LearnerRegistry()) {
    if (!info.supports_classification) continue;
    auto learner = ml::CreateLearner(
        info.name, TaskType::kBinaryClassification, {}, 1);
    ASSERT_TRUE(learner.ok());
    Status fitted = (*learner)->Fit(*data);
    if (!fitted.ok()) continue;  // clean failure is acceptable
    auto pred = (*learner)->Predict(data->x);
    EXPECT_EQ(pred.size(), data->rows()) << info.name;
  }
}

}  // namespace
}  // namespace kgpip
