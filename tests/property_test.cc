// Property-based tests: invariants that must hold across randomized
// sweeps of seeds / shapes, exercised with parameterized gtest.
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/synthetic.h"
#include "data/type_inference.h"
#include "embed/embedder.h"
#include "gen/graph_generator.h"
#include "graph4ml/vocab.h"
#include "hpo/search_space.h"
#include "ml/featurizer.h"
#include "ml/learner.h"
#include "ml/metrics.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace kgpip {
namespace {

// ---------------------------------------------------------------------
// CSV: write -> parse -> infer must reproduce the original table for any
// synthetic dataset shape.
class CsvRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvRoundTripProperty, WriteParseInferPreservesContent) {
  Rng rng(GetParam());
  DatasetSpec spec;
  spec.name = "csv_prop";
  spec.seed = GetParam();
  spec.rows = 40 + static_cast<int>(rng.UniformInt(120));
  spec.num_numeric = 1 + static_cast<int>(rng.UniformInt(6));
  spec.num_categorical = static_cast<int>(rng.UniformInt(4));
  spec.num_text = static_cast<int>(rng.UniformInt(2));
  spec.family = static_cast<ConceptFamily>(rng.UniformInt(7));
  spec.missing_fraction = 0.05;
  Table original = GenerateDataset(spec);

  auto parsed = ReadCsvText(WriteCsvText(original), CsvOptions{});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  parsed->set_target_name(original.target_name());
  ASSERT_TRUE(InferColumnTypes(&*parsed).ok());

  ASSERT_EQ(parsed->num_rows(), original.num_rows());
  ASSERT_EQ(parsed->num_columns(), original.num_columns());
  for (size_t c = 0; c < original.num_columns(); ++c) {
    const Column& before = original.column(c);
    const Column& after = *&parsed->column(c);
    EXPECT_EQ(after.name(), before.name());
    for (size_t r = 0; r < original.num_rows(); ++r) {
      EXPECT_EQ(after.IsMissing(r), before.IsMissing(r))
          << before.name() << " row " << r;
      if (before.IsMissing(r)) continue;
      if (before.type() == ColumnType::kNumeric) {
        ASSERT_EQ(after.type(), ColumnType::kNumeric) << before.name();
        EXPECT_NEAR(after.NumericAt(r), before.NumericAt(r),
                    1e-6 * std::max(1.0, std::fabs(before.NumericAt(r))));
      } else {
        EXPECT_EQ(after.StringAt(r), before.StringAt(r));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvRoundTripProperty,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Metrics invariants.
class MetricsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetricsProperty, BoundsAndPerfectScores) {
  Rng rng(GetParam());
  const int n = 120;
  const int classes = 2 + static_cast<int>(rng.UniformInt(5));
  std::vector<double> truth(n), pred(n);
  for (int i = 0; i < n; ++i) {
    truth[i] = static_cast<double>(rng.UniformInt(classes));
    pred[i] = static_cast<double>(rng.UniformInt(classes));
  }
  double f1 = ml::MacroF1(truth, pred, classes);
  EXPECT_GE(f1, 0.0);
  EXPECT_LE(f1, 1.0);
  EXPECT_DOUBLE_EQ(ml::MacroF1(truth, truth, classes), 1.0);

  std::vector<double> y(n), y_hat(n);
  for (int i = 0; i < n; ++i) {
    y[i] = rng.Normal() * 3.0;
    y_hat[i] = y[i] + rng.Normal();
  }
  double r2 = ml::R2Score(y, y_hat);
  EXPECT_LE(r2, 1.0);
  EXPECT_DOUBLE_EQ(ml::R2Score(y, y), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricsProperty,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Learners: determinism under a fixed seed, predictions in label range.
struct LearnerProperty {
  const char* name;
  TaskType task;
};

class LearnerInvariantProperty
    : public ::testing::TestWithParam<LearnerProperty> {};

TEST_P(LearnerInvariantProperty, DeterministicAndInRange) {
  const LearnerProperty& param = GetParam();
  DatasetSpec spec;
  spec.name = "learner_prop";
  spec.rows = 150;
  spec.task = param.task;
  spec.num_classes = 3;
  spec.family = ConceptFamily::kRules;
  spec.task = param.task;
  Table table = GenerateDataset(spec);
  ml::Featurizer featurizer;
  ASSERT_TRUE(featurizer.Fit(table, param.task).ok());
  auto data = featurizer.Transform(table);
  ASSERT_TRUE(data.ok());

  auto fit_predict = [&](uint64_t seed) {
    auto learner =
        ml::CreateLearner(param.name, param.task, ml::HyperParams{}, seed);
    KGPIP_CHECK(learner.ok());
    KGPIP_CHECK((*learner)->Fit(*data).ok());
    return (*learner)->Predict(data->x);
  };
  std::vector<double> a = fit_predict(42);
  std::vector<double> b = fit_predict(42);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]) << param.name << " not deterministic";
  }
  if (IsClassification(param.task)) {
    for (double v : a) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, data->num_classes);
      EXPECT_DOUBLE_EQ(v, std::round(v));
    }
  } else {
    double lo = *std::min_element(data->y.begin(), data->y.end());
    double hi = *std::max_element(data->y.begin(), data->y.end());
    double span = hi - lo;
    for (double v : a) {
      EXPECT_GE(v, lo - span);
      EXPECT_LE(v, hi + span);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLearners, LearnerInvariantProperty,
    ::testing::Values(
        LearnerProperty{"logistic_regression",
                        TaskType::kMultiClassification},
        LearnerProperty{"linear_svm", TaskType::kMultiClassification},
        LearnerProperty{"gaussian_nb", TaskType::kMultiClassification},
        LearnerProperty{"knn", TaskType::kMultiClassification},
        LearnerProperty{"decision_tree", TaskType::kMultiClassification},
        LearnerProperty{"random_forest", TaskType::kMultiClassification},
        LearnerProperty{"extra_trees", TaskType::kMultiClassification},
        LearnerProperty{"xgboost", TaskType::kMultiClassification},
        LearnerProperty{"lgbm", TaskType::kRegression},
        LearnerProperty{"ridge", TaskType::kRegression},
        LearnerProperty{"lasso", TaskType::kRegression},
        LearnerProperty{"knn", TaskType::kRegression}),
    [](const ::testing::TestParamInfo<LearnerProperty>& info) {
      return std::string(info.param.name) + "_" +
             (info.param.task == TaskType::kRegression ? "reg" : "cls");
    });

// ---------------------------------------------------------------------
// Search-space sampling invariants over every registered learner.
class SearchSpaceProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchSpaceProperty, AllLearnersSampleWithinBounds) {
  Rng rng(GetParam());
  for (const ml::LearnerInfo& info : ml::LearnerRegistry()) {
    hpo::SearchSpace space = hpo::SpaceForLearner(info.name);
    ml::HyperParams config = space.DefaultConfig();
    for (int step = 0; step < 40; ++step) {
      config = step % 3 == 0 ? space.Sample(&rng)
                             : space.Perturb(config, 0.4, &rng);
      for (const hpo::ParamSpec& spec : space.params()) {
        if (spec.kind == hpo::ParamSpec::Kind::kChoice) {
          std::string choice = config.GetStr(spec.name, "");
          EXPECT_NE(std::find(spec.choices.begin(), spec.choices.end(),
                              choice),
                    spec.choices.end())
              << info.name << "." << spec.name;
        } else {
          double v = config.GetNum(spec.name, spec.default_value);
          EXPECT_GE(v, spec.lo - 1e-9) << info.name << "." << spec.name;
          EXPECT_LE(v, spec.hi + 1e-9) << info.name << "." << spec.name;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchSpaceProperty,
                         ::testing::Range<uint64_t>(1, 5));

// ---------------------------------------------------------------------
// JSON: randomized documents round-trip through Dump/Parse.
Json RandomJson(Rng* rng, int depth) {
  double u = rng->Uniform();
  if (depth <= 0 || u < 0.35) {
    switch (rng->UniformInt(4)) {
      case 0:
        return Json(rng->Normal() * 100.0);
      case 1:
        return Json(static_cast<int64_t>(rng->UniformInt(100000)));
      case 2:
        return Json(rng->Bernoulli(0.5));
      default: {
        std::string s;
        size_t len = rng->UniformInt(12);
        for (size_t i = 0; i < len; ++i) {
          s += static_cast<char>('a' + rng->UniformInt(26));
        }
        if (rng->Bernoulli(0.2)) s += "\"\\\n\t";
        return Json(std::move(s));
      }
    }
  }
  if (u < 0.7) {
    Json arr = Json::Array();
    size_t n = rng->UniformInt(5);
    for (size_t i = 0; i < n; ++i) {
      arr.Append(RandomJson(rng, depth - 1));
    }
    return arr;
  }
  Json obj = Json::Object();
  size_t n = rng->UniformInt(5);
  for (size_t i = 0; i < n; ++i) {
    obj.Set("key_" + std::to_string(i), RandomJson(rng, depth - 1));
  }
  return obj;
}

class JsonRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JsonRoundTripProperty, DumpParseDumpIsStable) {
  Rng rng(GetParam());
  Json doc = RandomJson(&rng, 4);
  std::string once = doc.Dump();
  auto parsed = Json::Parse(once);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << once;
  EXPECT_EQ(parsed->Dump(), once);
  // Pretty-printed form parses back to the same canonical dump.
  auto pretty = Json::Parse(doc.Dump(2));
  ASSERT_TRUE(pretty.ok());
  EXPECT_EQ(pretty->Dump(), once);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripProperty,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------
// Embeddings: unit norm and determinism for every family x domain.
class EmbeddingProperty : public ::testing::TestWithParam<int> {};

TEST_P(EmbeddingProperty, UnitNormDeterministicPerFamilyDomain) {
  int index = GetParam();
  DatasetSpec spec;
  spec.name = "embed_prop";
  spec.family = static_cast<ConceptFamily>(index % 7);
  spec.domain = static_cast<Domain>(index % 10);
  spec.rows = 120;
  spec.num_text = spec.family == ConceptFamily::kText ? 1 : 0;
  Table table = GenerateDataset(spec);
  embed::TableEmbedder embedder;
  auto a = embedder.Embed(table);
  auto b = embedder.Embed(table);
  ASSERT_EQ(a.size(), embed::TableEmbedder::kDims);
  double norm = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
    norm += a[i] * a[i];
    EXPECT_TRUE(std::isfinite(a[i]));
  }
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(FamilyDomainGrid, EmbeddingProperty,
                         ::testing::Range(0, 14));

// ---------------------------------------------------------------------
// Generator: sampled graphs always start with the seed, respect the node
// cap, and carry non-positive log-probabilities.
class GeneratorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorProperty, SampleInvariants) {
  gen::GeneratorConfig config;
  config.vocab_size = graph4ml::PipelineVocab::Get().size();
  config.hidden = 16;
  config.max_nodes = 9;
  gen::GraphGenerator generator(config, GetParam());
  graph4ml::TypedGraph seed;
  seed.node_types = {graph4ml::PipelineVocab::kDatasetType,
                     graph4ml::PipelineVocab::kReadCsvType};
  seed.edges = {{0, 1}};
  Rng rng(GetParam() * 17 + 1);
  for (int i = 0; i < 6; ++i) {
    auto g = generator.Generate(seed, {}, &rng, 1.0);
    ASSERT_GE(g.graph.num_nodes(), 2u);
    EXPECT_LE(g.graph.num_nodes(),
              static_cast<size_t>(config.max_nodes));
    EXPECT_EQ(g.graph.node_types[0],
              graph4ml::PipelineVocab::kDatasetType);
    EXPECT_EQ(g.graph.node_types[1],
              graph4ml::PipelineVocab::kReadCsvType);
    EXPECT_LE(g.log_prob, 1e-9);
    for (const auto& [src, dst] : g.graph.edges) {
      EXPECT_GE(src, 0);
      EXPECT_LT(src, static_cast<int>(g.graph.num_nodes()));
      EXPECT_LT(src, dst);
    }
    for (int type : g.graph.node_types) {
      EXPECT_GE(type, 0);
      EXPECT_LT(type, config.vocab_size);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Range<uint64_t>(1, 6));

// ---------------------------------------------------------------------
// Statistics: t-test p-values live in [0, 1] and are symmetric in sign;
// ranks behave.
class StatsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsProperty, TTestAndRankInvariants) {
  Rng rng(GetParam());
  std::vector<double> x, y;
  for (int i = 0; i < 25; ++i) {
    x.push_back(rng.Normal());
    y.push_back(rng.Normal() + 0.2);
  }
  TTestResult forward = PairedTTest(x, y);
  TTestResult backward = PairedTTest(y, x);
  EXPECT_GE(forward.p_value, 0.0);
  EXPECT_LE(forward.p_value, 1.0);
  EXPECT_NEAR(forward.p_value, backward.p_value, 1e-9);
  EXPECT_NEAR(forward.t_statistic, -backward.t_statistic, 1e-9);

  // AverageRanks is a permutation-invariant bijection onto [1, n] means.
  std::vector<double> ranks = AverageRanks(x);
  double sum = 0.0;
  for (double r : ranks) sum += r;
  double expected = static_cast<double>(x.size() * (x.size() + 1)) / 2.0;
  EXPECT_NEAR(sum, expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Featurizer: output width is schema-determined, never NaN, and test
// tables with permuted column order encode identically.
TEST(FeaturizerProperty, ColumnOrderIndependentEncoding) {
  DatasetSpec spec;
  spec.name = "order_prop";
  spec.rows = 80;
  spec.num_numeric = 4;
  spec.num_categorical = 2;
  Table table = GenerateDataset(spec);
  ml::Featurizer featurizer;
  ASSERT_TRUE(featurizer.Fit(table, spec.task).ok());
  auto direct = featurizer.TransformFeatures(table);
  ASSERT_TRUE(direct.ok());

  // Rebuild the same table with columns in reverse order.
  Table reversed(table.name());
  reversed.set_target_name(table.target_name());
  for (size_t c = table.num_columns(); c-- > 0;) {
    ASSERT_TRUE(reversed.AddColumn(table.column(c)).ok());
  }
  auto from_reversed = featurizer.TransformFeatures(reversed);
  ASSERT_TRUE(from_reversed.ok());
  ASSERT_EQ(from_reversed->cols, direct->cols);
  for (size_t i = 0; i < direct->values.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_reversed->values[i], direct->values[i]);
  }
}

}  // namespace
}  // namespace kgpip
