// Embedder suite: pinned FNV-1a digests of TableEmbedder::Embed's raw
// output bytes, over the benchmark corpus at 1/2/4 lanes and over small
// edge tables (signed zeros, all-missing and constant columns, columns too
// short for MI or correlation, the asymmetric pairwise probe, categorical
// targets with missing labels or one class, no target, text columns), plus
// non-finite cells, which embed exactly as missing ones, and columns whose
// statistics overflow or underflow. Any change to the bits Embed returns
// moves a digest here.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "codegraph/corpus.h"
#include "core/kgpip.h"
#include "data/benchmark_registry.h"
#include "data/csv.h"
#include "data/type_inference.h"
#include "embed/embedder.h"
#include "embed/sim_index.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip::embed {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// FNV-1a over the concatenated raw bytes of each table's embedding.
std::string EmbeddingDigest(const std::vector<Table>& tables) {
  TableEmbedder embedder;
  std::string raw;
  for (const Table& table : tables) {
    const std::vector<double> v = embedder.Embed(table);
    raw.append(reinterpret_cast<const char*>(v.data()),
               v.size() * sizeof(double));
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(Fnv1a64(raw)));
}

std::string EmbeddingDigest(const Table& table) {
  return EmbeddingDigest(std::vector<Table>{table});
}

Table MakeTable(std::vector<Column> columns, std::string target) {
  Table table("edge");
  for (Column& column : columns) {
    EXPECT_TRUE(table.AddColumn(std::move(column)).ok());
  }
  table.set_target_name(std::move(target));
  return table;
}

std::vector<double> Noise(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (double& x : out) x = rng.Normal();
  return out;
}

// Keeps values[r] where keep(r), NaN (missing) elsewhere.
template <typename Keep>
std::vector<double> Masked(std::vector<double> values, Keep keep) {
  for (size_t r = 0; r < values.size(); ++r) {
    if (!keep(r)) values[r] = kNaN;
  }
  return values;
}

std::vector<std::string> Labels(size_t n,
                                const std::vector<std::string>& cycle) {
  std::vector<std::string> out(n);
  for (size_t r = 0; r < n; ++r) out[r] = cycle[r % cycle.size()];
  return out;
}

TEST(EmbedderDigestTest, CorpusEmbeddingsArePinnedAtEveryLaneCount) {
  BenchmarkRegistry registry;
  std::vector<Table> tables;
  for (const DatasetSpec& spec : registry.TrainingSpecs()) {
    tables.push_back(GenerateDataset(spec));
  }
  for (const DatasetSpec& spec : registry.eval_specs()) {
    tables.push_back(GenerateDataset(spec));
  }
  ASSERT_EQ(tables.size(), 96u + 77u);
  for (int lanes : {1, 2, 4}) {
    util::ThreadPool::Configure(lanes);
    EXPECT_EQ(EmbeddingDigest(tables), "aed1cde997d15302")
        << "at " << lanes << " lanes";
  }
  util::ThreadPool::Configure(0);
}

TEST(EmbedderDigestTest, SignedZerosCountAsOneValue) {
  // -0.0 and +0.0 are one distinct value, and compare equal to the MI
  // quartile thresholds; the numeric target mixes them too.
  constexpr size_t kRows = 24;
  std::vector<double> zeros(kRows), target = Noise(kRows, 3);
  for (size_t r = 0; r < kRows; ++r) {
    zeros[r] = r % 3 == 0 ? -0.0 : (r % 3 == 1 ? 0.0 : 2.5);
    if (r % 4 == 0) target[r] = r % 8 == 0 ? -0.0 : 0.0;
  }
  Table table = MakeTable({Column::Numeric("zeros", zeros),
                           Column::Numeric("x", Noise(kRows, 1)),
                           Column::Numeric("y", target)},
                          "y");
  EXPECT_EQ(EmbeddingDigest(table), "7f581977a5e1c459");
}

TEST(EmbedderDigestTest, AllMissingAndConstantColumns) {
  constexpr size_t kRows = 20;
  Table table = MakeTable(
      {Column::Numeric("gone", std::vector<double>(kRows, kNaN)),
       Column::Numeric("flat", std::vector<double>(kRows, 3.0)),
       Column::Numeric("x", Noise(kRows, 4)),
       Column::Numeric("y", Noise(kRows, 5))},
      "y");
  EXPECT_EQ(EmbeddingDigest(table), "7c1dc8c01baba3ec");
}

TEST(EmbedderDigestTest, ColumnsTooShortForMutualInformationOrCorrelation) {
  // "few" has 10 non-missing rows (< 16: MI is 0, correlation is not);
  // "two" has 2 (< 3: correlation is 0 too).
  constexpr size_t kRows = 30;
  Table table = MakeTable(
      {Column::Numeric("few", Masked(Noise(kRows, 6),
                                     [](size_t r) { return r % 3 == 0; })),
       Column::Numeric("two",
                       Masked(Noise(kRows, 7),
                              [](size_t r) { return r == 4 || r == 17; })),
       Column::Numeric("x", Noise(kRows, 8)),
       Column::Numeric("y", Noise(kRows, 9))},
      "y");
  EXPECT_EQ(EmbeddingDigest(table), "488158956d38c14b");
}

TEST(EmbedderDigestTest, ProbeColumnsWithDifferentMissingRows) {
  // The pairwise probe skips the rows its first column is missing and
  // reads the second column's missing rows as 0.0, so corr(a, b) and
  // corr(b, a) differ.
  constexpr size_t kRows = 40;
  std::vector<double> a = Noise(kRows, 10);
  std::vector<double> b = Noise(kRows, 11);
  for (size_t r = 0; r < kRows; ++r) b[r] = 0.6 * a[r] + 0.4 * b[r];
  Table table = MakeTable(
      {Column::Numeric("a", Masked(a, [](size_t r) { return r % 5 != 0; })),
       Column::Numeric("b", Masked(b, [](size_t r) { return r % 7 != 3; })),
       Column::Numeric("c", Noise(kRows, 12)),
       Column::Categorical("label", Labels(kRows, {"no", "yes", "yes"}))},
      "label");
  EXPECT_EQ(EmbeddingDigest(table), "5581964acc4e7b1e");
}

TEST(EmbedderDigestTest, CategoricalTargetWithMissingLabels) {
  // The first label seen ("mid") is not the first in sorted order, and
  // missing labels encode as 0.0 while still counting as rows in the
  // entropy's denominator.
  constexpr size_t kRows = 32;
  Table table = MakeTable(
      {Column::Numeric("x1", Noise(kRows, 13)),
       Column::Numeric("x2", Noise(kRows, 14)),
       Column::Categorical("label",
                           Labels(kRows, {"mid", "hi", "", "lo", "mid"}))},
      "label");
  EXPECT_EQ(EmbeddingDigest(table), "afa82251b25b12db");
}

TEST(EmbedderDigestTest, SingleClassTarget) {
  constexpr size_t kRows = 20;
  Table table =
      MakeTable({Column::Numeric("x1", Noise(kRows, 15)),
                 Column::Numeric("x2", Noise(kRows, 16)),
                 Column::Categorical("label", Labels(kRows, {"only"}))},
                "label");
  EXPECT_EQ(EmbeddingDigest(table), "26f44cb20ac4d5da");
}

TEST(EmbedderDigestTest, CategoricalTargetWithEveryLabelMissing) {
  constexpr size_t kRows = 20;
  Table table =
      MakeTable({Column::Numeric("x1", Noise(kRows, 22)),
                 Column::Numeric("x2", Noise(kRows, 23)),
                 Column::Categorical("label", Labels(kRows, {""}))},
                "label");
  EXPECT_EQ(EmbeddingDigest(table), "4ceba0728c54f328");
}

TEST(EmbedderDigestTest, TableWithoutTarget) {
  constexpr size_t kRows = 20;
  Table table = MakeTable({Column::Numeric("x1", Noise(kRows, 17)),
                           Column::Numeric("x2", Noise(kRows, 18)),
                           Column::Categorical("c", Labels(kRows, {"u", "v"}))},
                          "");
  EXPECT_EQ(EmbeddingDigest(table), "74fde53f7c97dba0");
}

TEST(EmbedderDigestTest, TextAndCategoricalColumns) {
  constexpr size_t kRows = 20;
  Table table = MakeTable(
      {Column::Text("review",
                    Labels(kRows, {"great value for money", "",
                                   "arrived late and broken",
                                   "would buy again"})),
       Column::Categorical("city", Labels(kRows, {"Oslo", "Lima", "Pune"})),
       Column::Numeric("price", Noise(kRows, 19)),
       Column::Categorical("label", Labels(kRows, {"pos", "neg"}))},
      "label");
  EXPECT_EQ(EmbeddingDigest(table), "5a2d874d01ea2bca");
}

// CSV text with a numeric feature, a numeric target and a categorical
// column; `feature_cell` and `target_cell` replace one cell each.
std::string SensorCsv(const std::string& feature_cell,
                      const std::string& target_cell) {
  std::string csv = "reading,load,site,output\n";
  Rng rng(21);
  for (int r = 0; r < 40; ++r) {
    const double x = rng.Normal();
    const double load = rng.Uniform(0.0, 5.0);
    csv += r == 7 ? feature_cell : StrFormat("%.6f", x);
    csv += StrFormat(",%.6f,%s,", load, r % 3 == 0 ? "north" : "south");
    csv += r == 12 ? target_cell : StrFormat("%.6f", 2.0 * x + load);
    csv += "\n";
  }
  return csv;
}

Table ReadTyped(const std::string& csv) {
  Result<Table> table = ReadCsvText(csv, CsvOptions());
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  if (!table.ok()) return Table();
  EXPECT_TRUE(InferColumnTypes(&*table).ok());
  table->set_target_name("output");
  return std::move(*table);
}

TEST(EmbedderTest, NonFiniteCellsEmbedAsMissing) {
  // strtod reads "1e999" and "-inf" as infinities, which the column does
  // not mark missing. Embed must treat them as missing: the result is
  // finite, unit-norm, and byte-identical to the table with empty cells.
  const Table empty = ReadTyped(SensorCsv("", ""));
  const Table infinite = ReadTyped(SensorCsv("1e999", "-inf"));
  ASSERT_EQ(infinite.column(0).type(), ColumnType::kNumeric);
  ASSERT_EQ(infinite.column(3).type(), ColumnType::kNumeric);
  ASSERT_TRUE(std::isinf(infinite.column(0).NumericAt(7)));
  ASSERT_FALSE(infinite.column(0).IsMissing(7));

  TableEmbedder embedder;
  const std::vector<double> v = embedder.Embed(infinite);
  double norm = 0.0;
  for (double x : v) {
    ASSERT_TRUE(std::isfinite(x));
    norm += x * x;
  }
  EXPECT_NEAR(norm, 1.0, 1e-9);
  EXPECT_EQ(EmbeddingDigest(infinite), EmbeddingDigest(empty));

  // Its nearest training dataset scores a finite similarity.
  BenchmarkRegistry registry;
  SimIndex index;
  for (const DatasetSpec& spec : registry.TrainingSpecs()) {
    ASSERT_TRUE(index.Add(spec.name, embedder.Embed(GenerateDataset(spec)))
                    .ok());
  }
  auto hits = index.Search(v, 1);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_TRUE(std::isfinite((*hits)[0].similarity));
}

TEST(EmbedderTest, ExtremeColumnsEmbedFiniteAndPredictSkeletons) {
  // Finite values near DBL_MAX overflow a column's sums, and values near
  // 1e-160 make the product of two columns' spreads underflow to zero. A
  // statistic that cannot be computed is unavailable, as for a constant
  // column, so the embedding stays finite and unit-norm and the
  // similarity search takes it: PredictSkeletons returns generated
  // skeletons instead of the refused query that sends Fit to its
  // fallback portfolio.
  constexpr size_t kRows = 30;
  std::vector<double> huge(kRows), tiny(kRows), tiny2(kRows), y(kRows);
  const std::vector<double> noise = Noise(kRows, 8);
  const std::vector<double> noise2 = Noise(kRows, 9);
  for (size_t r = 0; r < kRows; ++r) {
    huge[r] = 1e308 / static_cast<double>(1 + r % 3);
    tiny[r] = 1e-160 * noise[r];
    tiny2[r] = 1e-160 * noise2[r];
    y[r] = 0.5 * static_cast<double>(r);
  }
  const std::vector<Table> tables = {
      MakeTable({Column::Numeric("x", huge), Column::Numeric("y", y)}, "y"),
      MakeTable({Column::Numeric("x", tiny), Column::Numeric("z", tiny2),
                 Column::Numeric("y", y)},
                "y")};
  for (const Table& table : tables) {
    const std::vector<double> v = TableEmbedder().Embed(table);
    double norm = 0.0;
    for (size_t i = 0; i < v.size(); ++i) {
      ASSERT_TRUE(std::isfinite(v[i])) << "v[" << i << "] = " << v[i];
      norm += v[i] * v[i];
    }
    EXPECT_NEAR(norm, 1.0, 1e-9);
  }

  BenchmarkRegistry registry;
  std::vector<DatasetSpec> specs = registry.TrainingSpecs();
  specs.resize(6);
  core::KgpipConfig config;
  config.generator_epochs = 4;
  core::Kgpip kgpip(config);
  codegraph::CorpusOptions corpus;
  corpus.pipelines_per_dataset = 4;
  corpus.noise_scripts_per_dataset = 1;
  ASSERT_TRUE(kgpip.Train(specs, corpus, 3).ok());
  for (const Table& table : tables) {
    auto skeletons = kgpip.PredictSkeletons(table, TaskType::kRegression, 1);
    ASSERT_TRUE(skeletons.ok()) << skeletons.status().ToString();
    ASSERT_FALSE(skeletons->empty());
    // Sampled graphs score above the dataset's mimicked pipelines (-50)
    // and the fallback portfolio (-100 - rank).
    EXPECT_GT(skeletons->front().log_prob, -50.0);
  }
}

}  // namespace
}  // namespace kgpip::embed
