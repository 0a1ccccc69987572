#include <algorithm>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "data/benchmark_registry.h"
#include "embed/embedder.h"
#include "embed/sim_index.h"
#include "embed/tsne.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace kgpip::embed {
namespace {

TEST(EmbedderTest, OutputIsUnitNormAndFixedSize) {
  DatasetSpec spec;
  spec.name = "unit";
  Table table = GenerateDataset(spec);
  TableEmbedder embedder;
  std::vector<double> v = embedder.Embed(table);
  ASSERT_EQ(v.size(), TableEmbedder::kDims);
  double norm = 0.0;
  for (double x : v) norm += x * x;
  EXPECT_NEAR(norm, 1.0, 1e-9);
}

TEST(EmbedderTest, SameRecipeDifferentSeedIsSimilar) {
  TableEmbedder embedder;
  DatasetSpec spec;
  spec.name = "a";
  spec.family = ConceptFamily::kRules;
  spec.domain = Domain::kFinance;
  spec.seed = 1;
  auto va = embedder.Embed(GenerateDataset(spec));
  spec.seed = 2;
  spec.name = "b";
  auto vb = embedder.Embed(GenerateDataset(spec));
  // Different domain and family should be farther.
  DatasetSpec other = spec;
  other.name = "c";
  other.family = ConceptFamily::kText;
  other.domain = Domain::kReviews;
  other.num_text = 1;
  auto vc = embedder.Embed(GenerateDataset(other));
  double same = TableEmbedder::Cosine(va, vb);
  double different = TableEmbedder::Cosine(va, vc);
  EXPECT_GT(same, different + 0.1);
  EXPECT_GT(same, 0.8);
}

TEST(EmbedderTest, NearestNeighbourRecoversFamilyAndDomain) {
  // Index the training corpus; evaluation datasets must retrieve a
  // training dataset with the same (family, domain, task) most of the
  // time — this is the retrieval property KGpip's pipeline prediction
  // rests on.
  BenchmarkRegistry registry;
  TableEmbedder embedder;
  SimIndex index;
  auto training = registry.TrainingSpecs();
  std::map<std::string, const DatasetSpec*> by_name;
  for (const auto& spec : training) {
    ASSERT_TRUE(index.Add(spec.name,
                          embedder.Embed(GenerateDataset(spec))).ok());
    by_name[spec.name] = &spec;
  }

  int family_hits = 0;
  int domain_hits = 0;
  int total = 0;
  for (const auto& eval_spec : registry.eval_specs()) {
    auto query = embedder.Embed(GenerateDataset(eval_spec));
    auto hits = index.Search(query, 1);
    ASSERT_TRUE(hits.ok());
    const DatasetSpec* match = by_name[(*hits)[0].key];
    ASSERT_NE(match, nullptr);
    ++total;
    if (match->family == eval_spec.family) ++family_hits;
    if (match->domain == eval_spec.domain) ++domain_hits;
  }
  // Content embeddings must recover the concept family for most datasets.
  EXPECT_GT(family_hits, total * 6 / 10)
      << "family recall " << family_hits << "/" << total;
  EXPECT_GT(domain_hits, total / 2)
      << "domain recall " << domain_hits << "/" << total;
}

TEST(SimIndexTest, FlatSearchExactOrder) {
  SimIndex index;
  ASSERT_TRUE(index.Add("x", {1.0, 0.0}).ok());
  ASSERT_TRUE(index.Add("y", {0.0, 1.0}).ok());
  ASSERT_TRUE(index.Add("xy", {0.7, 0.7}).ok());
  auto hits = index.Search({1.0, 0.1}, 2);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].key, "x");
  EXPECT_EQ((*hits)[1].key, "xy");
  // Dimensionality checks.
  EXPECT_FALSE(index.Add("bad", {1.0}).ok());
  EXPECT_FALSE(index.Search({1.0}, 1).ok());
}

TEST(SimIndexTest, CosineDecompositionMatchesFusedKernelBitwise) {
  // The index precomputes row norms at Add time and re-assembles cosine
  // from BlockedDot + BlockedSquaredNorm at query time. That split must
  // reproduce the fused BlockedCosine BIT for bit (each accumulator
  // chain is untouched by the split), or precomputing norms would change
  // hit order relative to scoring each pair with BlockedCosine.
  kgpip::Rng rng(7);
  for (size_t dims : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{5},
                      size_t{7}, size_t{8}, size_t{16}, size_t{17},
                      size_t{32}, size_t{100}}) {
    for (int rep = 0; rep < 8; ++rep) {
      std::vector<double> a(dims);
      std::vector<double> b(dims);
      for (double& x : a) x = rng.Normal();
      for (double& x : b) x = rng.Normal();
      const double fused = BlockedCosine(a.data(), b.data(), dims);
      const double split =
          CosineFromParts(BlockedDot(a.data(), b.data(), dims),
                          BlockedSquaredNorm(a.data(), dims),
                          BlockedSquaredNorm(b.data(), dims));
      uint64_t fused_bits = 0;
      uint64_t split_bits = 0;
      std::memcpy(&fused_bits, &fused, sizeof(fused_bits));
      std::memcpy(&split_bits, &split, sizeof(split_bits));
      EXPECT_EQ(fused_bits, split_bits)
          << "dims=" << dims << " rep=" << rep;
    }
  }
  // Zero vectors take the non-positive-norm guard in both forms.
  std::vector<double> zero(8, 0.0);
  std::vector<double> ones(8, 1.0);
  EXPECT_EQ(BlockedCosine(zero.data(), ones.data(), 8), 0.0);
  EXPECT_EQ(CosineFromParts(BlockedDot(zero.data(), ones.data(), 8),
                            BlockedSquaredNorm(zero.data(), 8),
                            BlockedSquaredNorm(ones.data(), 8)),
            0.0);
}

TEST(SimIndexTest, TopKMatchesFullSortReference) {
  // Regression for the nth_element top-k path: hits (keys, order, and
  // similarity values) must match a stable full-sort reference exactly,
  // including duplicate-vector ties (which order by insertion index).
  SimIndex index;
  kgpip::Rng rng(11);
  constexpr size_t kN = 200;
  constexpr size_t kDims = 16;
  std::vector<std::vector<double>> vectors;
  for (size_t i = 0; i < kN; ++i) {
    std::vector<double> v(kDims);
    if (i % 10 == 3 && i > 10) {
      v = vectors[i - 1];  // exact duplicate => similarity tie
    } else {
      for (double& x : v) x = rng.Normal();
    }
    vectors.push_back(v);
    ASSERT_TRUE(index.Add(StrFormat("k%zu", i), v).ok());
  }

  std::vector<double> query(kDims);
  for (double& x : query) x = rng.Normal();
  for (size_t k : {size_t{1}, size_t{5}, size_t{17}, kN, kN + 10}) {
    auto hits = index.Search(query, k);
    ASSERT_TRUE(hits.ok());
    // Reference: score everything with the same kernel, stable-sort by
    // similarity descending (stability preserves insertion order ties).
    std::vector<std::pair<double, size_t>> ranked;
    for (size_t i = 0; i < kN; ++i) {
      ranked.emplace_back(
          BlockedCosine(query.data(), vectors[i].data(), kDims), i);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    ASSERT_EQ(hits->size(), std::min(k, kN)) << "k=" << k;
    for (size_t i = 0; i < hits->size(); ++i) {
      EXPECT_EQ((*hits)[i].key, StrFormat("k%zu", ranked[i].second))
          << "k=" << k << " rank " << i;
      EXPECT_EQ((*hits)[i].similarity, ranked[i].first)
          << "k=" << k << " rank " << i;
    }
  }
}

TEST(TsneTest, SeparatesObviousClusters) {
  kgpip::Rng rng(3);
  std::vector<std::vector<double>> points;
  std::vector<int> labels;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 12; ++i) {
      std::vector<double> p(8, 0.0);
      p[c] = 5.0;
      for (double& x : p) x += rng.Normal() * 0.1;
      points.push_back(p);
      labels.push_back(c);
    }
  }
  TsneOptions options;
  options.iterations = 250;
  auto map = Tsne2D(points, options);
  ASSERT_EQ(map.size(), points.size());
  std::vector<std::vector<double>> mapped;
  for (const auto& [x, y] : map) mapped.push_back({x, y});
  EXPECT_GT(SilhouetteScore(mapped, labels), 0.3);
}

}  // namespace
}  // namespace kgpip::embed
