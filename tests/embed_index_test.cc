// IVF-SQ8 SimIndex suite: the approximate index's contracts against
// the exact flat scan — recall@10 floor on clustered corpora, byte-
// identity of the full-probe configuration, the zero-allocation steady
// state of Search's scratch, and hit-list byte-identity across thread
// counts, ISA levels, and a saved model's JSON round trip. Its own
// binary so the sanitizer and isa-determinism CI jobs can run exactly
// this suite.

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "embed/sim_index.h"
#include "nn/simd_kernels.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip::embed {
namespace {

using nn::simd::Isa;

// Clustered synthetic corpus: `clusters` well-separated directions with
// small gaussian spread — the regime IVF's coarse quantizer targets,
// shaped like embedded-table corpora (many datasets per concept family).
std::vector<std::vector<double>> ClusteredCorpus(size_t n, size_t dims,
                                                 size_t clusters,
                                                 uint64_t seed) {
  kgpip::Rng rng(seed);
  std::vector<std::vector<double>> centers(clusters);
  for (auto& c : centers) {
    c.resize(dims);
    for (double& x : c) x = rng.Normal() * 4.0;
  }
  std::vector<std::vector<double>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> v = centers[i % clusters];
    for (double& x : v) x += rng.Normal() * 0.3;
    out.push_back(std::move(v));
  }
  return out;
}

SimIndex BuildIndex(const std::vector<std::vector<double>>& rows,
                    const SimIndex::Options& options) {
  SimIndex index(options);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(index.Add(StrFormat("r%zu", i), rows[i]).ok());
  }
  EXPECT_TRUE(index.Build().ok());
  return index;
}

// Fraction of the exact index's top-k keys the approximate index also
// returns, averaged over the queries.
double RecallAtK(const SimIndex& approx, const SimIndex& exact,
                 const std::vector<std::vector<double>>& queries, size_t k) {
  size_t hit = 0;
  size_t total = 0;
  for (const auto& q : queries) {
    auto truth = exact.Search(q, k);
    auto got = approx.Search(q, k);
    EXPECT_TRUE(truth.ok()) << truth.status().ToString();
    EXPECT_TRUE(got.ok()) << got.status().ToString();
    if (!truth.ok() || !got.ok()) return 0.0;
    std::set<std::string> want;
    for (const auto& h : *truth) want.insert(h.key);
    for (const auto& h : *got) hit += want.count(h.key);
    total += truth->size();
  }
  return total == 0 ? 0.0 : static_cast<double>(hit) /
                                static_cast<double>(total);
}

// Serialized hit lists — keys plus the raw similarity bytes — so two
// result sets compare byte-for-byte, not "approximately".
std::string HitBytes(const std::vector<SearchHit>& hits) {
  std::string out;
  for (const SearchHit& h : hits) {
    out += h.key;
    out.push_back('=');
    char raw[sizeof(double)];
    std::memcpy(raw, &h.similarity, sizeof(raw));
    out.append(raw, sizeof(raw));
    out.push_back(';');
  }
  return out;
}

std::string SearchAllBytes(const SimIndex& index,
                           const std::vector<std::vector<double>>& queries,
                           size_t k) {
  std::string out;
  for (const auto& q : queries) {
    auto hits = index.Search(q, k);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    if (!hits.ok()) return "<error>";
    out += HitBytes(*hits);
    out.push_back('\n');
  }
  return out;
}

// Rows keyed "r<i>" in key order, the order Kgpip adds a model's
// embeddings to its index (from a std::map) when it trains and when it
// loads a saved model.
std::map<std::string, std::vector<double>> Keyed(
    const std::vector<std::vector<double>>& rows) {
  std::map<std::string, std::vector<double>> keyed;
  for (size_t i = 0; i < rows.size(); ++i) {
    keyed[StrFormat("r%zu", i)] = rows[i];
  }
  return keyed;
}

SimIndex BuildKeyed(const std::map<std::string, std::vector<double>>& keyed,
                    const SimIndex::Options& options) {
  SimIndex index(options);
  for (const auto& [key, row] : keyed) {
    EXPECT_TRUE(index.Add(key, row).ok());
  }
  EXPECT_TRUE(index.Build().ok());
  return index;
}

// The same rows after a saved model's JSON round trip: one member per key
// holding %.17g numbers (Kgpip::ToJson), added back in member order
// (Kgpip::LoadJson).
SimIndex BuildFromJson(const std::map<std::string, std::vector<double>>& keyed,
                       const SimIndex::Options& options) {
  Json saved = Json::Object();
  for (const auto& [key, row] : keyed) {
    Json values = Json::Array();
    for (double v : row) values.Append(Json(v));
    saved.Set(key, std::move(values));
  }
  Result<Json> loaded = Json::Parse(saved.Dump());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  SimIndex index(options);
  if (!loaded.ok()) return index;
  for (const auto& [key, values] : loaded->members()) {
    std::vector<double> row;
    for (const Json& v : values.items()) row.push_back(v.AsDouble());
    EXPECT_TRUE(index.Add(key, std::move(row)).ok());
  }
  EXPECT_TRUE(index.Build().ok());
  return index;
}

TEST(SimIndexIvfTest, RecallAtTenMeetsFloorOnThousandRowCorpora) {
  for (uint64_t seed : {uint64_t{1}, uint64_t{2}}) {
    const auto rows = ClusteredCorpus(1000, 16, 20, seed);
    SimIndex::Options options;
    options.num_cells = 32;
    options.num_probes = 8;
    SimIndex ivf = BuildIndex(rows, options);
    ASSERT_GT(ivf.num_cells_built(), 0u);
    ASSERT_TRUE(ivf.quantized());
    SimIndex flat = BuildIndex(rows, SimIndex::Options{});
    ASSERT_EQ(flat.num_cells_built(), 0u);
    const auto queries = ClusteredCorpus(40, 16, 20, seed + 100);
    const double recall = RecallAtK(ivf, flat, queries, 10);
    EXPECT_GE(recall, 0.95) << "seed " << seed;
  }
}

TEST(SimIndexIvfTest, RecallAtTenMeetsFloorAtTenThousandRows) {
  const auto rows = ClusteredCorpus(10000, 24, 64, 3);
  SimIndex::Options options;
  options.num_cells = 100;
  options.num_probes = 8;
  SimIndex ivf = BuildIndex(rows, options);
  ASSERT_EQ(ivf.num_cells_built(), 100u);
  SimIndex flat = BuildIndex(rows, SimIndex::Options{});
  const auto queries = ClusteredCorpus(30, 24, 64, 777);
  EXPECT_GE(RecallAtK(ivf, flat, queries, 10), 0.95);
}

TEST(SimIndexIvfTest, FullProbeQuantizedSearchMatchesFlatByteForByte) {
  // With every cell probed and rerank_k covering every candidate, the
  // quantized approximation only orders candidates for the exact rerank
  // — which then scores with the flat scan's exact kernel. The result
  // must equal the flat index's, keys and similarity bits alike.
  const auto rows = ClusteredCorpus(600, 12, 8, 5);
  SimIndex::Options options;
  options.num_cells = 8;
  options.num_probes = 64;   // > num_cells: probe everything
  options.rerank_k = 10000;  // > n: exact-rerank everything
  SimIndex ivf = BuildIndex(rows, options);
  ASSERT_TRUE(ivf.quantized());
  SimIndex flat = BuildIndex(rows, SimIndex::Options{});
  const auto queries = ClusteredCorpus(12, 12, 8, 99);
  for (size_t k : {size_t{1}, size_t{7}, size_t{600}}) {
    EXPECT_EQ(SearchAllBytes(ivf, queries, k),
              SearchAllBytes(flat, queries, k))
        << "k=" << k;
  }
}

TEST(SimIndexIvfTest, AutoPolicyKeepsSmallCorporaFlat) {
  SimIndex::Options options;
  options.num_cells = -1;  // auto
  const auto rows = ClusteredCorpus(64, 8, 4, 19);
  SimIndex index = BuildIndex(rows, options);
  // Below kAutoIvfMinRows the auto policy must not build cells: the
  // paper-scale corpus keeps the exact flat scan bit for bit.
  EXPECT_EQ(index.num_cells_built(), 0u);
  EXPECT_FALSE(index.quantized());
  ASSERT_LT(rows.size(), SimIndex::kAutoIvfMinRows);
  auto hits = index.Search(rows[3], 3);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ((*hits)[0].key, "r3");
}

TEST(SimIndexIvfTest, SteadyStateSearchDoesNotGrowScratch) {
  // Search reuses per-thread scratch; the embed.index.search_allocs
  // counter ticks only when a scratch vector's capacity grows. After a
  // warm-up pass over every query shape, repeated searches must not
  // allocate — the serve path's per-request allocation budget.
  const auto rows = ClusteredCorpus(1500, 16, 12, 9);
  SimIndex::Options options;
  options.num_cells = 12;
  options.num_probes = 4;
  SimIndex ivf = BuildIndex(rows, options);
  obs::Counter* allocs =
      obs::MetricsRegistry::Global().GetCounter("embed.index.search_allocs");
  const auto queries = ClusteredCorpus(16, 16, 12, 21);
  for (const auto& q : queries) ASSERT_TRUE(ivf.Search(q, 20).ok());
  const int64_t before = allocs->value();
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& q : queries) ASSERT_TRUE(ivf.Search(q, 20).ok());
  }
  EXPECT_EQ(allocs->value(), before)
      << "steady-state Search grew its scratch";
}

TEST(SimIndexIvfTest, HitListsAreByteIdenticalAcrossThreadCounts) {
  // Build + search under 1, 2, and 4 pool threads: the k-means build
  // and the parallel flat scan (corpus is over the parallel-scan
  // threshold) must both be invisible in the output. A loaded model
  // rebuilds its IVF index from the saved JSON embeddings, so the index
  // built from the JSON round trip must return the direct build's bytes.
  const auto keyed = Keyed(ClusteredCorpus(3000, 16, 24, 13));
  const auto queries = ClusteredCorpus(10, 16, 24, 31);
  auto run = [&]() {
    SimIndex::Options options;
    options.num_cells = 24;
    options.num_probes = 6;
    SimIndex ivf = BuildKeyed(keyed, options);
    SimIndex flat = BuildKeyed(keyed, SimIndex::Options{});
    SimIndex loaded = BuildFromJson(keyed, options);
    EXPECT_TRUE(loaded.quantized());
    std::string blob = SearchAllBytes(ivf, queries, 9);
    EXPECT_EQ(SearchAllBytes(loaded, queries, 9), blob)
        << "the JSON round trip changed the index";
    blob += SearchAllBytes(flat, queries, 9);
    return blob;
  };
  util::ThreadPool::Configure(1);
  const std::string baseline = run();
  for (int threads : {2, 4}) {
    util::ThreadPool::Configure(threads);
    EXPECT_EQ(run(), baseline) << "divergence at " << threads << " threads";
  }
  util::ThreadPool::Configure(0);
}

TEST(SimIndexIvfTest, QuantizedSearchIsByteIdenticalAcrossIsaLevels) {
  // The SQ8 kernel is the only ISA-dispatched code on the query path;
  // forcing each supported level must leave hit lists byte-identical.
  const auto rows = ClusteredCorpus(1200, 16, 12, 17);
  SimIndex::Options options;
  options.num_cells = 12;
  options.num_probes = 4;
  SimIndex ivf = BuildIndex(rows, options);
  ASSERT_TRUE(ivf.quantized());
  const auto queries = ClusteredCorpus(12, 16, 12, 41);
  const Isa before = nn::simd::ActiveIsa();
  nn::simd::ForceIsa(Isa::kScalar);
  const std::string baseline = SearchAllBytes(ivf, queries, 8);
  for (Isa isa : {Isa::kAvx2, Isa::kAvx512}) {
    if (!nn::simd::IsaSupported(isa)) continue;
    nn::simd::ForceIsa(isa);
    EXPECT_EQ(SearchAllBytes(ivf, queries, 8), baseline)
        << "divergence under " << nn::simd::IsaName(isa);
  }
  nn::simd::ForceIsa(before);
}

}  // namespace
}  // namespace kgpip::embed
