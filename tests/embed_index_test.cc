// SimIndex suite: the exact flat scan's contracts on corpora above the
// parallel-scan threshold — hits equal to a BlockedCosine full-sort
// reference, the zero-allocation steady state of Search's scratch,
// hit-list byte-identity across thread counts and a saved model's JSON
// round trip, k = 0, and non-finite vectors. Its own binary so the
// sanitizer CI jobs can run exactly this suite.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "embed/sim_index.h"
#include "obs/metrics.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip::embed {
namespace {

// Above the scan's 2048-row parallel threshold, so Search fans out over
// the pool.
constexpr size_t kRows = 3000;

// Clustered synthetic corpus: `clusters` well-separated directions with
// small gaussian spread, shaped like embedded-table corpora (many
// datasets per concept family).
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

SimIndex BuildKeyed(const std::map<std::string, std::vector<double>>& keyed) {
  SimIndex index;
  for (const auto& [key, row] : keyed) {
    EXPECT_TRUE(index.Add(key, row).ok());
  }
  return index;
}

// The same rows after a saved model's JSON round trip: one member per key
// holding %.17g numbers (Kgpip::ToJson), decoded back into a map and
// added in key order (Kgpip::LoadJson).
SimIndex BuildFromJson(
    const std::map<std::string, std::vector<double>>& keyed) {
  Json saved = Json::Object();
  for (const auto& [key, row] : keyed) {
    Json values = Json::Array();
    for (double v : row) values.Append(Json(v));
    saved.Set(key, std::move(values));
  }
  Result<Json> loaded = Json::Parse(saved.Dump());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (!loaded.ok()) return SimIndex();
  std::map<std::string, std::vector<double>> decoded;
  for (const auto& [key, values] : loaded->members()) {
    std::vector<double>& row = decoded[key];
    for (const Json& v : values.items()) row.push_back(v.AsDouble());
  }
  return BuildKeyed(decoded);
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

TEST(SimIndexScanTest, ParallelScanMatchesFullSortReference) {
  // Every row scored with the fused BlockedCosine, then a stable sort by
  // similarity (ties keep insertion order): the parallel scan must
  // return exactly this prefix, keys and similarity bits alike.
  const auto rows = ClusteredCorpus(kRows, 16, 24, 5);
  SimIndex index;
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index.Add(StrFormat("r%zu", i), rows[i]).ok());
  }
  const auto queries = ClusteredCorpus(4, 16, 24, 99);
  for (const auto& q : queries) {
    std::vector<std::pair<double, size_t>> ranked;
    for (size_t i = 0; i < rows.size(); ++i) {
      ranked.emplace_back(
          BlockedCosine(q.data(), rows[i].data(), q.size()), i);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (size_t k : {size_t{1}, size_t{9}, kRows}) {
      auto hits = index.Search(q, k);
      ASSERT_TRUE(hits.ok()) << hits.status().ToString();
      ASSERT_EQ(hits->size(), k);
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ((*hits)[i].key, StrFormat("r%zu", ranked[i].second))
            << "k=" << k << " rank " << i;
        EXPECT_EQ((*hits)[i].similarity, ranked[i].first)
            << "k=" << k << " rank " << i;
      }
    }
  }
}

TEST(SimIndexScanTest, SteadyStateSearchDoesNotGrowScratch) {
  // Search reuses per-thread scratch; the embed.index.search_allocs
  // counter ticks only when the scratch's capacity grows. After a
  // warm-up pass over every query, repeated searches must not allocate —
  // the serve path's per-request allocation budget.
  const auto rows = ClusteredCorpus(kRows, 16, 12, 9);
  SimIndex index;
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(index.Add(StrFormat("r%zu", i), rows[i]).ok());
  }
  obs::Counter* allocs =
      obs::MetricsRegistry::Global().GetCounter("embed.index.search_allocs");
  const auto queries = ClusteredCorpus(16, 16, 12, 21);
  for (const auto& q : queries) ASSERT_TRUE(index.Search(q, 20).ok());
  const int64_t before = allocs->value();
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& q : queries) ASSERT_TRUE(index.Search(q, 20).ok());
  }
  EXPECT_EQ(allocs->value(), before)
      << "steady-state Search grew its scratch";
}

TEST(SimIndexScanTest, HitListsAreByteIdenticalAcrossThreadCounts) {
  // Search under 1, 2, and 4 pool threads: the parallel scan must be
  // invisible in the output. A loaded model rebuilds its index from the
  // saved JSON embeddings, so the index built from the JSON round trip
  // must return the direct build's bytes.
  const auto keyed = Keyed(ClusteredCorpus(kRows, 16, 24, 13));
  const auto queries = ClusteredCorpus(10, 16, 24, 31);
  auto run = [&]() {
    const SimIndex direct = BuildKeyed(keyed);
    const SimIndex loaded = BuildFromJson(keyed);
    const std::string blob = SearchAllBytes(direct, queries, 9);
    EXPECT_EQ(SearchAllBytes(loaded, queries, 9), blob)
        << "the JSON round trip changed the index";
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

TEST(SimIndexScanTest, ZeroKReturnsNoHits) {
  SimIndex index;
  ASSERT_TRUE(index.Add("a", {1.0, 0.0}).ok());
  ASSERT_TRUE(index.Add("b", {0.0, 1.0}).ok());
  auto hits = index.Search({1.0, 0.5}, 0);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  EXPECT_TRUE(hits->empty());
}

TEST(SimIndexScanTest, NonFiniteVectorsAreInvalidArguments) {
  // An inf or NaN component makes the squared norm non-finite; such a row
  // would score NaN against every query, and NaN breaks the ranking's
  // strict weak order. Add and Search refuse it and leave the index as it
  // was.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SimIndex index;
  EXPECT_EQ(index.Add("inf", {1.0, inf}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Add("nan", {nan, 0.0}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.size(), 0u);
  ASSERT_TRUE(index.Add("a", {1.0, 0.0}).ok());
  ASSERT_TRUE(index.Add("b", {0.0, 1.0}).ok());
  EXPECT_EQ(index.Add("c", {-inf, 1.0}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.Add("d", {0.5, nan}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(index.size(), 2u);
  for (const std::vector<double>& query :
       {std::vector<double>{inf, 0.0}, std::vector<double>{0.0, -inf},
        std::vector<double>{nan, 1.0}}) {
    for (size_t k : {size_t{0}, size_t{1}, size_t{2}}) {
      EXPECT_EQ(index.Search(query, k).status().code(),
                StatusCode::kInvalidArgument)
          << "k=" << k;
    }
  }
  auto hits = index.Search({1.0, 0.5}, 2);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_EQ(hits->size(), 2u);
  EXPECT_EQ((*hits)[0].key, "a");
}

}  // namespace
}  // namespace kgpip::embed
