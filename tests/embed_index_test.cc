// IVF-SQ8 SimIndex suite: the approximate index's contracts against
// the exact flat scan — recall@10 floor on clustered corpora, byte-
// identity of the full-probe configuration, KGSEG1 segment round-trip
// and corruption rejection (truncation, bit flips, bad magic, an IVF
// file without SQ8 segments: reject with kParseError and byte offsets,
// never serve corrupt data), the zero-allocation steady state of
// Search's scratch, and hit-list byte-identity across thread counts and
// ISA levels. Its own binary so the sanitizer and isa-determinism CI
// jobs can run exactly this suite.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "embed/sim_index.h"
#include "nn/simd_kernels.h"
#include "obs/metrics.h"
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
    EXPECT_TRUE(index.Add("r" + std::to_string(i), rows[i]).ok());
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

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
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
  // threshold) must both be invisible in the output.
  const auto rows = ClusteredCorpus(3000, 16, 24, 13);
  const auto queries = ClusteredCorpus(10, 16, 24, 31);
  auto run = [&]() {
    SimIndex::Options options;
    options.num_cells = 24;
    options.num_probes = 6;
    SimIndex ivf = BuildIndex(rows, options);
    SimIndex flat = BuildIndex(rows, SimIndex::Options{});
    std::string blob = SearchAllBytes(ivf, queries, 9);
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

TEST(SimIndexSegmentTest, RoundTripPreservesGeometryAndSearchBits) {
  const auto rows = ClusteredCorpus(800, 12, 10, 7);
  SimIndex::Options options;
  options.num_cells = 10;
  options.num_probes = 3;
  SimIndex built = BuildIndex(rows, options);
  const std::string path = "/tmp/kgpip_embed_segments_roundtrip.kgseg";
  ASSERT_TRUE(built.SaveSegments(path).ok());

  SimIndex loaded(options);
  Status status = loaded.LoadSegments(path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(loaded.size(), built.size());
  EXPECT_EQ(loaded.dims(), built.dims());
  EXPECT_EQ(loaded.num_cells_built(), built.num_cells_built());
  EXPECT_EQ(loaded.quantized(), built.quantized());
  for (size_t i = 0; i < built.size(); i += 97) {
    EXPECT_EQ(loaded.KeyOf(i), built.KeyOf(i));
  }
  const auto queries = ClusteredCorpus(10, 12, 10, 55);
  EXPECT_EQ(SearchAllBytes(loaded, queries, 5),
            SearchAllBytes(built, queries, 5));
  std::remove(path.c_str());
}

TEST(SimIndexSegmentTest, CorruptSegmentsAreRejectedWithoutDamage) {
  const auto rows = ClusteredCorpus(500, 8, 6, 29);
  SimIndex::Options options;
  options.num_cells = 6;
  SimIndex built = BuildIndex(rows, options);
  const std::string path = "/tmp/kgpip_embed_segments_corrupt.kgseg";
  ASSERT_TRUE(built.SaveSegments(path).ok());
  const std::string good = ReadAll(path);
  ASSERT_GT(good.size(), 200u);
  const auto queries = ClusteredCorpus(6, 8, 6, 67);
  const std::string served = SearchAllBytes(built, queries, 4);

  // Truncation: reject with kParseError; the target index is untouched
  // and keeps serving its previous contents bit for bit.
  WriteAll(path, good.substr(0, good.size() / 2));
  Status truncated = built.LoadSegments(path);
  EXPECT_EQ(truncated.code(), StatusCode::kParseError)
      << truncated.ToString();
  EXPECT_EQ(SearchAllBytes(built, queries, 4), served);

  // A flipped payload byte fails the FNV-1a checksum with byte offsets.
  std::string flipped = good;
  flipped[good.size() / 2] = static_cast<char>(flipped[good.size() / 2] ^ 0x40);
  WriteAll(path, flipped);
  SimIndex fresh(options);
  Status bitflip = fresh.LoadSegments(path);
  EXPECT_EQ(bitflip.code(), StatusCode::kParseError) << bitflip.ToString();
  EXPECT_NE(bitflip.message().find("checksum"), std::string::npos)
      << bitflip.ToString();
  EXPECT_EQ(fresh.size(), 0u);  // left unchanged, never serves corrupt data

  // An IVF file whose quantized word is zeroed (cells but no SQ8
  // segments) fails the geometry check even under a valid checksum.
  std::string payload = good.substr(good.find('\n') + 1);
  std::memset(&payload[24], 0, 8);  // after the dims, rows and cells words
  unsigned version = 0;
  ASSERT_EQ(std::sscanf(good.c_str(), "KGSEG1 %u", &version), 1);
  WriteAll(path, StrFormat("KGSEG1 %u %016llx %llu\n", version,
                           static_cast<unsigned long long>(Fnv1a64(payload)),
                           static_cast<unsigned long long>(payload.size())) +
                     payload);
  Status unquantized = fresh.LoadSegments(path);
  EXPECT_EQ(unquantized.code(), StatusCode::kParseError)
      << unquantized.ToString();
  EXPECT_NE(unquantized.message().find("quantized"), std::string::npos)
      << unquantized.ToString();
  EXPECT_EQ(fresh.size(), 0u);

  // Wrong magic and a missing file are distinct failures.
  WriteAll(path, "KGSEGX 1 0000000000000000 4\nabcd");
  EXPECT_EQ(fresh.LoadSegments(path).code(), StatusCode::kParseError);
  std::remove(path.c_str());
  EXPECT_EQ(fresh.LoadSegments(path).code(), StatusCode::kIoError);

  // The rebuild path after a rejection: re-add + Build, then serve.
  SimIndex rebuilt = BuildIndex(rows, options);
  EXPECT_EQ(SearchAllBytes(rebuilt, queries, 4), served);
}

}  // namespace
}  // namespace kgpip::embed
