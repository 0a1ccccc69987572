// Similarity-index scaling benches (google-benchmark): flat exact scan
// vs IVF-SQ8 at N in {1k, 10k, 100k} rows of 32-dim clustered vectors —
// the axis the two-level index exists for. Search benches pair each
// timing with a recall_at_10 counter measured against the exact flat
// scan on the same corpus, so BENCH_embed.json records the
// speedup-at-quality claim (IVF-SQ8 at 100k: >= 5x over flat at
// recall@10 >= 0.95), and the checked-in baseline
// (bench/baselines/BENCH_embed.baseline.json) gates regressions via
// bench/compare_bench.py in run_benches.sh and CI.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "embed/sim_index.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace kgpip {
namespace {

constexpr size_t kDims = 32;
constexpr size_t kQueries = 24;

struct Corpus {
  std::vector<std::vector<double>> rows;
  std::vector<std::vector<double>> queries;
};

// Clustered corpus (sqrt(N) well-separated directions, small spread):
// the regime embedded-table corpora live in and the one the coarse
// quantizer is built for. Cached per N — the 100k corpus is ~25 MB and
// feeds four benchmarks.
const Corpus& GetCorpus(size_t n) {
  static auto* cache = new std::map<size_t, Corpus>();
  auto it = cache->find(n);
  if (it != cache->end()) return it->second;
  Rng rng(n);
  const size_t clusters = static_cast<size_t>(std::lround(std::sqrt(
      static_cast<double>(n))));
  std::vector<std::vector<double>> centers(clusters);
  for (auto& c : centers) {
    c.resize(kDims);
    for (double& x : c) x = rng.Normal() * 4.0;
  }
  Corpus corpus;
  corpus.rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> v = centers[i % clusters];
    for (double& x : v) x += rng.Normal() * 0.3;
    corpus.rows.push_back(std::move(v));
  }
  for (size_t q = 0; q < kQueries; ++q) {
    std::vector<double> v = centers[q % clusters];
    for (double& x : v) x += rng.Normal() * 0.3;
    corpus.queries.push_back(std::move(v));
  }
  return (*cache)[n] = std::move(corpus);
}

embed::SimIndex::Options IvfOptions(size_t n) {
  embed::SimIndex::Options options;
  options.num_cells = static_cast<int>(std::lround(std::sqrt(
      static_cast<double>(n))));
  options.num_probes = 8;
  options.rerank_k = 64;
  return options;
}

embed::SimIndex BuildIndex(const Corpus& corpus,
                           const embed::SimIndex::Options& options) {
  embed::SimIndex index(options);
  for (size_t i = 0; i < corpus.rows.size(); ++i) {
    index.Add(StrFormat("r%zu", i), corpus.rows[i]);
  }
  index.Build();
  return index;
}

// Search benches share one built index per (N, mode): the 100k IVF
// build is seconds of k-means and should not be re-paid per timing run.
const embed::SimIndex& GetIndex(size_t n, bool ivf) {
  static auto* cache = new std::map<std::pair<size_t, bool>, embed::SimIndex>();
  const std::pair<size_t, bool> key{n, ivf};
  auto it = cache->find(key);
  if (it != cache->end()) return it->second;
  const Corpus& corpus = GetCorpus(n);
  embed::SimIndex index = BuildIndex(
      corpus, ivf ? IvfOptions(n) : embed::SimIndex::Options{});
  return cache->emplace(key, std::move(index)).first->second;
}

double RecallAt10(const embed::SimIndex& approx, const embed::SimIndex& exact,
                  const std::vector<std::vector<double>>& queries) {
  size_t hit = 0;
  size_t total = 0;
  for (const auto& q : queries) {
    auto truth = exact.Search(q, 10);
    auto got = approx.Search(q, 10);
    if (!truth.ok() || !got.ok()) return 0.0;
    for (const auto& g : *got) {
      for (const auto& t : *truth) {
        if (g.key == t.key) {
          ++hit;
          break;
        }
      }
    }
    total += truth->size();
  }
  return total == 0 ? 0.0 : static_cast<double>(hit) /
                                static_cast<double>(total);
}

void BM_SimIndexSearchFlat(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Corpus& corpus = GetCorpus(n);
  const embed::SimIndex& index = GetIndex(n, false);
  size_t qi = 0;
  for (auto _ : state) {
    auto hits = index.Search(corpus.queries[qi++ % corpus.queries.size()], 10);
    benchmark::DoNotOptimize(hits.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimIndexSearchFlat)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_SimIndexSearchIvfSq8(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Corpus& corpus = GetCorpus(n);
  const embed::SimIndex& index = GetIndex(n, true);
  size_t qi = 0;
  for (auto _ : state) {
    auto hits = index.Search(corpus.queries[qi++ % corpus.queries.size()], 10);
    benchmark::DoNotOptimize(hits.ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
  // The quality half of the speedup claim, next to the timing it
  // qualifies. Measured once per run against the exact flat scan.
  state.counters["recall_at_10"] =
      RecallAt10(index, GetIndex(n, false), corpus.queries);
}
BENCHMARK(BM_SimIndexSearchIvfSq8)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_SimIndexBuildFlat(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Corpus& corpus = GetCorpus(n);
  for (auto _ : state) {
    embed::SimIndex index = BuildIndex(corpus, embed::SimIndex::Options{});
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimIndexBuildFlat)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_SimIndexBuildIvfSq8(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Corpus& corpus = GetCorpus(n);
  for (auto _ : state) {
    embed::SimIndex index = BuildIndex(corpus, IvfOptions(n));
    benchmark::DoNotOptimize(index.num_cells_built());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SimIndexBuildIvfSq8)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kgpip

int main(int argc, char** argv) {
  // Peel off --metrics-out before google-benchmark sees (and rejects)
  // it: a snapshot of the embed.index.* counters/gauges the run drove.
  std::string metrics_out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_out.empty()) {
    kgpip::Status written =
        kgpip::obs::MetricsRegistry::Global().WriteJsonFile(metrics_out);
    if (!written.ok()) {
      std::fprintf(stderr, "WARNING: %s\n", written.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
