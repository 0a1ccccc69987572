// Similarity-index scaling benches (google-benchmark): the exact flat
// scan's search and build at N in {1k, 10k, 100k} rows of 32-dim
// clustered vectors. The checked-in baseline
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
// the regime embedded-table corpora live in. Cached per N — the 100k
// corpus is ~25 MB and feeds both benchmarks.
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

embed::SimIndex BuildIndex(const Corpus& corpus) {
  embed::SimIndex index;
  for (size_t i = 0; i < corpus.rows.size(); ++i) {
    index.Add(StrFormat("r%zu", i), corpus.rows[i]);
  }
  return index;
}

// Search benches share one index per N, built once outside the timing.
const embed::SimIndex& GetIndex(size_t n) {
  static auto* cache = new std::map<size_t, embed::SimIndex>();
  auto it = cache->find(n);
  if (it != cache->end()) return it->second;
  return cache->emplace(n, BuildIndex(GetCorpus(n))).first->second;
}

void BM_SimIndexSearchFlat(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Corpus& corpus = GetCorpus(n);
  const embed::SimIndex& index = GetIndex(n);
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

void BM_SimIndexBuildFlat(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Corpus& corpus = GetCorpus(n);
  for (auto _ : state) {
    embed::SimIndex index = BuildIndex(corpus);
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

}  // namespace
}  // namespace kgpip

int main(int argc, char** argv) {
  // Peel off --metrics-out before google-benchmark sees (and rejects)
  // it: a snapshot of the embed.index* metrics the run drove.
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
