// Micro-benchmarks (google-benchmark) for the hot paths of the KGpip
// substrate: CSV scanning, static analysis + filtering, content
// embedding, similarity search, generator decisions, and learner fits.
//
// Machine-readable output: google-benchmark's own --benchmark_out=PATH
// --benchmark_out_format=json for timings, plus --metrics-out=PATH (ours)
// to snapshot the obs::MetricsRegistry the benchmarked code populated.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "codegraph/analyzer.h"
#include "codegraph/corpus.h"
#include "core/kgpip.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "embed/embedder.h"
#include "embed/sim_index.h"
#include "gen/graph_generator.h"
#include "graph4ml/filter.h"
#include "graph4ml/graph4ml.h"
#include "ml/learner.h"
#include "nn/inference.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip {
namespace {

/// Thread-count axis for the parallel benchmarks: 1 (fully inline) vs the
/// machine's hardware concurrency. run_benches.sh records the pair so the
/// speedup is visible in BENCH_micro.json.
int HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Applies the benchmark's thread-count argument to the global pool and
/// labels the state. Restores the default pool in ScopedPool's dtor.
class ScopedPool {
 public:
  explicit ScopedPool(benchmark::State& state) {
    const int threads = static_cast<int>(state.range(0));
    util::ThreadPool::Configure(threads);
    state.SetLabel("threads=" + std::to_string(threads));
  }
  ~ScopedPool() { util::ThreadPool::Configure(0); }
};

DatasetSpec DefaultSpec() {
  DatasetSpec spec;
  spec.name = "micro";
  spec.rows = 300;
  spec.num_numeric = 8;
  spec.num_categorical = 2;
  return spec;
}

void BM_CsvRoundTrip(benchmark::State& state) {
  Table table = GenerateDataset(DefaultSpec());
  std::string text = WriteCsvText(table);
  for (auto _ : state) {
    auto parsed = ReadCsvText(text, CsvOptions{});
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_CsvRoundTrip);

void BM_StaticAnalysis(benchmark::State& state) {
  codegraph::CorpusGenerator corpus(codegraph::CorpusOptions{});
  auto scripts = corpus.GenerateForDataset(DefaultSpec());
  size_t i = 0;
  for (auto _ : state) {
    const auto& script = scripts[i++ % scripts.size()];
    auto graph = codegraph::AnalyzeScript(script.name, script.text);
    benchmark::DoNotOptimize(graph.ok());
  }
}
BENCHMARK(BM_StaticAnalysis);

void BM_GraphFiltering(benchmark::State& state) {
  codegraph::CorpusGenerator corpus(codegraph::CorpusOptions{});
  auto scripts = corpus.GenerateForDataset(DefaultSpec());
  std::vector<codegraph::CodeGraph> graphs;
  for (const auto& script : scripts) {
    auto graph = codegraph::AnalyzeScript(script.name, script.text);
    if (graph.ok()) graphs.push_back(std::move(*graph));
  }
  size_t i = 0;
  for (auto _ : state) {
    auto pipeline =
        graph4ml::FilterCodeGraph(graphs[i++ % graphs.size()], "micro");
    benchmark::DoNotOptimize(pipeline.valid());
  }
}
BENCHMARK(BM_GraphFiltering);

void BM_TableEmbedding(benchmark::State& state) {
  Table table = GenerateDataset(DefaultSpec());
  embed::TableEmbedder embedder;
  for (auto _ : state) {
    auto v = embedder.Embed(table);
    benchmark::DoNotOptimize(v[0]);
  }
}
BENCHMARK(BM_TableEmbedding);

void BM_SimIndexSearch(benchmark::State& state) {
  embed::SimIndex index;
  Rng rng(1);
  std::vector<double> query(embed::TableEmbedder::kDims);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> v(embed::TableEmbedder::kDims);
    for (double& x : v) x = rng.Normal();
    index.Add(StrFormat("d%d", i), v);
  }
  for (double& x : query) x = rng.Normal();
  for (auto _ : state) {
    auto hits = index.Search(query, 5);
    benchmark::DoNotOptimize(hits.ok());
  }
}
BENCHMARK(BM_SimIndexSearch);

void BM_GenGenerate(benchmark::State& state) {
  // Tape (range(0) == 1) vs tape-free (range(0) == 0) decode at a given
  // generation cap; the pair quantifies the tape-free decoder's speedup
  // recorded in BENCH_gen.json.
  gen::GeneratorConfig config;
  config.vocab_size = graph4ml::PipelineVocab::Get().size();
  config.hidden = 32;
  config.max_nodes = static_cast<int>(state.range(1));
  gen::GraphGenerator generator(config, 7);
  graph4ml::TypedGraph seed;
  seed.node_types = {0, 1};
  seed.edges = {{0, 1}};
  const bool tape = state.range(0) != 0;
  Rng rng(3);
  for (auto _ : state) {
    auto g = tape ? generator.GenerateTape(seed, {}, &rng, 0.9)
                  : generator.Generate(seed, {}, &rng, 0.9);
    benchmark::DoNotOptimize(g.graph.num_nodes());
  }
  state.SetLabel(std::string(tape ? "tape" : "tape_free") +
                 " max_nodes=" + std::to_string(config.max_nodes));
}
BENCHMARK(BM_GenGenerate)
    ->Args({0, 12})
    ->Args({1, 12})
    ->Args({0, 30})
    ->Args({1, 30});

void BM_GenGenerateTopK(benchmark::State& state) {
  // Batched candidate generation over the pool (one multi-lane decoder
  // per pool lane).
  ScopedPool pool(state);
  gen::GeneratorConfig config;
  config.vocab_size = graph4ml::PipelineVocab::Get().size();
  config.hidden = 32;
  config.max_nodes = 30;
  gen::GraphGenerator generator(config, 7);
  graph4ml::TypedGraph seed;
  seed.node_types = {0, 1};
  seed.edges = {{0, 1}};
  Rng rng(3);
  for (auto _ : state) {
    auto batch = generator.GenerateTopK(seed, {}, 8, &rng, 0.9);
    benchmark::DoNotOptimize(batch.size());
  }
}
BENCHMARK(BM_GenGenerateTopK)->Arg(1)->Arg(HardwareThreads());

// Synthetic training corpus shaped like the mined one: a dataset and a
// read_csv seed node, one to three preprocessors and an estimator in a
// chain, conditioned on a 60-dimensional dataset embedding.
std::vector<gen::GraphExample> TrainingCorpus(size_t count) {
  const graph4ml::PipelineVocab& vocab = graph4ml::PipelineVocab::Get();
  const char* preprocessors[] = {"standard_scaler", "minmax_scaler",
                                 "simple_imputer",  "one_hot_encoder",
                                 "pca",             "select_k_best"};
  const char* estimators[] = {"logistic_regression", "random_forest",
                              "xgboost",             "lgbm",
                              "knn",                 "decision_tree"};
  Rng rng(17);
  std::vector<gen::GraphExample> examples(count);
  for (gen::GraphExample& e : examples) {
    e.graph.node_types = {graph4ml::PipelineVocab::kDatasetType,
                          graph4ml::PipelineVocab::kReadCsvType};
    const uint64_t steps = 1 + rng.UniformInt(uint64_t{3});
    for (uint64_t s = 0; s < steps; ++s) {
      e.graph.node_types.push_back(
          vocab.TypeOf(preprocessors[rng.UniformInt(uint64_t{6})]));
    }
    e.graph.node_types.push_back(
        vocab.TypeOf(estimators[rng.UniformInt(uint64_t{6})]));
    for (int i = 1; i < static_cast<int>(e.graph.node_types.size()); ++i) {
      e.graph.edges.emplace_back(i - 1, i);
    }
    e.condition.resize(embed::TableEmbedder::kDims);
    for (double& v : e.condition) v = rng.Normal();
    e.given_nodes = 2;
  }
  return examples;
}

void BM_GenTrainEpoch(benchmark::State& state) {
  // One generator training epoch over 64 examples (tape forward,
  // Backward, Adam) at the default Kgpip generator shape. range(0) is
  // the batch size, range(1) the pool's thread count.
  const int threads = static_cast<int>(state.range(1));
  util::ThreadPool::Configure(threads);
  gen::GeneratorConfig config;
  config.vocab_size = graph4ml::PipelineVocab::Get().size();
  config.hidden = 32;
  config.condition_dims = static_cast<int>(embed::TableEmbedder::kDims);
  config.batch_size = static_cast<int>(state.range(0));
  gen::GraphGenerator generator(config, 7);
  const std::vector<gen::GraphExample> examples = TrainingCorpus(64);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.TrainEpoch(examples, &rng));
  }
  util::ThreadPool::Configure(0);
  state.SetLabel("batch=" + std::to_string(config.batch_size) +
                 " threads=" + std::to_string(threads));
}
BENCHMARK(BM_GenTrainEpoch)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({1, HardwareThreads()})
    ->Args({4, HardwareThreads()})
    ->Unit(benchmark::kMillisecond);

void BM_LearnerFit(benchmark::State& state) {
  // One fit per iteration. Indices 0-3 are the original set; 4-8 cover
  // every tree ensemble, the last one on a 4-class task (one score tree
  // per class per boosting round).
  struct Case {
    const char* learner;
    int num_classes;
  };
  static const Case kCases[] = {
      {"logistic_regression", 2}, {"decision_tree", 2},
      {"xgboost", 2},             {"knn", 2},
      {"lgbm", 2},                {"gradient_boosting", 2},
      {"random_forest", 2},       {"extra_trees", 2},
      {"xgboost", 4}};
  const Case& c = kCases[state.range(0)];
  DatasetSpec spec = DefaultSpec();
  if (c.num_classes > 2) {
    spec.task = TaskType::kMultiClassification;
    spec.num_classes = c.num_classes;
  }
  Table table = GenerateDataset(spec);
  ml::Featurizer featurizer;
  featurizer.Fit(table, spec.task);
  auto data = featurizer.Transform(table);
  for (auto _ : state) {
    auto model =
        ml::CreateLearner(c.learner, spec.task, ml::HyperParams{}, 1);
    benchmark::DoNotOptimize(model.value()->Fit(*data).ok());
  }
  state.SetLabel(c.num_classes > 2
                     ? std::string(c.learner) + " classes=" +
                           std::to_string(c.num_classes)
                     : std::string(c.learner));
}
BENCHMARK(BM_LearnerFit)->DenseRange(0, 8);

void BM_MatMul(benchmark::State& state) {
  // Exercises the dispatched GEMM micro-kernel across MxK * KxN. The
  // square points are the generator-forward-pass shapes (tall
  // activations x weight panel); the ragged points (odd M/N/K, N below
  // one vector width) hit the masked-tail columns and partial register
  // panels, which the aligned shapes never touch.
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  const size_t k = static_cast<size_t>(state.range(2));
  Rng rng(2);
  nn::Matrix a = nn::Matrix::Randn(m, k, &rng);
  nn::Matrix b = nn::Matrix::Randn(k, n, &rng);
  for (auto _ : state) {
    nn::Matrix c = nn::Matrix::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * m * n * k));
}
BENCHMARK(BM_MatMul)
    ->Args({64, 64, 64})
    ->Args({128, 128, 128})
    ->Args({256, 256, 256})
    // Ragged: odd everything (every column is a masked tail at width 8).
    ->Args({33, 31, 33})
    // Tail-only panel: N smaller than one vector register.
    ->Args({64, 3, 64})
    // Odd K with a 2-vector-wide N and a lone trailing row block.
    ->Args({5, 16, 17});

void BM_FusedLinear(benchmark::State& state) {
  // The serve-path fused affine+activation kernel (GEMM + bias
  // broadcast + squash in one pass) at batched-decode shapes: range(0)
  // rows of a range(1)-wide state through a range(1) x range(2) panel.
  // The odd-width points keep the activation tail loop hot.
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t in = static_cast<size_t>(state.range(1));
  const size_t out_cols = static_cast<size_t>(state.range(2));
  Rng rng(3);
  nn::Matrix x = nn::Matrix::Randn(rows, in, &rng);
  nn::Matrix w = nn::Matrix::Randn(in, out_cols, &rng);
  nn::Matrix b = nn::Matrix::Randn(1, out_cols, &rng);
  nn::Matrix out;
  for (auto _ : state) {
    nn::FusedLinear(x, w, b, nn::Activation::kTanh, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * rows * in * out_cols));
}
BENCHMARK(BM_FusedLinear)
    ->Args({64, 32, 96})    // one group's GRU x-gate panel
    ->Args({240, 32, 96})   // stacked multi-lane panel (30 nodes x 8 lanes)
    ->Args({33, 31, 17})    // ragged: masked tails everywhere
    ->Args({7, 24, 1});     // decision-head shape (scores column)

void BM_ParallelForDispatch(benchmark::State& state) {
  // Pure dispatch overhead: a loop whose body is nearly free measures
  // what the pool costs per ParallelFor call at each thread count.
  ScopedPool pool(state);
  std::vector<double> out(256, 0.0);
  for (auto _ : state) {
    util::ThreadPool::Global().ParallelFor(out.size(), [&](size_t i) {
      out[i] = static_cast<double>(i);
    });
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(HardwareThreads());

void BM_CorpusAnalysisFanout(benchmark::State& state) {
  // The mining hot path end-to-end: per-script static analysis + filter
  // across a whole corpus, fanned out by Graph4Ml::Build.
  ScopedPool pool(state);
  codegraph::CorpusGenerator corpus(codegraph::CorpusOptions{});
  std::vector<DatasetSpec> specs;
  for (int d = 0; d < 8; ++d) {
    DatasetSpec spec = DefaultSpec();
    spec.name = "micro_" + std::to_string(d);
    specs.push_back(spec);
  }
  auto scripts = corpus.GenerateCorpus(specs);
  for (auto _ : state) {
    graph4ml::Graph4Ml store;
    benchmark::DoNotOptimize(store.Build(scripts).ok());
  }
}
BENCHMARK(BM_CorpusAnalysisFanout)->Arg(1)->Arg(HardwareThreads());

void BM_ForestFit(benchmark::State& state) {
  // Per-tree parallel forest training with forked RNG streams.
  ScopedPool pool(state);
  DatasetSpec spec = DefaultSpec();
  spec.rows = 600;
  Table table = GenerateDataset(spec);
  ml::Featurizer featurizer;
  featurizer.Fit(table, spec.task);
  auto data = featurizer.Transform(table);
  ml::HyperParams params;
  params.SetNum("n_estimators", 40);
  for (auto _ : state) {
    auto model =
        ml::CreateLearner("random_forest", spec.task, params, 1);
    benchmark::DoNotOptimize(model.value()->Fit(*data).ok());
  }
}
BENCHMARK(BM_ForestFit)->Arg(1)->Arg(HardwareThreads());

}  // namespace
}  // namespace kgpip

int main(int argc, char** argv) {
  // Peel off --metrics-out before google-benchmark sees (and rejects) it.
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
