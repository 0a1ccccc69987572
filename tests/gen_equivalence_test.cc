// Equivalence suite for the tape-free decoder: every path the serve-time
// decoder takes must be byte-identical to the autograd tape reference,
// deterministic across thread counts, safe under concurrent callers, and
// allocation-free in steady state.

#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/graph_generator.h"
#include "graph4ml/graph4ml.h"
#include "nn/simd_kernels.h"
#include "obs/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip::gen {
namespace {

using graph4ml::PipelineVocab;
using graph4ml::TypedGraph;

GeneratorConfig SmallConfig() {
  GeneratorConfig config;
  config.vocab_size = PipelineVocab::Get().size();
  config.hidden = 24;
  config.prop_rounds = 2;
  config.max_nodes = 8;
  config.condition_dims = 2;
  config.learning_rate = 5e-3;
  return config;
}

std::vector<GraphExample> TwoModeExamples(int copies) {
  const PipelineVocab& vocab = PipelineVocab::Get();
  const int scaler = vocab.TypeOf("standard_scaler");
  const int logreg = vocab.TypeOf("logistic_regression");
  const int xgb = vocab.TypeOf("xgboost");
  std::vector<GraphExample> examples;
  for (int c = 0; c < copies; ++c) {
    GraphExample a;
    a.graph.node_types = {PipelineVocab::kDatasetType,
                          PipelineVocab::kReadCsvType, scaler, logreg};
    a.graph.edges = {{0, 1}, {1, 2}, {2, 3}};
    a.condition = {1.0, 0.0};
    a.given_nodes = 2;
    examples.push_back(a);

    GraphExample b;
    b.graph.node_types = {PipelineVocab::kDatasetType,
                          PipelineVocab::kReadCsvType, xgb};
    b.graph.edges = {{0, 1}, {1, 2}};
    b.condition = {0.0, 1.0};
    b.given_nodes = 2;
    examples.push_back(b);
  }
  return examples;
}

TypedGraph SeedGraph() {
  TypedGraph seed;
  seed.node_types = {PipelineVocab::kDatasetType,
                     PipelineVocab::kReadCsvType};
  seed.edges = {{0, 1}};
  return seed;
}

void ExpectSameGenerated(const GeneratedGraph& a, const GeneratedGraph& b) {
  EXPECT_EQ(a.graph.node_types, b.graph.node_types);
  EXPECT_EQ(a.graph.edges, b.graph.edges);
  EXPECT_EQ(a.log_prob, b.log_prob);  // exact, not approximate
}

TEST(GenEquivalenceTest, TapeFreeDecodeIsByteIdenticalToTape) {
  // Seeds of one node (the raw-graph decode of bench_table3), two and
  // three nodes; conditions empty, shorter than and as long as
  // condition_dims (2).
  TypedGraph one_node;
  one_node.node_types = {PipelineVocab::kDatasetType};
  TypedGraph three_nodes = SeedGraph();
  three_nodes.node_types.push_back(
      PipelineVocab::Get().TypeOf("standard_scaler"));
  three_nodes.edges.emplace_back(1, 2);
  const std::vector<TypedGraph> seeds = {one_node, SeedGraph(), three_nodes};
  const std::vector<std::vector<double>> conditions = {{}, {1.0}, {1.0, 0.0}};
  // hidden 18 is ragged against both vector widths.
  for (int hidden : {24, 18}) {
    GeneratorConfig config = SmallConfig();
    config.hidden = hidden;
    GraphGenerator generator(config, 7);
    // A few epochs so the weights are trained, not just Xavier noise.
    auto examples = TwoModeExamples(2);
    Rng train_rng(1);
    for (int epoch = 0; epoch < 3; ++epoch) {
      generator.TrainEpoch(examples, &train_rng);
    }
    for (const TypedGraph& seed : seeds) {
      for (const std::vector<double>& condition : conditions) {
        // Greedy, tempered-below-1, exactly-1, and tempered-above-1 all
        // take different sampling code paths; every one must agree
        // bit-for-bit.
        for (double temperature : {0.0, 0.7, 1.0, 1.5}) {
          for (uint64_t s = 0; s < 8; ++s) {
            SCOPED_TRACE(testing::Message()
                         << "hidden=" << hidden
                         << " seed_nodes=" << seed.node_types.size()
                         << " condition=" << condition.size()
                         << " t=" << temperature << " s=" << s);
            Rng fast_rng(s * 13 + 5);
            Rng tape_rng(s * 13 + 5);
            GeneratedGraph fast =
                generator.Generate(seed, condition, &fast_rng, temperature);
            GeneratedGraph tape = generator.GenerateTape(
                seed, condition, &tape_rng, temperature);
            ExpectSameGenerated(fast, tape);
            // Both paths must consume the same number of RNG draws, or
            // later callers sharing the stream would silently diverge.
            EXPECT_EQ(fast_rng.Next(), tape_rng.Next())
                << "RNG consumption diverged";
          }
        }
      }
    }
  }
}

TEST(GenEquivalenceTest, GenerateTopKIsDeterministicAcrossThreadCounts) {
  GeneratorConfig config = SmallConfig();
  const TypedGraph seed = SeedGraph();
  const std::vector<double> condition = {1.0, 0.0};
  const size_t k = 9;
  auto decode_with = [&](int threads) {
    util::ThreadPool::Configure(threads);
    GraphGenerator generator(config, 7);
    Rng rng(42);
    return generator.GenerateTopK(seed, condition, k, &rng,
                                  /*temperature=*/0.9);
  };
  std::vector<GeneratedGraph> t1 = decode_with(1);
  std::vector<GeneratedGraph> t2 = decode_with(2);
  std::vector<GeneratedGraph> t4 = decode_with(4);
  util::ThreadPool::Configure(0);
  ASSERT_EQ(t1.size(), k);
  ASSERT_EQ(t2.size(), k);
  ASSERT_EQ(t4.size(), k);
  for (size_t i = 0; i < k; ++i) {
    ExpectSameGenerated(t1[i], t2[i]);
    ExpectSameGenerated(t1[i], t4[i]);
  }
  // And the candidates are genuine decodes: seed prefix preserved.
  for (const GeneratedGraph& g : t1) {
    ASSERT_GE(g.graph.node_types.size(), seed.node_types.size());
    EXPECT_EQ(g.graph.node_types[0], seed.node_types[0]);
    EXPECT_EQ(g.graph.node_types[1], seed.node_types[1]);
  }
}

// Generate and GenerateTopK check decoders of different lane capacities
// out of one free list. Four outside threads mixing both calls on one
// generator (over a two-lane pool) must each get what a serial run gets.
TEST(GenEquivalenceTest, ConcurrentDecodesOnOneGeneratorMatchSerialRuns) {
  util::ThreadPool::Configure(2);
  const TypedGraph seed = SeedGraph();
  const std::vector<double> condition = {1.0, 0.0};
  constexpr int kThreads = 4;
  auto run = [&](const GraphGenerator& generator, int thread,
                 std::vector<GeneratedGraph>* out) {
    Rng rng(100 + static_cast<uint64_t>(thread));
    for (int round = 0; round < 6; ++round) {
      if ((round + thread) % 2 == 0) {
        out->push_back(generator.Generate(seed, condition, &rng, 0.9));
        continue;
      }
      for (GeneratedGraph& g :
           generator.GenerateTopK(seed, condition, 5, &rng, 0.9)) {
        out->push_back(std::move(g));
      }
    }
  };
  GraphGenerator serial_generator(SmallConfig(), 7);
  std::vector<std::vector<GeneratedGraph>> serial(kThreads);
  for (int t = 0; t < kThreads; ++t) run(serial_generator, t, &serial[t]);

  GraphGenerator shared(SmallConfig(), 7);
  std::vector<std::vector<GeneratedGraph>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { run(shared, t, &concurrent[t]); });
  }
  for (std::thread& thread : threads) thread.join();
  util::ThreadPool::Configure(0);

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(concurrent[t].size(), serial[t].size()) << "thread " << t;
    for (size_t i = 0; i < serial[t].size(); ++i) {
      SCOPED_TRACE(testing::Message() << "thread " << t << " result " << i);
      ExpectSameGenerated(concurrent[t][i], serial[t][i]);
    }
  }
}

TEST(GenEquivalenceTest, SteadyStateDecodeAllocatesNothing) {
  GraphGenerator generator(SmallConfig(), 7);
  const TypedGraph seed = SeedGraph();
  const std::vector<double> condition = {1.0, 0.0};
  obs::Counter* allocs =
      obs::MetricsRegistry::Global().GetCounter("gen.generate_allocs");
  Rng rng(3);
  // Cold decode: the constructor pre-sizes the arena for max_nodes, so
  // even the first decode should not grow any buffer.
  generator.Generate(seed, condition, &rng, 0.9);
  const int64_t after_cold = allocs->value();
  for (int i = 0; i < 5; ++i) {
    generator.Generate(seed, condition, &rng, 0.9);
  }
  EXPECT_EQ(allocs->value(), after_cold)
      << "warm decodes grew workspace buffers";
}

TEST(GenEquivalenceTest, CrossCheckModeVerifiesEveryDecode) {
  GeneratorConfig config = SmallConfig();
  config.cross_check = true;
  GraphGenerator generator(config, 7);
  const TypedGraph seed = SeedGraph();
  const std::vector<double> condition = {1.0, 0.0};
  // KGPIP_CHECK aborts on divergence, so surviving the calls *is* the
  // assertion; run both greedy and sampled paths.
  Rng rng(17);
  GeneratedGraph greedy = generator.Generate(seed, condition, &rng, 0.0);
  GeneratedGraph sampled = generator.Generate(seed, condition, &rng, 1.0);
  EXPECT_FALSE(greedy.graph.node_types.empty());
  EXPECT_FALSE(sampled.graph.node_types.empty());
}

// Training corpus for the pinned-weights tests. Seven examples, so a
// batch of four ends in a partial batch of three; seeds of one, two and
// three given nodes; a node with two incoming edges and one reached
// only through a (later, earlier) edge; an empty, a short and a full
// condition.
std::vector<GraphExample> DigestExamples() {
  const PipelineVocab& vocab = PipelineVocab::Get();
  std::vector<GraphExample> examples = TwoModeExamples(2);
  GraphExample dag;
  dag.graph.node_types = {PipelineVocab::kDatasetType,
                          PipelineVocab::kReadCsvType,
                          vocab.TypeOf("simple_imputer"),
                          vocab.TypeOf("standard_scaler"),
                          vocab.TypeOf("xgboost")};
  dag.graph.edges = {{0, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 4}};
  dag.condition = {0.5, -1.0, 2.0};
  dag.given_nodes = 1;
  examples.push_back(dag);
  GraphExample stop;
  stop.graph.node_types = {PipelineVocab::kDatasetType,
                           PipelineVocab::kReadCsvType};
  stop.graph.edges = {{0, 1}};
  stop.given_nodes = 2;
  examples.push_back(stop);
  GraphExample reversed;
  reversed.graph.node_types = {PipelineVocab::kDatasetType,
                               PipelineVocab::kReadCsvType,
                               vocab.TypeOf("one_hot_encoder"),
                               vocab.TypeOf("pca"),
                               vocab.TypeOf("random_forest")};
  reversed.graph.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 1}};
  reversed.condition = {1.0};
  reversed.given_nodes = 3;
  examples.push_back(reversed);
  return examples;
}

GeneratorConfig DigestConfig(int batch_size) {
  GeneratorConfig config = SmallConfig();
  config.hidden = 18;  // ragged against both vector widths
  config.condition_dims = 3;
  config.batch_size = batch_size;
  return config;
}

// FNV-1a of the serialized model (config and every weight at %.17g)
// after three epochs on DigestExamples.
uint64_t TrainedWeightsDigest(int batch_size) {
  GraphGenerator generator(DigestConfig(batch_size), 11);
  const std::vector<GraphExample> examples = DigestExamples();
  Rng rng(5);
  for (int epoch = 0; epoch < 3; ++epoch) generator.TrainEpoch(examples, &rng);
  return Fnv1a64(generator.ToJson().Dump());
}

// Recorded with the scalar backward GEMMs and one tape node per op. Any
// change to the order or rounding of a gradient term moves these.
constexpr uint64_t kPinnedDigestBatch1 = 0x0a963f9b1c8be529ull;
constexpr uint64_t kPinnedDigestBatch4 = 0xae4577da1d8267b2ull;

TEST(GenTrainingTest, TrainedWeightsMatchPinnedDigestAtEveryLaneCountAndIsa) {
  std::vector<nn::simd::Isa> levels;
  for (nn::simd::Isa isa : {nn::simd::Isa::kScalar, nn::simd::Isa::kAvx2,
                            nn::simd::Isa::kAvx512}) {
    if (nn::simd::IsaSupported(isa)) levels.push_back(isa);
  }
  for (int threads : {1, 2, 4}) {
    util::ThreadPool::Configure(threads);
    for (nn::simd::Isa isa : levels) {
      nn::simd::ForceIsa(isa);
      const char* name = nn::simd::IsaName(isa);
      EXPECT_EQ(TrainedWeightsDigest(1), kPinnedDigestBatch1)
          << "batch 1, " << threads << " lanes, " << name;
      EXPECT_EQ(TrainedWeightsDigest(4), kPinnedDigestBatch4)
          << "batch 4, " << threads << " lanes, " << name;
    }
  }
  nn::simd::RefreshIsaFromEnv();
  util::ThreadPool::Configure(0);
}

// Batched training times the epoch thread's step (slot sums, clip norm
// and Adam) once per batch: 7 examples at batch 4 are two batches.
TEST(GenTrainingTest, BatchedEpochRecordsOneStepTimePerBatch) {
  obs::Histogram* steps =
      obs::MetricsRegistry::Global().GetHistogram("gen.train_step_seconds");
  GraphGenerator generator(DigestConfig(4), 11);
  const std::vector<GraphExample> examples = DigestExamples();
  ASSERT_EQ(examples.size(), 7u);
  Rng rng(5);
  const int64_t before = steps->count();
  generator.TrainEpoch(examples, &rng);
  EXPECT_EQ(steps->count() - before, 2);
}

// Every thread outside the pool that calls ParallelFor works the same
// shared submitter queue, so it can pick up chunks of a training loop
// that another outside thread submitted. Batched training must give the
// same losses and weights while such a thread keeps the pool busy.
TEST(GenTrainingTest, BatchedTrainingIgnoresConcurrentOutsideSubmitters) {
  util::ThreadPool::Configure(2);
  const std::vector<GraphExample> examples = DigestExamples();
  auto train = [&](std::vector<double>* losses) {
    GraphGenerator generator(DigestConfig(4), 11);
    Rng rng(5);
    for (int epoch = 0; epoch < 6; ++epoch) {
      losses->push_back(generator.TrainEpoch(examples, &rng));
    }
    return Fnv1a64(generator.ToJson().Dump());
  };
  std::vector<double> quiet_losses;
  const uint64_t quiet = train(&quiet_losses);

  std::atomic<bool> stop{false};
  std::thread noise([&] {
    std::vector<double> sink(256, 0.0);
    while (!stop.load(std::memory_order_relaxed)) {
      util::ThreadPool::Global().ParallelFor(256, [&](size_t i) {
        sink[i] = std::sqrt(static_cast<double>(i) + sink[i]);
      });
    }
  });
  std::vector<double> busy_losses;
  const uint64_t busy = train(&busy_losses);
  stop.store(true, std::memory_order_relaxed);
  noise.join();
  util::ThreadPool::Configure(0);

  EXPECT_EQ(busy_losses, quiet_losses);
  EXPECT_EQ(busy, quiet);
}

}  // namespace
}  // namespace kgpip::gen
