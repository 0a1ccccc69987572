#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string_view>

#include "core/kgpip.h"
#include "data/benchmark_registry.h"
#include "data/synthetic.h"
#include "embed/embedder.h"
#include "gen/graph_generator.h"
#include "graph4ml/vocab.h"
#include "hpo/optimizer.h"
#include "hpo/trial_guard.h"
#include "ml/learner.h"
#include "serve/cache.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip {
namespace {

Table MakeTable(uint64_t seed, int rows = 150) {
  DatasetSpec spec;
  spec.name = "fault_ds";
  spec.family = ConceptFamily::kLinear;
  spec.rows = rows;
  spec.seed = seed;
  return GenerateDataset(spec);
}

Result<hpo::TrialEvaluator> MakeEvaluator(const Table& table) {
  return hpo::TrialEvaluator::Create(
      table, TaskType::kBinaryClassification, 0.25, 3);
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, InactiveWithoutScope) {
  EXPECT_EQ(util::FaultInjector::Active(), nullptr);
  {
    util::ScopedFaultInjection scope(util::FaultConfig{});
    EXPECT_EQ(util::FaultInjector::Active(), &scope.injector());
  }
  EXPECT_EQ(util::FaultInjector::Active(), nullptr);
}

TEST(FaultInjectorTest, DeterministicForFixedSeed) {
  util::FaultConfig config;
  config.seed = 7;
  config.evaluator_error_rate = 0.5;
  auto draw = [&config]() {
    std::vector<bool> out;
    util::FaultInjector injector(config);
    for (int i = 0; i < 64; ++i) {
      out.push_back(injector.EvaluatorFault("learner", "group").has_value());
    }
    return out;
  };
  std::vector<bool> a = draw();
  EXPECT_EQ(a, draw());
  // A 50% rate must actually produce both outcomes.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);

  // A different seed yields a different sequence.
  config.seed = 8;
  EXPECT_NE(a, draw());
}

TEST(FaultInjectorTest, AlwaysFailLearnersAlwaysFail) {
  util::FaultConfig config;
  config.fail_learners = {"knn"};
  util::FaultInjector injector(config);
  for (int i = 0; i < 8; ++i) {
    auto fault = injector.EvaluatorFault("knn", "knn|scaler");
    ASSERT_TRUE(fault.has_value());
    EXPECT_EQ(fault->code(), StatusCode::kInternal);
  }
  EXPECT_FALSE(injector.EvaluatorFault("ridge", "knn").has_value());
}

TEST(FaultInjectorTest, CorruptsArtifactBytes) {
  util::FaultConfig config;
  config.corrupt_byte_stride = 4;
  util::FaultInjector injector(config);
  std::string payload(16, 'a');
  std::string original = payload;
  injector.CorruptArtifact(&payload);
  EXPECT_NE(payload, original);
  EXPECT_EQ(injector.counters().corrupted_bytes, 4);
}

TEST(FaultInjectorTest, ScopeIsVisibleInsideThreadPoolLanes) {
  // Fault sites inside ParallelFor bodies run on pool worker threads;
  // they must observe the scope installed by the submitting thread, and
  // the shared decision state must stay coherent under that parallelism.
  util::FaultConfig config;
  config.seed = 23;
  config.nan_score_rate = 1.0;
  util::ScopedFaultInjection scope(config);

  constexpr size_t kItems = 512;
  std::atomic<int> seen_active{0};
  std::atomic<int> injected{0};
  util::ThreadPool::Global().ParallelFor(kItems, [&](size_t /*item*/) {
    util::FaultInjector* active = util::FaultInjector::Active();
    if (active == nullptr) return;
    seen_active.fetch_add(1, std::memory_order_relaxed);
    if (active->InjectNanScore("pool_lane")) {
      injected.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(seen_active.load(), static_cast<int>(kItems))
      << "a pool lane failed to observe the active injection scope";
  EXPECT_EQ(injected.load(), static_cast<int>(kItems));
  EXPECT_EQ(scope.injector().counters().nan_scores,
            static_cast<int>(kItems));
}

TEST(FaultInjectorTest, ParallelDecisionMultisetMatchesSerial) {
  // Under races only the assignment of call indices to callers may vary
  // — the multiset of decisions for a (site, key) is fixed by the seed.
  util::FaultConfig config;
  config.seed = 31;
  config.nan_score_rate = 0.5;
  constexpr size_t kItems = 256;

  int serial_hits = 0;
  {
    util::FaultInjector injector(config);
    for (size_t i = 0; i < kItems; ++i) {
      if (injector.InjectNanScore("k")) ++serial_hits;
    }
  }
  std::atomic<int> parallel_hits{0};
  {
    util::ScopedFaultInjection scope(config);
    util::ThreadPool::Global().ParallelFor(kItems, [&](size_t /*item*/) {
      if (util::FaultInjector::Active()->InjectNanScore("k")) {
        parallel_hits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_EQ(parallel_hits.load(), serial_hits);
  EXPECT_NE(serial_hits, 0);
  EXPECT_NE(serial_hits, static_cast<int>(kItems));
}

// ---------------------------------------------------------------------------
// Budget remainder distribution (satellite fix)

TEST(BudgetTest, SplitRemainingDistributesRemainder) {
  hpo::Budget budget(10, 1e9);
  // Ceiling division: the first slice carries the remainder trial
  // instead of dropping it (10 / 3 used to yield 3+3+3 = 9).
  EXPECT_EQ(budget.SplitRemaining(3).max_trials(), 4);

  // The Fit loop re-splits the remainder after each skeleton: no trial
  // is lost in total.
  int total = 0;
  for (int i = 0; i < 3; ++i) {
    hpo::Budget slice = budget.SplitRemaining(3 - i);
    while (slice.ConsumeTrial()) {
      ++total;
      budget.ConsumeTrial();
    }
  }
  EXPECT_EQ(total, 10);
}

// ---------------------------------------------------------------------------
// NaN-safe searchers (satellite fix)

TEST(NanGuardTest, CfoSearchNeverReturnsEmptyIncumbent) {
  hpo::CfoSearch search(hpo::SpaceForLearner("decision_tree"), 1);
  ml::HyperParams first = search.Propose();
  ASSERT_FALSE(first.numeric().empty() && first.strings().empty());
  search.Tell(first, std::nan(""));
  EXPECT_FALSE(search.has_best());
  // Even with only NaN scores told, the incumbent is the last-told
  // config, not an empty one.
  EXPECT_FALSE(search.best_config().numeric().empty() &&
               search.best_config().strings().empty());
  // Proposals from NaN-poisoned state still work.
  ml::HyperParams second = search.Propose();
  search.Tell(second, 0.4);
  EXPECT_TRUE(search.has_best());
  EXPECT_DOUBLE_EQ(search.best_score(), 0.4);
  // A later NaN cannot dethrone the finite best.
  search.Tell(search.Propose(), std::nan(""));
  EXPECT_DOUBLE_EQ(search.best_score(), 0.4);
  search.Tell(search.Propose(),
              std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(search.best_score(), 0.4);
}

TEST(NanGuardTest, RandomSearchNeverReturnsEmptyIncumbent) {
  hpo::RandomSearch search(hpo::SpaceForLearner("decision_tree"), 1);
  ml::HyperParams first = search.Propose();
  search.Tell(first, std::nan(""));
  EXPECT_FALSE(search.has_best());
  EXPECT_FALSE(search.best_config().numeric().empty() &&
               search.best_config().strings().empty());
  ml::HyperParams second = search.Propose();
  search.Tell(second, 0.25);
  EXPECT_DOUBLE_EQ(search.best_score(), 0.25);
  search.Tell(search.Propose(), std::nan(""));
  EXPECT_DOUBLE_EQ(search.best_score(), 0.25);
}

// ---------------------------------------------------------------------------
// TrialGuard

TEST(TrialGuardTest, QuarantinesInjectedNanScores) {
  Table table = MakeTable(3);
  auto evaluator = MakeEvaluator(table);
  ASSERT_TRUE(evaluator.ok());
  util::FaultConfig config;
  config.nan_score_rate = 1.0;
  util::ScopedFaultInjection scope(config);
  hpo::TrialGuard guard(&*evaluator);
  ml::PipelineSpec spec;
  spec.learner = "decision_tree";
  // One group per trial keeps the breaker out: isolate the quarantine path.
  for (int i = 0; i < 5; ++i) {
    hpo::GuardedTrial trial =
        guard.Evaluate(spec, 100 + i, StrFormat("g%d", i));
    EXPECT_FALSE(trial.ok());
    EXPECT_EQ(trial.failure, hpo::TrialFailure::kNanScore);
    EXPECT_EQ(trial.retries, 0);  // a NaN score is not transient
  }
  EXPECT_EQ(guard.report().quarantined_scores, 5);
  EXPECT_EQ(guard.report().failures_by_code[StatusCode::kOutOfRange], 5);
  EXPECT_EQ(guard.report().circuit_breaker_trips, 0);
}

TEST(TrialGuardTest, RetriesTransientFailures) {
  Table table = MakeTable(4);
  auto evaluator = MakeEvaluator(table);
  ASSERT_TRUE(evaluator.ok());
  util::FaultConfig config;
  config.seed = 11;
  config.resource_exhausted_rate = 0.6;
  util::ScopedFaultInjection scope(config);
  hpo::TrialGuard guard(&*evaluator);
  ml::PipelineSpec spec;
  spec.learner = "decision_tree";
  int successes = 0;
  int retries = 0;
  double backoff_units = 0.0;  // a trial's r retries back off 2^r - 1
  for (int i = 0; i < 10; ++i) {
    // One group per trial keeps the breaker out of the retry path.
    hpo::GuardedTrial trial =
        guard.Evaluate(spec, 200 + i, StrFormat("g%d", i));
    EXPECT_LE(trial.retries, hpo::TrialGuard::kMaxRetries);
    if (trial.ok()) {
      ++successes;
    } else {
      EXPECT_EQ(trial.retries, hpo::TrialGuard::kMaxRetries);
      EXPECT_EQ(trial.code, StatusCode::kResourceExhausted);
    }
    retries += trial.retries;
    backoff_units += std::ldexp(1.0, trial.retries) - 1.0;
  }
  // A 60% transient rate with kMaxRetries retries still lands most trials.
  EXPECT_GE(successes, 5);
  EXPECT_GT(retries, 0);
  EXPECT_EQ(guard.report().total_retries, retries);
  EXPECT_EQ(guard.report().circuit_breaker_trips, 0);
  EXPECT_DOUBLE_EQ(guard.report().simulated_backoff_seconds,
                   hpo::TrialGuard::kRetryBackoffSeconds * backoff_units);
}

TEST(TrialGuardTest, CircuitBreakerOpensAndRedistributes) {
  Table table = MakeTable(5);
  auto evaluator = MakeEvaluator(table);
  ASSERT_TRUE(evaluator.ok());
  util::FaultConfig config;
  config.fail_learners = {"decision_tree"};
  util::ScopedFaultInjection scope(config);
  hpo::TrialGuard guard(&*evaluator);
  ml::PipelineSpec spec;
  spec.learner = "decision_tree";
  constexpr int kThreshold = hpo::TrialGuard::kCircuitBreakerThreshold;
  for (int i = 0; i < kThreshold; ++i) {
    EXPECT_FALSE(guard.CircuitOpen("g"));
    hpo::GuardedTrial trial = guard.Evaluate(spec, 300 + i, "g");
    EXPECT_EQ(trial.failure, hpo::TrialFailure::kError);
    EXPECT_EQ(trial.code, StatusCode::kInternal);
    // kInternal is transient: each trial spends its retries first.
    EXPECT_EQ(trial.retries, hpo::TrialGuard::kMaxRetries);
  }
  EXPECT_TRUE(guard.CircuitOpen("g"));
  // Further trials are rejected without touching the evaluator.
  hpo::GuardedTrial rejected = guard.Evaluate(spec, 999, "g");
  EXPECT_EQ(rejected.failure, hpo::TrialFailure::kCircuitOpen);
  guard.NoteRedistribution("g", 5);

  const hpo::SkeletonReport* report = guard.report().Find("g");
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->abandoned);
  EXPECT_EQ(report->trials, kThreshold);  // the rejected one does not count
  EXPECT_EQ(report->failures, kThreshold);
  EXPECT_EQ(report->retries, kThreshold * hpo::TrialGuard::kMaxRetries);
  EXPECT_EQ(report->redistributed_trials, 5);
  EXPECT_EQ(guard.report().circuit_breaker_trips, 1);
  // An unrelated group is unaffected.
  EXPECT_FALSE(guard.CircuitOpen("other"));
}

TEST(TrialGuardTest, ReportJsonRoundsUpTheTaxonomy) {
  hpo::RunReport report;
  hpo::SkeletonReport* group = report.FindOrAdd("skeleton_a");
  group->trials = 4;
  group->failures = 2;
  group->abandoned = true;
  report.failures_by_code[StatusCode::kInternal] = 2;
  report.total_trials = 4;
  report.total_failures = 2;
  report.fallback_portfolio = true;
  Json json = report.ToJson();
  EXPECT_EQ(json.Get("total_trials").AsInt(), 4);
  EXPECT_TRUE(json.Get("fallback_portfolio").AsBool());
  EXPECT_EQ(json.Get("failures_by_code").Get("INTERNAL").AsInt(), 2);
  ASSERT_EQ(json.Get("skeletons").size(), 1u);
  EXPECT_TRUE(json.Get("skeletons").at(0).Get("abandoned").AsBool());
  EXPECT_FALSE(report.Summary().empty());
}

// ---------------------------------------------------------------------------
// Graceful degradation in Fit

TEST(DegradationTest, FallbackPortfolioFiltersByTask) {
  auto classification =
      core::FallbackPortfolio(TaskType::kBinaryClassification, 4);
  ASSERT_EQ(classification.size(), 4u);
  for (const auto& s : classification) {
    EXPECT_TRUE(ml::LearnerSupports(s.spec.learner,
                                    TaskType::kBinaryClassification));
  }
  auto regression = core::FallbackPortfolio(TaskType::kRegression, 100);
  ASSERT_GE(regression.size(), 3u);
  for (const auto& s : regression) {
    EXPECT_TRUE(ml::LearnerSupports(s.spec.learner, TaskType::kRegression));
  }
}

TEST(DegradationTest, UntrainedFitFallsBackToPortfolio) {
  // Skeleton prediction cannot work before Train; Fit must degrade to
  // the static portfolio instead of erroring.
  core::Kgpip fresh;
  Table table = MakeTable(9, 200);
  auto split = SplitTable(table, 0.25, 2);
  auto result = fresh.Fit(split.train, TaskType::kBinaryClassification,
                          hpo::Budget(12, 1e9), 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->report.fallback_portfolio);
  EXPECT_FALSE(result->best_spec.learner.empty());
  EXPECT_GT(result->report.total_trials, 0);
  auto score = result->fitted.ScoreTable(split.test);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(*score, 0.5);
}

// ---------------------------------------------------------------------------
// Artifact checksum (satellite fix) — header-level failures need no
// trained model.

TEST(ArtifactTest, TruncatedArtifactReportsByteOffsets) {
  const std::string path = "/tmp/kgpip_fault_truncated.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "KGPIP1 0123456789abcdef 400\n{\"store\"";
  }
  core::Kgpip kgpip;
  Status status = kgpip.LoadFile(path);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_TRUE(Contains(status.message(), "truncated"));
  EXPECT_TRUE(Contains(status.message(), "400"));
  std::remove(path.c_str());
}

TEST(ArtifactTest, ChecksumMismatchReportsByteRange) {
  const std::string path = "/tmp/kgpip_fault_checksum.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "KGPIP1 0000000000000000 2\n{}";
  }
  core::Kgpip kgpip;
  Status status = kgpip.LoadFile(path);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_TRUE(Contains(status.message(), "checksum mismatch"));
  std::remove(path.c_str());
}

TEST(ArtifactTest, HeaderlessFileIsAParseErrorNamingTheMagic) {
  const std::string path = "/tmp/kgpip_fault_headerless.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << R"({"embeddings":{},"generator":{},"store":{}})";
  }
  core::Kgpip kgpip;
  Status status = kgpip.LoadFile(path);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_TRUE(Contains(status.message(), "KGPIP1")) << status.ToString();
  EXPECT_FALSE(kgpip.trained());
  std::remove(path.c_str());
}

TEST(ArtifactTest, MalformedPayloadsFailWithAStatus) {
  // Correctly checksummed artifacts whose JSON has the wrong shape: an
  // object where an array belongs, a string inside an embedding, an
  // infinite embedding component, an empty edge pair, a node type outside
  // the vocabulary, an edge endpoint out of range, and a weight list given
  // as an object with the right member count. Each must fail LoadFile
  // with a Status; the sanitizer build checks that none of them reads out
  // of bounds on the way.
  gen::GeneratorConfig gen_config;
  gen_config.vocab_size = graph4ml::PipelineVocab::Get().size();
  gen_config.condition_dims = static_cast<int>(embed::TableEmbedder::kDims);
  Json generator = gen::GraphGenerator(gen_config, 1).ToJson();
  // Well formed but for one embedding component: 1e999 parses as a JSON
  // number (inf), which the index refuses.
  const std::string inf_embedding =
      R"({"store":{"datasets":{}},"embeddings":{"d1":[0.5,1e999]},)"
      R"("generator":)" +
      generator.Dump() + "}";
  // The smallest weight matrix, its values re-keyed into an object.
  Json weights = generator.Get("weights");
  std::string smallest;
  for (const auto& [name, entry] : weights.members()) {
    if (smallest.empty() || entry.Get("values").size() <
                                weights.Get(smallest).Get("values").size()) {
      smallest = name;
    }
  }
  Json entry = weights.Get(smallest);
  Json keyed_values = Json::Object();
  for (size_t k = 0; k < entry.Get("values").size(); ++k) {
    keyed_values.Set(StrFormat("v%zu", k), entry.Get("values").at(k));
  }
  entry.Set("values", std::move(keyed_values));
  weights.Set(smallest, std::move(entry));
  generator.Set("weights", std::move(weights));
  const std::string bad_weights =
      R"({"store":{"datasets":{}},"embeddings":{},"generator":)" +
      generator.Dump() + "}";
  const int knn = graph4ml::PipelineVocab::Get().TypeOf("knn");
  ASSERT_GE(knn, graph4ml::PipelineVocab::kFirstOp);

  struct Case {
    std::string payload;
    StatusCode code;
    std::string message;  // a substring of the status message
  };
  const std::vector<Case> cases = {
      {R"({"store":{"datasets":{}},"embeddings":{"d1":{"x":1}}})",
       StatusCode::kParseError, "'d1' is not an array"},
      {R"({"store":{"datasets":{}},"embeddings":{"d1":[0.5,"x"]}})",
       StatusCode::kParseError, "'d1' has a non-number component"},
      {inf_embedding, StatusCode::kInvalidArgument,
       "non-finite vector for key 'd1'"},
      {R"({"store":{"datasets":{"d1":{"x":1}}},"embeddings":{}})",
       StatusCode::kParseError, "pipeline without estimator"},
      // An empty pair decodes as the self-loop 0 -> 0, which the store's
      // pipeline verifier rejects.
      {R"({"store":{"datasets":{"d1":[{"estimator":"knn",)"
       R"("node_types":[0,1],"edges":[[]]}]}},"embeddings":{}})",
       StatusCode::kParseError, "'d1' is malformed: error[verify.cycle]"},
      // A node type and an edge endpoint the generator would index with.
      {R"({"store":{"datasets":{"d1":[{"estimator":"knn",)"
       R"("node_types":[0,1,9999],"edges":[[0,1],[1,2]]}]}},)"
       R"("embeddings":{}})",
       StatusCode::kParseError,
       "'d1' is malformed: error[verify.unknown-node-type]"},
      {StrFormat(R"({"store":{"datasets":{"d1":[{"estimator":"knn",)"
                 R"("node_types":[0,1,%d],"edges":[[0,1],[-1,2]]}]}},)"
                 R"("embeddings":{}})",
                 knn),
       StatusCode::kParseError,
       "'d1' is malformed: error[verify.edge-out-of-range]"},
      {bad_weights, StatusCode::kInvalidArgument,
       "value count mismatch for '" + smallest + "'"},
  };
  const std::string path = "/tmp/kgpip_fault_malformed_payload.bin";
  for (const Case& c : cases) {
    ASSERT_TRUE(util::WriteChecksummedFile(path, "KGPIP1", c.payload).ok());
    core::Kgpip kgpip;
    Status status = kgpip.LoadFile(path);
    EXPECT_EQ(status.code(), c.code) << status.ToString();
    EXPECT_TRUE(Contains(status.message(), c.message)) << status.ToString();
    EXPECT_FALSE(kgpip.trained());
  }
  std::remove(path.c_str());
}

TEST(ArtifactTest, DeeplyNestedPayloadFailsWithAParseError) {
  // Correctly checksummed, so only the JSON parser stands between these
  // 1,000,000 nested arrays and the stack.
  const size_t depth = 1000000;
  const std::string path = "/tmp/kgpip_fault_deep_payload.bin";
  ASSERT_TRUE(util::WriteChecksummedFile(
                  path, "KGPIP1",
                  std::string(depth, '[') + std::string(depth, ']'))
                  .ok());
  core::Kgpip kgpip;
  Status status = kgpip.LoadFile(path);
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_TRUE(Contains(status.message(), "nesting deeper than"))
      << status.ToString();
  EXPECT_FALSE(kgpip.trained());
  std::remove(path.c_str());
}

TEST(ArtifactTest, DeeplyNestedCacheEntryIsEvicted) {
  const std::string dir = StrFormat("/tmp/kgpip_fault_deep_cache_%d",
                                    static_cast<int>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  serve::ArtifactCache cache(serve::ArtifactCache::Options{dir, 8});
  const std::string path = cache.PathForKey("deep");
  ASSERT_TRUE(serve::ArtifactCache::WriteEntryFile(
                  path, std::string(10000, '[') + std::string(10000, ']'))
                  .ok());
  EXPECT_EQ(cache.Get("deep").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.stats().corrupt_evictions, 1);
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The checksummed envelope every saved model and cache entry is read
// through (util/file_io).

TEST(ChecksummedFileTest, MissingFileIsAnIoErrorAndWrongMagicAParseError) {
  const std::string path = "/tmp/kgpip_fault_envelope_magic.bin";
  std::remove(path.c_str());
  EXPECT_EQ(util::ReadChecksummedFile(path, "KGPIP1", "artifact")
                .status()
                .code(),
            StatusCode::kIoError);
  ASSERT_TRUE(util::WriteChecksummedFile(path, "KGCACHE1", "{}").ok());
  Status wrong = util::ReadChecksummedFile(path, "KGPIP1", "artifact").status();
  EXPECT_EQ(wrong.code(), StatusCode::kParseError);
  EXPECT_TRUE(Contains(wrong.message(), "bad magic in bytes [0, 7)"))
      << wrong.ToString();
  EXPECT_TRUE(Contains(wrong.message(), "KGPIP1")) << wrong.ToString();
  std::remove(path.c_str());
}

TEST(ChecksummedFileTest, AcceptsOnlyTheHeaderTheWriterEmits) {
  const std::string path = "/tmp/kgpip_fault_envelope_header.bin";
  const std::string payload = R"({"a":1})";
  ASSERT_TRUE(util::WriteChecksummedFile(path, "KGCACHE1", payload).ok());
  auto read = util::ReadChecksummedFile(path, "KGCACHE1", "cache entry");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->payload, payload);
  EXPECT_EQ(read->offset, 28u);
  // Near misses a lenient parser would take: uppercase hex, a 0x prefix,
  // trailing bytes, leading zeros, signs, other separators, short fields,
  // and a size past 2^64 - 1 that would wrap to 7 unchecked.
  for (const char* header : {
           "KGCACHE1 9C3E82DD6FCAE8B1 7\n",
           "KGCACHE1 0x9c3e82dd6fcae8b1 7\n",
           "KGCACHE1 9c3e82dd6fcae8b1 7 \n",
           "KGCACHE1 9c3e82dd6fcae8b1 7x\n",
           "KGCACHE1 9c3e82dd6fcae8b1 07\n",
           "KGCACHE1 9c3e82dd6fcae8b1 +7\n",
           "KGCACHE1 9c3e82dd6fcae8b1  7\n",
           "KGCACHE1 9c3e82dd6fcae8b1\t7\n",
           "KGCACHE1  9c3e82dd6fcae8b1 7\n",
           "KGCACHE1 09c3e82dd6fcae8b1 7\n",
           "KGCACHE1 c3e82dd6fcae8b1 7\n",
           "KGCACHE1 9c3e82dd6fcae8b1 \n",
           "KGCACHE1 9c3e82dd6fcae8b1\n",
           "KGCACHE1 9c3e82dd6fcae8b1 18446744073709551623\n",
       }) {
    ASSERT_TRUE(util::WriteFileAtomic(path, header + payload).ok());
    Status status =
        util::ReadChecksummedFile(path, "KGCACHE1", "cache entry").status();
    EXPECT_EQ(status.code(), StatusCode::kParseError) << header;
    EXPECT_TRUE(Contains(status.message(), "malformed header"))
        << status.ToString();
  }
  std::remove(path.c_str());
}

TEST(ChecksummedFileTest, SeededMutationsYieldTheOriginalPayloadOrAParseError) {
  // 1,000 seeded mutations of one valid file per magic: every header
  // byte flipped, every truncation up to the header plus 8 bytes, header
  // splices, and random payload byte flips. A read returns the original
  // payload only for the unmutated bytes; anything else is a kParseError.
  // Cache entries also go through ArtifactCache's reader.
  struct Envelope {
    const char* magic;
    const char* what;
    std::string payload;
  };
  Json artifact = Json::Object();
  artifact.Set("store", Json::Object());
  Json embedding = Json::Array();
  embedding.Append(Json(0.25));
  embedding.Append(Json(-1.5));
  Json embeddings = Json::Object();
  embeddings.Set("ds_3", std::move(embedding));
  artifact.Set("embeddings", std::move(embeddings));
  Json entry = Json::Object();
  entry.Set("nearest", "ds_3");
  entry.Set("score", 0.8125);
  const std::vector<Envelope> envelopes = {
      {"KGPIP1", "artifact", artifact.Dump()},
      {"KGCACHE1", "cache entry", entry.Dump()}};
  const std::vector<std::string> tokens = {
      "",   " ",  "  ", "\t", "\n", "0",  "00", "0x", "0X", "+",  "-",
      "A",  "F",  "ff", "G",  "KGPIP1 ", "KGCACHE1 ", "ffffffffffffffff",
      "18446744073709551616", "99999999999999999999"};
  const std::string path = "/tmp/kgpip_fault_envelope_mutations.bin";
  Rng rng(0x5EED);
  int reads = 0;
  for (const Envelope& envelope : envelopes) {
    ASSERT_TRUE(util::WriteChecksummedFile(path, envelope.magic,
                                           envelope.payload)
                    .ok());
    const std::string good = util::ReadFile(path).value();
    const size_t header = good.find('\n') + 1;
    ASSERT_GT(good.size(), header + 8);
    auto flip = [&rng](std::string* bytes, size_t i) {
      (*bytes)[i] = static_cast<char>((*bytes)[i] ^ (1 << rng.UniformInt(8)));
    };
    std::vector<std::string> mutants;
    for (size_t i = 0; i < header; ++i) {
      mutants.push_back(good);
      flip(&mutants.back(), i);
    }
    for (size_t n = 0; n <= header + 8; ++n) {
      mutants.push_back(good.substr(0, n));
    }
    for (int s = 0; s < 400; ++s) {
      const size_t begin = rng.UniformInt(header);
      const size_t end = begin + rng.UniformInt(header - begin + 1);
      std::string splice;
      if (rng.Bernoulli(0.5)) {
        splice = tokens[rng.UniformInt(tokens.size())];
      } else {
        const size_t n = 1 + rng.UniformInt(4);
        for (size_t b = 0; b < n; ++b) {
          splice.push_back(static_cast<char>(rng.UniformInt(256)));
        }
      }
      mutants.push_back(good.substr(0, begin) + splice + good.substr(end));
    }
    while (mutants.size() < 1000) {
      mutants.push_back(good);
      const size_t flips = 1 + rng.UniformInt(3);
      for (size_t f = 0; f < flips; ++f) {
        flip(&mutants.back(),
             header + rng.UniformInt(good.size() - header));
      }
    }
    for (const std::string& mutant : mutants) {
      ASSERT_TRUE(util::WriteFileAtomic(path, mutant).ok());
      auto read = util::ReadChecksummedFile(path, envelope.magic,
                                            envelope.what);
      if (read.ok()) {
        EXPECT_EQ(mutant, good) << "accepted a mutated file";
        EXPECT_EQ(read->payload, envelope.payload);
      } else {
        EXPECT_EQ(read.status().code(), StatusCode::kParseError)
            << read.status().ToString();
      }
      if (std::string_view(envelope.magic) == "KGCACHE1") {
        Result<Json> cached = serve::ArtifactCache::LoadEntryFile(path);
        if (cached.ok()) {
          EXPECT_EQ(mutant, good) << "served a mutated cache entry";
          EXPECT_EQ(cached->Dump(), envelope.payload);
        } else {
          EXPECT_EQ(cached.status().code(), StatusCode::kParseError)
              << cached.status().ToString();
        }
      }
      ++reads;
    }
  }
  EXPECT_GE(reads, 2000);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Skeleton searches side by side must give what searching the skeletons
// one after another gives.

struct SearchOutcome {
  std::string best_spec;
  uint64_t validation_bits = 0;
  int trials = 0;
  std::vector<std::string> learner_sequence;
  int best_skeleton_rank = 0;
  bool returned_best_so_far = false;
  std::string report;  // RunReport JSON without the stage profile
};

std::string ReportJson(hpo::RunReport report) {
  report.stage_profile = obs::StageProfile();
  return report.ToJson().Dump();
}

SearchOutcome OutcomeOf(const automl::AutoMlResult& result) {
  return {result.best_spec.ToString(),
          std::bit_cast<uint64_t>(result.validation_score),
          result.trials,
          result.learner_sequence,
          result.best_skeleton_rank,
          result.report.returned_best_so_far,
          ReportJson(result.report)};
}

/// The reference: the search phase of `Kgpip::FitWithSkeletons` as one
/// loop on one guard, each skeleton taking in turn its (T - t) / K share
/// of what the earlier ones left. Assumes some trial succeeds (no
/// last-resort pass) and every skeleton passes lint.
SearchOutcome SequentialSearch(const std::string& optimizer_name,
                               const std::vector<ml::PipelineSpec>& skeletons,
                               const Table& train, int trials,
                               uint64_t seed) {
  auto optimizer = hpo::CreateOptimizer(optimizer_name);
  KGPIP_CHECK(optimizer.ok());
  auto evaluator = hpo::TrialEvaluator::Create(
      train, TaskType::kBinaryClassification, 0.25, seed);
  KGPIP_CHECK(evaluator.ok());
  hpo::TrialGuard guard(&*evaluator);
  hpo::Budget budget(trials, 1e9);
  automl::AutoMlResult result;
  bool stopped_early = false;
  const int k = static_cast<int>(skeletons.size());
  for (int i = 0; i < k; ++i) {
    if (budget.Exhausted()) {
      stopped_early = true;
      break;
    }
    hpo::Budget slice = budget.SplitRemaining(k - i);
    hpo::OptimizeResult optimized = (*optimizer)->OptimizeSkeleton(
        skeletons[static_cast<size_t>(i)], &guard, &slice,
        seed + static_cast<uint64_t>(i) * 977);
    for (int t = 0; t < optimized.trials; ++t) budget.ConsumeTrial();
    result.trials += optimized.trials;
    for (int t = 0; t < optimized.trials; ++t) {
      result.learner_sequence.push_back(
          skeletons[static_cast<size_t>(i)].learner);
    }
    if (optimized.best_score > result.validation_score) {
      result.validation_score = optimized.best_score;
      result.best_spec = optimized.best_spec;
      result.best_skeleton_rank = i + 1;
    }
  }
  result.report = guard.TakeReport();
  result.report.returned_best_so_far = stopped_early;
  return OutcomeOf(result);
}

ml::PipelineSpec Skeleton(const std::string& learner,
                          std::vector<std::string> preprocessors = {}) {
  ml::PipelineSpec spec;
  spec.learner = learner;
  spec.preprocessors = std::move(preprocessors);
  return spec;
}

struct SearchCase {
  std::string name;
  std::vector<ml::PipelineSpec> skeletons;
  int trials = 14;
  util::FaultConfig faults;
};

std::vector<SearchCase> SearchCases() {
  const std::vector<ml::PipelineSpec> three = {
      Skeleton("decision_tree"),
      Skeleton("logistic_regression", {"standard_scaler"}),
      Skeleton("gaussian_nb")};
  std::vector<SearchCase> cases;
  cases.push_back({"14_over_3", three, 14, {}});
  cases.push_back({"10_over_3", three, 10, {}});
  cases.push_back({"2_over_3", three, 2, {}});
  SearchCase rank1{"failing_rank_1", three, 14, {}};
  rank1.faults.fail_learners = {"decision_tree"};
  cases.push_back(rank1);
  SearchCase rank2{"failing_rank_2", three, 14, {}};
  rank2.faults.fail_learners = {"logistic_regression"};
  cases.push_back(rank2);
  SearchCase repeated{"failing_repeat",
                      {Skeleton("knn"), Skeleton("decision_tree"),
                       Skeleton("knn")},
                      14,
                      {}};
  repeated.faults.fail_learners = {"knn"};
  cases.push_back(repeated);
  // Two skeletons of one learner: their draws are keyed apart.
  SearchCase mixed{"mixed_rates",
                   {Skeleton("decision_tree"),
                    Skeleton("decision_tree", {"standard_scaler"}),
                    Skeleton("logistic_regression")},
                   14,
                   {}};
  mixed.faults.seed = 5;
  mixed.faults.evaluator_error_rate = 0.3;
  mixed.faults.resource_exhausted_rate = 0.2;
  mixed.faults.nan_score_rate = 0.15;
  cases.push_back(mixed);
  return cases;
}

TEST(ParallelSearchTest, MatchesOneAfterAnotherLoop) {
  Table table = MakeTable(41, 160);
  const uint64_t seed = 23;
  for (const std::string optimizer : {"flaml", "autosklearn"}) {
    core::KgpipConfig config;
    config.optimizer = optimizer;
    const core::Kgpip host(config);  // FitWithSkeletons needs no training
    for (const SearchCase& c : SearchCases()) {
      util::ThreadPool::Configure(1);
      SearchOutcome want;
      {
        util::ScopedFaultInjection scope(c.faults);
        want = SequentialSearch(optimizer, c.skeletons, table, c.trials,
                                seed);
      }
      for (int lanes : {1, 2, 4}) {
        SCOPED_TRACE(optimizer + "/" + c.name + " at " +
                     std::to_string(lanes) + " lanes");
        util::ThreadPool::Configure(lanes);
        std::vector<gen::ScoredSkeleton> skeletons;
        for (const ml::PipelineSpec& spec : c.skeletons) {
          skeletons.push_back({spec, 0.0});
        }
        util::ScopedFaultInjection scope(c.faults);
        auto fitted = host.FitWithSkeletons(
            std::move(skeletons), table, TaskType::kBinaryClassification,
            hpo::Budget(c.trials, 1e9), seed);
        ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
        EXPECT_FALSE(fitted->report.last_resort_pass);
        const SearchOutcome got = OutcomeOf(*fitted);
        EXPECT_EQ(got.best_spec, want.best_spec);
        EXPECT_EQ(got.validation_bits, want.validation_bits);
        EXPECT_EQ(got.trials, want.trials);
        EXPECT_EQ(got.learner_sequence, want.learner_sequence);
        EXPECT_EQ(got.best_skeleton_rank, want.best_skeleton_rank);
        EXPECT_EQ(got.returned_best_so_far, want.returned_best_so_far);
        EXPECT_EQ(got.report, want.report);
      }
    }
  }
  util::ThreadPool::Configure(0);
}

TEST(ParallelSearchTest, CancelledOrExpiredFitReturnsLastResort) {
  Table table = MakeTable(43, 160);
  core::Kgpip kgpip;
  util::CancelToken cancelled;
  cancelled.Cancel();
  for (int lanes : {1, 4}) {
    util::ThreadPool::Configure(lanes);
    for (const bool expired : {false, true}) {
      SCOPED_TRACE(std::string(expired ? "expired" : "cancelled") + " at " +
                   std::to_string(lanes) + " lanes");
      std::vector<gen::ScoredSkeleton> skeletons = {
          {Skeleton("decision_tree"), 0.0}, {Skeleton("gaussian_nb"), 0.0}};
      auto fitted = kgpip.FitWithSkeletons(
          std::move(skeletons), table, TaskType::kBinaryClassification,
          expired ? hpo::Budget(14, 1e-9) : hpo::Budget(14, 1e9), 7,
          expired ? nullptr : &cancelled);
      ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
      EXPECT_TRUE(fitted->report.returned_best_so_far);
      EXPECT_TRUE(fitted->report.last_resort_pass);
      EXPECT_EQ(fitted->best_skeleton_rank, -1);  // no skeleton won
      for (const hpo::SkeletonReport& s : fitted->report.skeletons) {
        EXPECT_TRUE(StartsWith(s.key, "last_resort:")) << s.key;
      }
    }
  }
  util::ThreadPool::Configure(0);
}

// ---------------------------------------------------------------------------
// End-to-end: a trained KGpip under injected faults.

class FaultKgpipFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BenchmarkRegistry registry;
    auto specs = registry.TrainingSpecs();
    std::vector<DatasetSpec> chosen;
    for (const auto& spec : specs) {
      if (spec.task == TaskType::kRegression) continue;
      chosen.push_back(spec);
      if (chosen.size() >= 8) break;
    }
    core::KgpipConfig config;
    config.top_k = 3;
    config.generator_epochs = 6;
    kgpip_ = new core::Kgpip(config);
    codegraph::CorpusOptions corpus;
    corpus.pipelines_per_dataset = 6;
    corpus.noise_scripts_per_dataset = 1;
    auto status = kgpip_->Train(chosen, corpus, 11);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  static void TearDownTestSuite() {
    delete kgpip_;
    kgpip_ = nullptr;
  }

  static core::Kgpip* kgpip_;
};

core::Kgpip* FaultKgpipFixture::kgpip_ = nullptr;

TEST_F(FaultKgpipFixture, SaveLoadRoundTripsWithChecksumHeader) {
  const std::string path = "/tmp/kgpip_fault_roundtrip.bin";
  ASSERT_TRUE(kgpip_->SaveFile(path).ok());
  {
    // The artifact's bytes are pinned: one header line, then the JSON.
    std::ifstream in(path, std::ios::binary);
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::string p = kgpip_->ToJson().Dump();
    EXPECT_EQ(file, StrFormat("KGPIP1 %016llx %llu\n",
                              static_cast<unsigned long long>(Fnv1a64(p)),
                              static_cast<unsigned long long>(p.size())) +
                        p);
  }
  core::Kgpip reloaded(kgpip_->config());
  ASSERT_TRUE(reloaded.LoadFile(path).ok());
  EXPECT_TRUE(reloaded.trained());
  EXPECT_EQ(reloaded.store().NumPipelines(),
            kgpip_->store().NumPipelines());
  std::remove(path.c_str());
}

TEST_F(FaultKgpipFixture, SaveFileReplacesTheFileInsteadOfOverwritingIt) {
  const std::string path = "/tmp/kgpip_fault_replace.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "sentinel";
  }
  // A reader that opened the old file keeps reading the old bytes: the
  // save renames a new file over the name instead of truncating the file
  // the reader holds.
  std::ifstream old_reader(path, std::ios::binary);
  ASSERT_TRUE(old_reader.good());
  ASSERT_TRUE(kgpip_->SaveFile(path).ok());
  const std::string seen((std::istreambuf_iterator<char>(old_reader)),
                         std::istreambuf_iterator<char>());
  EXPECT_TRUE(seen == "sentinel")
      << "the old handle read " << seen.size() << " bytes starting '"
      << seen.substr(0, 16) << "'";
  std::remove(path.c_str());
}

TEST_F(FaultKgpipFixture, InjectedArtifactCorruptionIsDetectedOnLoad) {
  const std::string path = "/tmp/kgpip_fault_corrupt.bin";
  {
    util::FaultConfig config;
    config.corrupt_byte_stride = 64;
    util::ScopedFaultInjection scope(config);
    ASSERT_TRUE(kgpip_->SaveFile(path).ok());
    EXPECT_GT(scope.injector().counters().corrupted_bytes, 0);
  }
  core::Kgpip broken(kgpip_->config());
  Status status = broken.LoadFile(path);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_TRUE(Contains(status.message(), "checksum mismatch"))
      << status.ToString();
  EXPECT_FALSE(broken.trained());
  std::remove(path.c_str());
}

TEST_F(FaultKgpipFixture, FitSurvivesInjectedFaultsDeterministically) {
  Table table = MakeTable(21, 260);
  auto split = SplitTable(table, 0.25, 4);
  const uint64_t fit_seed = 17;
  // Fit re-predicts with the same seed, so this preview tells us which
  // skeleton to sabotage.
  auto predicted = kgpip_->PredictSkeletons(
      split.train, TaskType::kBinaryClassification, fit_seed);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  const std::string victim = (*predicted)[0].spec.learner;

  auto run = [&]() {
    util::FaultConfig config;
    config.seed = 99;
    config.evaluator_error_rate = 0.3;  // 30% trial failure rate
    config.fail_learners = {victim};    // one always-failing skeleton
    util::ScopedFaultInjection scope(config);
    return kgpip_->Fit(split.train, TaskType::kBinaryClassification,
                       hpo::Budget(30, 1e9), fit_seed);
  };

  auto first = run();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->best_spec.learner.empty());
  EXPECT_NE(first->best_spec.learner, victim);
  EXPECT_GT(first->report.total_failures, 0);

  // The always-failing skeleton tripped its circuit breaker and released
  // the rest of its slice for redistribution.
  bool found_abandoned = false;
  for (const hpo::SkeletonReport& s : first->report.skeletons) {
    if (s.abandoned && Contains(s.key, victim)) {
      found_abandoned = true;
      EXPECT_GT(s.redistributed_trials, 0) << s.key;
    }
  }
  EXPECT_TRUE(found_abandoned)
      << "no abandoned skeleton for '" << victim << "' in "
      << first->report.ToJson().Dump();

  // Determinism: an identical seed and fault config reproduces the run
  // byte-for-byte at any lane count, with the skeletons searched side by
  // side. The stage profile is the report's one wall-clock field, so it
  // is cleared before comparing.
  for (int lanes : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    util::ThreadPool::Configure(lanes);
    auto again = run();
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(first->best_spec.ToString(), again->best_spec.ToString());
    EXPECT_EQ(first->trials, again->trials);
    EXPECT_EQ(ReportJson(first->report), ReportJson(again->report));
  }
  util::ThreadPool::Configure(0);
}

}  // namespace
}  // namespace kgpip
