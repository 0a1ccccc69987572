#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/kgpip.h"
#include "data/benchmark_registry.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/server.h"
#include "serve/soak_harness.h"
#include "util/fault.h"
#include "util/mutex.h"
#include "util/string_util.h"

namespace kgpip::serve {
namespace {

Table MakeTable(uint64_t seed, int rows = 120, int numeric = 5) {
  DatasetSpec spec;
  spec.name = "serve_ds";
  spec.family = ConceptFamily::kLinear;
  spec.rows = rows;
  spec.num_numeric = numeric;
  spec.seed = seed;
  return GenerateDataset(spec);
}

std::string TempDir(const char* tag) {
  std::string dir = std::filesystem::temp_directory_path() /
                    StrFormat("kgpip_serve_test_%s_%d", tag,
                              static_cast<int>(::getpid()));
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// TableDigest

TEST(TableDigestTest, IdenticalContentDigestsEqual) {
  EXPECT_EQ(TableDigest(MakeTable(5)), TableDigest(MakeTable(5)));
}

TEST(TableDigestTest, AnyContentChangeChangesTheDigest) {
  Table a = MakeTable(5);
  EXPECT_NE(TableDigest(a), TableDigest(MakeTable(6)));

  Table b = MakeTable(5);
  b.mutable_column(0).mutable_numeric_values()[0] += 1.0;
  EXPECT_NE(TableDigest(a), TableDigest(b));

  Table c = MakeTable(5);
  c.mutable_column(0).set_name("renamed");
  EXPECT_NE(TableDigest(a), TableDigest(c));

  Table d = MakeTable(5);
  d.mutable_column(0).SetMissing(0, true);
  EXPECT_NE(TableDigest(a), TableDigest(d));
}

// ---------------------------------------------------------------------------
// Spec serialization

TEST(SpecJsonTest, RoundTripsNumericAndStringParams) {
  ml::PipelineSpec spec;
  spec.preprocessors = {"standard_scaler", "pca"};
  spec.learner = "random_forest";
  spec.params.SetNum("n_estimators", 120);
  spec.params.SetNum("max_depth", 7);
  spec.params.SetStr("criterion", "gini");

  auto back = SpecFromJson(SpecToJson(spec));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->preprocessors, spec.preprocessors);
  EXPECT_EQ(back->learner, spec.learner);
  EXPECT_EQ(back->params.GetNum("n_estimators", 0), 120);
  EXPECT_EQ(back->params.GetStr("criterion", ""), "gini");
}

TEST(SpecJsonTest, RejectsSpecWithoutLearner) {
  EXPECT_EQ(SpecFromJson(Json::Object()).status().code(),
            StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// ArtifactCache

TEST(ArtifactCacheTest, MemoryTierRoundTrip) {
  ArtifactCache cache(ArtifactCache::Options{"", 4});
  Json value = Json::Object();
  value.Set("answer", 42);
  ASSERT_TRUE(cache.Put("k1", value).ok());
  auto got = cache.Get("k1");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->Get("answer").AsInt(), 42);
  EXPECT_EQ(cache.Get("absent").status().code(), StatusCode::kNotFound);
}

TEST(ArtifactCacheTest, MemoryTierEvictsLeastRecentlyUsed) {
  ArtifactCache cache(ArtifactCache::Options{"", 2});
  Json v = Json::Object();
  ASSERT_TRUE(cache.Put("a", v).ok());
  ASSERT_TRUE(cache.Put("b", v).ok());
  ASSERT_TRUE(cache.Get("a").ok());   // touch: b is now LRU
  ASSERT_TRUE(cache.Put("c", v).ok());  // evicts b
  EXPECT_TRUE(cache.Get("a").ok());
  EXPECT_TRUE(cache.Get("c").ok());
  EXPECT_EQ(cache.Get("b").status().code(), StatusCode::kNotFound);
}

TEST(ArtifactCacheTest, DiskTierSurvivesRestart) {
  const std::string dir = TempDir("restart");
  Json value = Json::Object();
  value.Set("score", 0.75);
  {
    ArtifactCache cache(ArtifactCache::Options{dir, 8});
    ASSERT_TRUE(cache.Put("model-x", value).ok());
  }
  // A fresh instance (cold memory tier) reads the entry back from disk.
  ArtifactCache reborn(ArtifactCache::Options{dir, 8});
  auto got = reborn.Get("model-x");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_DOUBLE_EQ(got->Get("score").AsDouble(), 0.75);
  std::filesystem::remove_all(dir);
}

TEST(ArtifactCacheTest, EntryFileBytesArePinned) {
  const std::string dir = TempDir("pin");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/entry.kgc";
  ASSERT_TRUE(ArtifactCache::WriteEntryFile(path, R"({"a":1})").ok());
  std::ifstream in(path, std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // Magic, FNV-1a of the payload as 16 hex digits, payload size, payload.
  EXPECT_EQ(file, "KGCACHE1 9c3e82dd6fcae8b1 7\n{\"a\":1}");
  std::filesystem::remove_all(dir);
}

TEST(ArtifactCacheTest, TruncatedEntryIsAParseErrorWithByteOffsets) {
  const std::string dir = TempDir("trunc");
  ArtifactCache cache(ArtifactCache::Options{dir, 8});
  Json value = Json::Object();
  value.Set("payload", std::string(256, 'x'));
  ASSERT_TRUE(cache.Put("victim", value).ok());
  const std::string path = cache.PathForKey("victim");

  // Truncate the file mid-payload.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    contents = buf.str();
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents.substr(0, contents.size() / 2);
  }
  auto loaded = ArtifactCache::LoadEntryFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("byte offset"),
            std::string::npos)
      << loaded.status().message();
  std::filesystem::remove_all(dir);
}

TEST(ArtifactCacheTest, BitFlippedEntryIsEvictedAndRebuilt) {
  const std::string dir = TempDir("bitflip");
  ArtifactCache cache(ArtifactCache::Options{dir, 8});
  Json value = Json::Object();
  value.Set("score", 0.9);
  ASSERT_TRUE(cache.Put("victim", value).ok());
  const std::string path = cache.PathForKey("victim");

  // Flip a payload bit on disk.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    contents = buf.str();
  }
  contents[contents.size() - 3] ^= 0x10;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }

  // Checksum mismatch reports the damaged byte range...
  auto loaded = ArtifactCache::LoadEntryFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos);

  // ...and a cold-cache Get never serves it: evicted, reported missing.
  ArtifactCache reborn(ArtifactCache::Options{dir, 8});
  EXPECT_EQ(reborn.Get("victim").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reborn.stats().corrupt_evictions, 1);
  EXPECT_FALSE(std::filesystem::exists(path));

  // The rebuild (re-Put) heals the entry.
  ASSERT_TRUE(reborn.Put("victim", value).ok());
  auto healed = reborn.Get("victim");
  ASSERT_TRUE(healed.ok());
  EXPECT_DOUBLE_EQ(healed->Get("score").AsDouble(), 0.9);
  std::filesystem::remove_all(dir);
}

TEST(ArtifactCacheTest, InjectedCorruptionIsCaughtAtReadTime) {
  const std::string dir = TempDir("inject");
  ArtifactCache cache(ArtifactCache::Options{dir, 8});
  Json value = Json::Object();
  value.Set("blob", std::string(128, 'y'));
  {
    util::FaultConfig config;
    config.corrupt_byte_stride = 16;
    util::ScopedFaultInjection scope(config);
    cache.Put("victim", value);
    EXPECT_GT(scope.injector().counters().corrupted_bytes, 0);
  }
  // Memory tier still has the good copy; force the disk read.
  ArtifactCache reborn(ArtifactCache::Options{dir, 8});
  EXPECT_EQ(reborn.Get("victim").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reborn.stats().corrupt_evictions, 1);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// ServeOptions

TEST(ServeOptionsTest, DeadlineThatIsNotPositiveKeepsTheDefault) {
  const char* name = "KGPIP_SERVE_DEADLINE_SECONDS";
  const char* raw = std::getenv(name);
  const std::string saved = raw == nullptr ? "" : raw;
  // 0 would refuse every request in the queue; nan would never expire.
  for (const char* value : {"0", "-5", "nan"}) {
    SCOPED_TRACE(value);
    ASSERT_EQ(setenv(name, value, 1), 0);
    EXPECT_EQ(ServeOptions::FromEnv().default_deadline_seconds, 30.0);
  }
  ASSERT_EQ(setenv(name, "2.5", 1), 0);
  EXPECT_EQ(ServeOptions::FromEnv().default_deadline_seconds, 2.5);
  if (raw == nullptr) {
    unsetenv(name);
  } else {
    setenv(name, saved.c_str(), 1);
  }
}

// ---------------------------------------------------------------------------
// Server (shares one trained model across all fixture tests)

class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    BenchmarkRegistry registry;
    auto specs = registry.TrainingSpecs();
    std::vector<DatasetSpec> chosen;
    for (const auto& spec : specs) {
      if (spec.task == TaskType::kRegression) continue;
      chosen.push_back(spec);
      if (chosen.size() >= 12) break;
    }
    core::KgpipConfig config;
    config.top_k = 3;
    config.generator_epochs = 10;
    model_ = new core::Kgpip(config);
    codegraph::CorpusOptions corpus;
    corpus.pipelines_per_dataset = 6;
    auto status = model_->Train(chosen, corpus, 11);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
  }

  static ServeOptions FastOptions() {
    ServeOptions options;
    options.num_workers = 2;
    options.default_deadline_seconds = 20.0;
    options.grace_seconds = 2.0;
    options.max_trials = 4;
    return options;
  }

  static core::Kgpip* model_;
};

core::Kgpip* ServeFixture::model_ = nullptr;

TEST_F(ServeFixture, StartRequiresATrainedModel) {
  core::Kgpip untrained;
  Server server(&untrained, FastOptions());
  EXPECT_EQ(server.Start().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServeFixture, ServesAFitRequest) {
  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  FitRequest request;
  request.table = MakeTable(21);
  request.max_trials = 4;
  ServeResponse response = server.Submit(std::move(request)).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.result.best_spec.learner.empty());
  EXPECT_FALSE(response.cache_hit);
  EXPECT_EQ(response.result.report.degradation_level, 0);
  server.Stop();
}

TEST_F(ServeFixture, RepeatedIdenticalFitIsACacheHitThatSkipsEmbedding) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter* cache_hits = metrics.GetCounter("serve.cache_hits");

  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  FitRequest first;
  first.table = MakeTable(33);
  ServeResponse cold = server.Submit(std::move(first)).get();
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_FALSE(cold.cache_hit);

  const int64_t hits_before = cache_hits->value();
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Enable();
  FitRequest second;
  second.table = MakeTable(33);  // identical content -> identical digest
  ServeResponse warm = server.Submit(std::move(second)).get();
  obs::Tracer::Global().Disable();

  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(warm.result.report.cache_hit);
  EXPECT_EQ(cache_hits->value(), hits_before + 1);
  // Same answer as the cold path.
  EXPECT_EQ(warm.result.best_spec.learner, cold.result.best_spec.learner);

  // The embedding + SimIndex head must not have run: no embed.* span.
  for (const auto& span : obs::Tracer::Global().Snapshot()) {
    EXPECT_FALSE(StartsWith(span.name, "embed."))
        << "cache hit still ran " << span.name;
  }
  obs::Tracer::Global().Clear();
  server.Stop();
}

TEST_F(ServeFixture, TwoTrialRepeatIsAResultCacheHit) {
  // Two trials over the fixture's three skeletons split 1/1/0, so the
  // budget runs out before the last skeleton. The answer is still the
  // whole answer for that budget, and its repeat must be a cache hit.
  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  auto submit = [&server] {
    FitRequest request;
    request.table = MakeTable(971);
    request.max_trials = 2;
    return server.Submit(std::move(request)).get();
  };
  ServeResponse cold = submit();
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ASSERT_FALSE(cold.cache_hit);
  ASSERT_EQ(cold.result.skeletons.size(), 3u);
  EXPECT_EQ(cold.result.trials, 2);
  EXPECT_TRUE(cold.result.report.returned_best_so_far);

  ServeResponse warm = submit();
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(warm.result.best_spec.ToString(),
            cold.result.best_spec.ToString());
  server.Stop();
}

TEST_F(ServeFixture, QueueFullShedsWithResourceExhausted) {
  ServeOptions options = FastOptions();
  options.max_queue_depth = 0;  // everything sheds at the door
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());
  FitRequest request;
  request.table = MakeTable(44);
  ServeResponse response = server.Submit(std::move(request)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);
  server.Stop();
}

TEST_F(ServeFixture, TokenBucketLimitsPerTenantAdmissions) {
  ServeOptions options = FastOptions();
  options.tenant_tokens_per_second = 0.001;  // effectively no refill
  options.tenant_burst_tokens = 2.0;
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    FitRequest request;
    request.tenant = "greedy";
    request.table = MakeTable(33);  // cached from earlier fixture tests
    futures.push_back(server.Submit(std::move(request)));
  }
  int shed = 0;
  for (auto& future : futures) {
    ServeResponse response = future.get();
    if (response.status.code() == StatusCode::kResourceExhausted) ++shed;
  }
  EXPECT_EQ(shed, 2) << "burst of 2 admits exactly 2 of 4";
  server.Stop();
}

TEST_F(ServeFixture, DrainRefusesNewWorkAndFinishesQueuedWork) {
  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  FitRequest queued;
  queued.table = MakeTable(55);
  std::future<ServeResponse> inflight = server.Submit(std::move(queued));

  server.BeginDrain();
  FitRequest refused_request;
  refused_request.table = MakeTable(56);
  ServeResponse refused = server.Submit(std::move(refused_request)).get();
  EXPECT_EQ(refused.status.code(), StatusCode::kFailedPrecondition);

  // The request admitted before the drain still completes.
  ServeResponse finished = inflight.get();
  EXPECT_TRUE(finished.status.ok()) << finished.status.ToString();
  EXPECT_TRUE(server.AwaitDrained(30.0));
  server.Stop();
}

TEST_F(ServeFixture, AwaitDrainedTimesOutEarlyAndSucceedsLate) {
  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::future<ServeResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    FitRequest request;
    request.table = MakeTable(900 + static_cast<uint64_t>(i));
    request.max_trials = 2;
    futures.push_back(server.Submit(std::move(request)));
  }
  server.BeginDrain();
  // Early: a zero-budget wait reports "not drained yet" while work
  // remains — it must neither block nor claim success.
  EXPECT_FALSE(server.AwaitDrained(0.0));
  // Late: the same call with budget observes the drain completing.
  EXPECT_TRUE(server.AwaitDrained(30.0));
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(server.inflight(), 0u);
  for (std::future<ServeResponse>& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
  server.Stop();
}

TEST_F(ServeFixture, DrainOfAnIdleServerNeverLosesTheWakeup) {
  // Regression: BeginDrain/Stop once stored their flags and notified
  // without holding mu_, so a worker sitting between its wait-predicate
  // check and its block could miss the only notify — hanging the drain
  // and the Stop join. Freshly started idle servers spend their time in
  // exactly that window; cycling them presses on it.
  for (int round = 0; round < 25; ++round) {
    Server server(model_, FastOptions());
    ASSERT_TRUE(server.Start().ok());
    server.BeginDrain();
    EXPECT_TRUE(server.AwaitDrained(10.0)) << "round " << round;
    server.Stop();
  }
}

TEST_F(ServeFixture, StopRefusesQueuedRequestsInsteadOfRunningThem) {
  ServeOptions options = FastOptions();
  options.num_workers = 1;
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::future<ServeResponse>> futures;
  for (uint64_t seed = 981; seed < 987; ++seed) {
    FitRequest request;
    request.table = MakeTable(seed);
    futures.push_back(server.Submit(std::move(request)));
  }
  server.Stop();

  // The one worker takes at most one request before Stop; Stop refuses
  // the rest, and every future is resolved by the time it returns.
  int refused = 0;
  for (std::future<ServeResponse>& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    ServeResponse response = future.get();
    if (response.status.code() != StatusCode::kFailedPrecondition) continue;
    EXPECT_EQ(response.status.message(), "server stopped before execution");
    ++refused;
  }
  EXPECT_GE(refused, 5);
  EXPECT_EQ(server.audit_log().Tail(16).size(), 6u);
}

TEST_F(ServeFixture, ExpiredDeadlineProducesResourceExhausted) {
  ServeOptions options = FastOptions();
  options.num_workers = 1;
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());

  // Occupy the single worker with a real fit, then submit a request
  // whose deadline can only expire in the queue.
  FitRequest slow;
  slow.table = MakeTable(66);
  slow.max_trials = 4;
  std::future<ServeResponse> slow_future = server.Submit(std::move(slow));

  FitRequest doomed;
  doomed.table = MakeTable(67);
  doomed.deadline_seconds = 0.001;
  ServeResponse response = server.Submit(std::move(doomed)).get();
  EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted);

  EXPECT_TRUE(slow_future.get().status.ok());
  server.Stop();
}

// A running request's only deadline is its Fit budget's wall clock,
// checked before each trial: a trial that finishes past the request's
// deadline is kept, not discarded.
TEST_F(ServeFixture, TrialsThatOutlastTheDeadlineAreKept) {
  ServeOptions options = FastOptions();
  options.num_workers = 1;
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());
  FitRequest request;
  request.table = MakeTable(131, 20000, 20);
  request.max_trials = 4;
  // A request's clock starts before Submit digests its table, so the
  // deadline leaves 0.1 s after a digest of this table (milliseconds in
  // an optimized build, over 0.1 s under ThreadSanitizer).
  Stopwatch digest_watch;
  (void)TableDigest(request.table);
  const double deadline = 0.1 + digest_watch.ElapsedSeconds();
  request.deadline_seconds = deadline;
  ServeResponse response = server.Submit(std::move(request)).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GT(response.result.trials, 0);
  EXPECT_EQ(response.result.report.total_failures, 0)
      << response.result.report.Summary();
  // The request really outlasted its deadline.
  EXPECT_GT(response.latency_seconds, deadline);
  server.Stop();
}

TEST_F(ServeFixture, TenantCircuitBreakerOpensAndHalfOpens) {
  ServeOptions options = FastOptions();
  options.breaker_threshold = 2;
  // Generous cooldown: the shed check below must land while the breaker
  // is still cooling even if this thread is descheduled for a while.
  options.breaker_cooldown_seconds = 0.5;
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());

  // A table with no target column fails every fit.
  Table poison = MakeTable(77);
  poison.set_target_name("");

  for (int i = 0; i < 2; ++i) {
    FitRequest bad;
    bad.tenant = "flaky";
    bad.table = poison;
    ServeResponse response = server.Submit(std::move(bad)).get();
    EXPECT_FALSE(response.status.ok());
    EXPECT_NE(response.status.code(), StatusCode::kResourceExhausted)
        << "failures before the threshold must be real errors, not sheds";
  }

  // Breaker open: the next request is shed at the door.
  FitRequest shed;
  shed.tenant = "flaky";
  shed.table = MakeTable(33);
  ServeResponse rejected = server.Submit(std::move(shed)).get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);

  // Other tenants are unaffected.
  FitRequest other;
  other.tenant = "healthy";
  other.table = MakeTable(33);
  EXPECT_TRUE(server.Submit(std::move(other)).get().status.ok());

  // After the cooldown a half-open probe goes through.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  FitRequest probe;
  probe.tenant = "flaky";
  probe.table = MakeTable(33);
  EXPECT_TRUE(server.Submit(std::move(probe)).get().status.ok());
  server.Stop();
}

TEST_F(ServeFixture, OverloadDegradesToZeroShot) {
  ServeOptions options = FastOptions();
  options.degrade_queue_depth = 0;  // force rung 2 on every request
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());
  FitRequest request;
  request.table = MakeTable(88);  // fresh digest: no cached result
  ServeResponse response = server.Submit(std::move(request)).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.degradation_level, 2);
  EXPECT_EQ(response.result.report.degradation_level, 2);
  EXPECT_EQ(response.result.trials, 0) << "zero-shot must not run HPO";
  EXPECT_FALSE(response.result.best_spec.learner.empty());
  server.Stop();
}

TEST_F(ServeFixture, RungOneFitsAtHalfTheTrialBudget) {
  ServeOptions options = FastOptions();
  options.num_workers = 1;
  options.degrade_queue_depth = 2;  // rung 1 at 2 queued, rung 2 at 4
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());
  const std::vector<uint64_t> seeds = {1001, 1002, 1003, 1004};
  std::vector<std::future<ServeResponse>> futures;
  for (uint64_t seed : seeds) {
    FitRequest request;
    request.table = MakeTable(seed);
    request.max_trials = 4;
    futures.push_back(server.Submit(std::move(request)));
  }
  // At most three requests wait behind the one the worker takes.
  std::vector<size_t> rung_one;
  std::set<int64_t> rung_one_ids;
  for (size_t i = 0; i < futures.size(); ++i) {
    ServeResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_NE(response.degradation_level, 2);
    if (response.degradation_level != 1) continue;
    EXPECT_EQ(response.result.report.degradation_level, 1);
    EXPECT_LE(response.result.trials, 2);
    rung_one.push_back(i);
    rung_one_ids.insert(static_cast<int64_t>(response.request_id));
  }
  ASSERT_FALSE(rung_one.empty());
  std::string run_micros;
  for (const Json& record : server.audit_log().Tail(16)) {
    if (rung_one_ids.count(record.Get("request_id").AsInt()) == 0) continue;
    if (!run_micros.empty()) run_micros += ",";
    run_micros += std::to_string(record.Get("run_micros").AsInt());
  }
  RecordProperty("rung1_run_micros", run_micros);

  // A degraded answer never seeds the result cache: alone, its table
  // gets a full fit.
  FitRequest again;
  again.table = MakeTable(seeds[rung_one.front()]);
  again.max_trials = 4;
  ServeResponse full = server.Submit(std::move(again)).get();
  ASSERT_TRUE(full.status.ok()) << full.status.ToString();
  EXPECT_FALSE(full.cache_hit);
  EXPECT_EQ(full.degradation_level, 0);
  server.Stop();
}

TEST_F(ServeFixture, CorruptResultEntryIsRebuiltByTheDaemon) {
  const std::string dir = TempDir("serve_corrupt");
  ServeOptions options = FastOptions();
  options.cache_dir = dir;
  std::string path;
  {
    Server server(model_, options);
    ASSERT_TRUE(server.Start().ok());
    FitRequest request;
    request.table = MakeTable(99);
    request.max_trials = 4;
    ASSERT_TRUE(server.Submit(std::move(request)).get().status.ok());
    path = server.cache().PathForKey(Server::ResultCacheKey(
        TableDigest(MakeTable(99)), TaskType::kBinaryClassification, 4));
    ASSERT_TRUE(std::filesystem::exists(path));
    server.Stop();
  }
  {
    // Bit-flip the stored result on disk.
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-4, std::ios::end);
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x40;
    file.seekp(-4, std::ios::end);
    file.write(&byte, 1);
  }
  // A restarted daemon (cold memory tier) must detect the damage, evict,
  // re-run the fit, and heal the disk entry.
  Server reborn(model_, options);
  ASSERT_TRUE(reborn.Start().ok());
  FitRequest request;
  request.table = MakeTable(99);
  request.max_trials = 4;
  ServeResponse response = reborn.Submit(std::move(request)).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.cache_hit) << "a corrupt entry must not be served";
  EXPECT_GE(reborn.cache().stats().corrupt_evictions, 1);
  auto healed = ArtifactCache::LoadEntryFile(path);
  EXPECT_TRUE(healed.ok()) << "rebuild should have rewritten the entry: "
                           << healed.status().ToString();
  reborn.Stop();
  std::filesystem::remove_all(dir);
}

TEST_F(ServeFixture, SoakEveryRequestTerminatesDefinitively) {
  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  SoakOptions soak;
  soak.num_tenants = 3;
  soak.duration_seconds = 1.5;
  soak.request_deadline_seconds = 10.0;
  soak.poison_fraction = 0.1;
  SoakHarness harness(&server, soak);
  auto summary = harness.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->stuck, 0);
  EXPECT_GT(summary->submitted, 0);
  EXPECT_GT(summary->ok, 0);
  EXPECT_GT(summary->cache_hits, 0);
  server.Stop();
}

TEST_F(ServeFixture, SoakUnderInjectedFaultsStaysDefinitive) {
  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  SoakOptions soak;
  soak.num_tenants = 2;
  soak.duration_seconds = 1.0;
  soak.request_deadline_seconds = 10.0;
  soak.inject_faults = true;
  soak.fault_config.seed = 17;
  soak.fault_config.evaluator_error_rate = 0.2;
  soak.fault_config.nan_score_rate = 0.1;
  soak.fault_config.resource_exhausted_rate = 0.1;
  SoakHarness harness(&server, soak);
  auto summary = harness.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->stuck, 0);
  EXPECT_GT(summary->submitted, 0);
  server.Stop();
}

std::atomic<int> g_soak_rank_violations{0};

void RecordSoakRankViolation(const char* acquiring, int acquiring_rank,
                             const char* held, int held_rank) {
  g_soak_rank_violations.fetch_add(1);
  ADD_FAILURE() << "lock-rank violation: acquiring '" << acquiring
                << "' (rank " << acquiring_rank << ") while holding '"
                << held << "' (rank " << held_rank << ")";
}

TEST_F(ServeFixture, SoakIsCleanUnderLockRankChecking) {
  if (!util::LockRankCheckingCompiled()) {
    GTEST_SKIP() << "built with KGPIP_NO_LOCK_RANK";
  }
  // The whole daemon — admission, workers, watchdog, cache, generator
  // decoders, pool, metrics — under the runtime rank checker: any lock
  // acquired against the documented order fails the test via the handler
  // (equivalent to running the soak with KGPIP_CHECK_LOCKS=1, but with a
  // recording handler instead of the aborting default).
  g_soak_rank_violations.store(0);
  util::SetLockRankCheckingEnabled(true);
  util::SetLockRankViolationHandler(&RecordSoakRankViolation);

  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  SoakOptions soak;
  soak.num_tenants = 2;
  soak.duration_seconds = 1.0;
  soak.request_deadline_seconds = 10.0;
  SoakHarness harness(&server, soak);
  auto summary = harness.Run();
  server.Stop();

  util::SetLockRankViolationHandler(nullptr);
  util::SetLockRankCheckingEnabled(false);

  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(summary->submitted, 0);
  EXPECT_EQ(g_soak_rank_violations.load(), 0);
}

// ---------------------------------------------------------------------------
// Observability plane: audit log, request ids, DebugStatus

TEST_F(ServeFixture, ResponseAndAuditShareTheRequestId) {
  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  FitRequest request;
  request.table = MakeTable(901);
  ServeResponse response = server.Submit(std::move(request)).get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_GT(response.request_id, 0u);

  // Respond emits the audit line before the future resolves, so the
  // record is observable the moment .get() returns.
  std::vector<Json> tail = server.audit_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  const Json& record = tail[0];
  EXPECT_EQ(record.Get("request_id").AsInt(),
            static_cast<int64_t>(response.request_id));
  EXPECT_EQ(record.Get("tenant").AsString(), "default");
  EXPECT_EQ(record.Get("outcome").AsString(), "OK");
  EXPECT_EQ(record.Get("cache_tier").AsString(), "none");
  EXPECT_GT(record.Get("total_micros").AsInt(), 0);
  // Phase accounting tiles the total exactly (run = total - queue wait).
  EXPECT_EQ(record.Get("queue_wait_micros").AsInt() +
                record.Get("run_micros").AsInt(),
            record.Get("total_micros").AsInt());
  server.Stop();
}

TEST_F(ServeFixture, ServedFitReportsTheWholeFitStageProfile) {
  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Enable();
  FitRequest request;
  request.table = MakeTable(991);
  ServeResponse response = server.Submit(std::move(request)).get();
  obs::Tracer::Global().Disable();
  server.Stop();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  ASSERT_FALSE(response.cache_hit);

  // The stages tile the whole Fit, skeleton prediction included, within
  // the 10% FitStageProfileTest allows.
  const obs::StageProfile& profile = response.result.report.stage_profile;
  EXPECT_GT(profile.StageSeconds("fit.predict_skeletons"), 0.0);
  EXPECT_GT(profile.StageSeconds("fit.hpo_search"), 0.0);
  EXPECT_GT(profile.total_seconds, 0.0);
  EXPECT_NEAR(profile.SumSeconds(), profile.total_seconds,
              0.10 * profile.total_seconds);

  // The request ran one Kgpip::Fit.
  int fit_spans = 0;
  for (const obs::TraceEvent& event : obs::Tracer::Global().Snapshot()) {
    if (event.request_id != response.request_id) continue;
    fit_spans += event.name == "kgpip.fit" ? 1 : 0;
    EXPECT_NE(event.name, "kgpip.fit_with_skeletons");
  }
  EXPECT_EQ(fit_spans, 1);
  obs::Tracer::Global().Clear();
}

TEST_F(ServeFixture, RefusalsAreAuditedToo) {
  ServeOptions options = FastOptions();
  options.max_queue_depth = 0;  // everything sheds at the door
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());
  FitRequest request;
  request.table = MakeTable(902);
  ServeResponse response = server.Submit(std::move(request)).get();
  ASSERT_EQ(response.status.code(), StatusCode::kResourceExhausted);

  std::vector<Json> tail = server.audit_log().Tail(1);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].Get("request_id").AsInt(),
            static_cast<int64_t>(response.request_id));
  EXPECT_EQ(tail[0].Get("outcome").AsString(),
            StatusCodeName(StatusCode::kResourceExhausted));
  EXPECT_FALSE(tail[0].Get("detail").AsString().empty());
  server.Stop();
}

TEST_F(ServeFixture, SoakWritesExactlyOneAuditLinePerSubmittedRequest) {
  const std::string dir = TempDir("audit");
  std::filesystem::create_directories(dir);
  ServeOptions options = FastOptions();
  options.audit_log_path = dir + "/audit.jsonl";
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());

  SoakOptions soak;
  soak.num_tenants = 3;  // acceptance asks for >= 2 tenants + faults
  soak.duration_seconds = 1.0;
  soak.request_deadline_seconds = 10.0;
  soak.poison_fraction = 0.1;
  soak.inject_faults = true;
  soak.fault_config.seed = 23;
  soak.fault_config.evaluator_error_rate = 0.2;
  soak.fault_config.nan_score_rate = 0.1;
  SoakHarness harness(&server, soak);
  auto summary = harness.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ASSERT_GT(summary->submitted, 0);
  server.Stop();

  EXPECT_EQ(server.audit_log().records_written(), summary->submitted);
  EXPECT_EQ(server.audit_log().write_errors(), 0);

  // Every line on disk parses. The first line is the metadata header
  // (serving environment: dispatched SIMD level); after it, ids are
  // unique and the file holds one line per submitted request — the
  // wide-event contract.
  std::ifstream in(options.audit_log_path);
  ASSERT_TRUE(in.good());
  std::set<int64_t> ids;
  int64_t lines = 0;
  int64_t headers = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    auto parsed = Json::Parse(line);
    ASSERT_TRUE(parsed.ok()) << "line " << lines << ": "
                             << parsed.status().ToString();
    if (parsed->Has("type") &&
        parsed->Get("type").AsString() == "header") {
      ++headers;
      EXPECT_EQ(lines, 1) << "header must be the first line";
      EXPECT_FALSE(parsed->Get("isa_level").AsString().empty());
      continue;
    }
    const int64_t id = parsed->Get("request_id").AsInt();
    EXPECT_TRUE(ids.insert(id).second) << "duplicate audit line for " << id;
    EXPECT_TRUE(StartsWith(parsed->Get("tenant").AsString(), "tenant-"));
    EXPECT_FALSE(parsed->Get("outcome").AsString().empty());
    EXPECT_EQ(parsed->Get("table_digest").AsString().size(), 16u);
  }
  EXPECT_EQ(headers, 1);
  EXPECT_EQ(lines - headers, summary->submitted);
  std::filesystem::remove_all(dir);
}

TEST_F(ServeFixture, AuditRequestIdsMatchTraceSpanIds) {
  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());

  obs::Tracer::Global().Clear();
  obs::Tracer::Global().Enable();
  std::set<int64_t> response_ids;
  for (uint64_t seed = 950; seed < 954; ++seed) {
    FitRequest request;
    request.table = MakeTable(seed);
    request.tenant = "traced";
    request.max_trials = 2;
    ServeResponse response = server.Submit(std::move(request)).get();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    response_ids.insert(static_cast<int64_t>(response.request_id));
  }
  obs::Tracer::Global().Disable();
  server.Stop();

  // Each request's serve.request span carries that request's id — the
  // correlation key that joins traces to audit lines and log records.
  std::set<int64_t> span_ids;
  for (const obs::TraceEvent& event : obs::Tracer::Global().Snapshot()) {
    if (event.request_id == 0) continue;
    EXPECT_TRUE(response_ids.count(static_cast<int64_t>(event.request_id)))
        << "span '" << event.name << "' carries unknown request id "
        << event.request_id;
    EXPECT_EQ(event.tenant, "traced");
    if (event.name == "serve.request") {
      span_ids.insert(static_cast<int64_t>(event.request_id));
    }
  }
  EXPECT_EQ(span_ids, response_ids);

  // And the audit tail agrees with both.
  std::set<int64_t> audit_ids;
  for (const Json& record : server.audit_log().Tail(16)) {
    audit_ids.insert(record.Get("request_id").AsInt());
  }
  EXPECT_EQ(audit_ids, response_ids);
  obs::Tracer::Global().Clear();
}

// Nearest-rank percentile of an ascending sample of microseconds, in
// seconds: the value at 1-based rank ceil(percent * n / 100).
double NearestRankSeconds(const std::vector<int64_t>& sorted, size_t percent) {
  const size_t rank = std::max<size_t>(1, (percent * sorted.size() + 99) / 100);
  return static_cast<double>(sorted[rank - 1]) / 1e6;
}

TEST_F(ServeFixture, StatuszWindowsAreComputedFromTheAuditRing) {
  ServeOptions options = FastOptions();
  options.num_workers = 1;
  options.max_queue_depth = 1;
  options.slo_target_seconds = 0.001;  // refusals finish below it
  Server server(model_, options);
  ASSERT_TRUE(server.Start().ok());
  auto submit = [&server](const std::string& tenant, uint64_t seed) {
    FitRequest request;
    request.tenant = tenant;
    request.table = MakeTable(seed);
    return server.Submit(std::move(request));
  };
  ServeResponse cold = submit("alpha", 961).get();
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  ServeResponse warm = submit("alpha", 961).get();  // the same table again
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  ASSERT_TRUE(warm.cache_hit);
  ServeResponse other = submit("beta", 962).get();
  ASSERT_TRUE(other.status.ok()) << other.status.ToString();
  // One worker and one queue slot: of three back-to-back submits, one
  // at least finds the slot taken while the worker runs another fit.
  std::vector<std::future<ServeResponse>> burst;
  for (uint64_t seed = 963; seed < 966; ++seed) {
    burst.push_back(submit("beta", seed));
  }
  int sheds = 0;
  for (std::future<ServeResponse>& future : burst) {
    if (future.get().status.code() == StatusCode::kResourceExhausted) ++sheds;
  }
  ASSERT_GE(sheds, 1);

  const Json windows = server.DebugStatus().Get("windows");
  const std::vector<Json> records =
      server.audit_log().Tail(options.audit_ring_entries);
  server.Stop();

  // The same numbers, computed directly over the audit records.
  std::map<std::string, std::vector<int64_t>> micros_by_tenant;
  int64_t shed_records = 0;
  int64_t hit_records = 0;
  for (const Json& record : records) {
    micros_by_tenant[record.Get("tenant").AsString()].push_back(
        record.Get("total_micros").AsInt());
    if (record.Get("outcome").AsString() ==
        StatusCodeName(StatusCode::kResourceExhausted)) {
      ++shed_records;
    }
    if (record.Get("cache_tier").AsString() == "result") ++hit_records;
  }
  ASSERT_EQ(micros_by_tenant.size(), 2u);
  EXPECT_GE(shed_records, 1);
  EXPECT_EQ(hit_records, 1);
  const double n = static_cast<double>(records.size());
  EXPECT_EQ(windows.Get("records").AsInt(),
            static_cast<int64_t>(records.size()));
  EXPECT_DOUBLE_EQ(windows.Get("shed_rate").AsDouble(),
                   static_cast<double>(shed_records) / n);
  EXPECT_DOUBLE_EQ(windows.Get("cache_hit_rate").AsDouble(),
                   static_cast<double>(hit_records) / n);
  for (auto& [tenant, micros] : micros_by_tenant) {
    std::sort(micros.begin(), micros.end());
    const Json& window = windows.Get("latency_seconds." + tenant);
    ASSERT_TRUE(window.is_object()) << "no window for " << tenant;
    EXPECT_EQ(window.Get("count").AsInt(),
              static_cast<int64_t>(micros.size()));
    EXPECT_DOUBLE_EQ(window.Get("p50").AsDouble(),
                     NearestRankSeconds(micros, 50));
    EXPECT_DOUBLE_EQ(window.Get("p99").AsDouble(),
                     NearestRankSeconds(micros, 99));
    const auto slow = std::count_if(
        micros.begin(), micros.end(), [&options](int64_t m) {
          return static_cast<double>(m) > options.slo_target_seconds * 1e6;
        });
    EXPECT_DOUBLE_EQ(window.Get("slo_burn").AsDouble(),
                     static_cast<double>(slow) /
                         static_cast<double>(micros.size()));
  }

  // Records older than window_seconds leave the windows, not the ring.
  ServeOptions short_window = FastOptions();
  short_window.window_seconds = 0.3;
  short_window.max_queue_depth = 0;  // refused at the door, at once
  Server expiring(model_, short_window);
  ASSERT_TRUE(expiring.Start().ok());
  for (const char* tenant : {"alpha", "beta"}) {
    FitRequest request;
    request.tenant = tenant;
    request.table = MakeTable(967);
    ASSERT_EQ(expiring.Submit(std::move(request)).get().status.code(),
              StatusCode::kResourceExhausted);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const Json expired = expiring.DebugStatus().Get("windows");
  expiring.Stop();
  EXPECT_EQ(expired.Get("records").AsInt(), 0);
  EXPECT_DOUBLE_EQ(expired.Get("shed_rate").AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(expired.Get("cache_hit_rate").AsDouble(), 0.0);
  for (const auto& [name, value] : expired.members()) {
    EXPECT_FALSE(StartsWith(name, "latency_seconds.")) << name;
  }
  EXPECT_EQ(expiring.audit_log().Tail(16).size(), 2u);
}

TEST_F(ServeFixture, DebugStatusMidSoakIsValidJsonAndRankClean) {
  if (!util::LockRankCheckingCompiled()) {
    GTEST_SKIP() << "built with KGPIP_NO_LOCK_RANK";
  }
  g_soak_rank_violations.store(0);
  util::SetLockRankCheckingEnabled(true);
  util::SetLockRankViolationHandler(&RecordSoakRankViolation);

  Server server(model_, FastOptions());
  ASSERT_TRUE(server.Start().ok());
  SoakOptions soak;
  soak.num_tenants = 2;
  soak.duration_seconds = 1.2;
  soak.request_deadline_seconds = 10.0;
  SoakHarness harness(&server, soak);

  std::thread soak_thread([&harness] {
    auto summary = harness.Run();
    EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  });

  // Hammer the introspection path while the daemon is under load: every
  // snapshot must be parseable, structurally complete, and free of
  // lock-order violations (i.e. statusz can never deadlock the server).
  int snapshots = 0;
  Stopwatch watch;
  while (watch.ElapsedSeconds() < 1.0) {
    Json status = server.DebugStatus();
    auto parsed = Json::Parse(status.Dump(2));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    for (const char* key :
         {"queue", "inflight", "tenants", "cache", "audit", "windows",
          "counters", "pool", "locks", "options", "isa_level"}) {
      EXPECT_TRUE(parsed->Has(key)) << "missing statusz key " << key;
    }
    EXPECT_FALSE(server.DebugStatusText().empty());
    ++snapshots;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  soak_thread.join();
  server.Stop();

  util::SetLockRankViolationHandler(nullptr);
  util::SetLockRankCheckingEnabled(false);

  EXPECT_GT(snapshots, 0);
  EXPECT_EQ(g_soak_rank_violations.load(), 0);
  // Post-soak the snapshot reflects the audit volume.
  EXPECT_GT(server.audit_log().records_written(), 0);
}

}  // namespace
}  // namespace kgpip::serve
