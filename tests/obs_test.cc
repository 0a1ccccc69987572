// Tests for the observability subsystem (src/obs): metric primitives,
// trace spans + Chrome export, stage profiles, and the end-to-end
// budget-attribution invariant Kgpip::Fit promises (stage seconds sum to
// roughly the fit wall time).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/kgpip.h"
#include "data/synthetic.h"
#include "hpo/trial_guard.h"
#include "obs/metrics.h"
#include "obs/stage_profile.h"
#include "obs/trace.h"
#include "util/request_context.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

TEST(HistogramTest, BucketBoundaries) {
  obs::Histogram h;  // scale 1e-6, growth 2, 48 buckets
  const int last = h.num_buckets() - 1;

  // Underflow bucket: zero, negatives, and anything at or below scale.
  EXPECT_EQ(h.BucketIndex(0.0), 0);
  EXPECT_EQ(h.BucketIndex(-3.5), 0);
  EXPECT_EQ(h.BucketIndex(1e-9), 0);
  EXPECT_EQ(h.BucketIndex(1e-6), 0);  // boundary is inclusive below

  // First exponential bucket: (scale, scale * growth].
  EXPECT_EQ(h.BucketIndex(1.5e-6), 1);
  EXPECT_EQ(h.BucketIndex(2e-6), 1);  // exact boundary stays low
  EXPECT_EQ(h.BucketIndex(2.5e-6), 2);

  // Overflow bucket: +inf, NaN, and anything past the last boundary.
  EXPECT_EQ(h.BucketIndex(kInf), last);
  EXPECT_EQ(h.BucketIndex(std::nan("")), last);
  EXPECT_EQ(h.BucketIndex(1e30), last);

  // Upper bounds are scale * growth^i, +inf at the end.
  EXPECT_DOUBLE_EQ(h.BucketUpperBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(h.BucketUpperBound(2), 4e-6);
  EXPECT_TRUE(std::isinf(h.BucketUpperBound(last)));
}

TEST(HistogramTest, EveryBoundaryLandsInItsOwnBucket) {
  obs::Histogram h;
  // A value exactly on bucket i's upper bound must index bucket i, and a
  // hair above must index i + 1 — across the whole range.
  for (int i = 1; i < h.num_buckets() - 1; ++i) {
    const double bound = h.BucketUpperBound(i);
    EXPECT_EQ(h.BucketIndex(bound), i) << "at bound " << bound;
    if (i + 1 < h.num_buckets() - 1) {
      EXPECT_EQ(h.BucketIndex(bound * 1.001), i + 1);
    }
  }
}

TEST(HistogramTest, AggregatesTrackFiniteSamplesOnly) {
  obs::Histogram h;
  h.Record(1.0);
  h.Record(2.0);
  h.Record(3.0);
  EXPECT_EQ(h.count(), 3);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);

  h.Record(kInf);  // counted, but sum/min/max stay finite
  h.Record(std::nan(""));
  EXPECT_EQ(h.count(), 5);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);

  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, ToJsonElidesEmptyBucketsAndMarksOverflow) {
  obs::Histogram h;
  h.Record(1.5e-6);  // bucket 1
  h.Record(kInf);    // overflow bucket
  Json json = h.ToJson();
  EXPECT_EQ(json.Get("count").AsInt(), 2);
  const Json& buckets = json.Get("buckets");
  ASSERT_TRUE(buckets.is_array());
  ASSERT_EQ(buckets.size(), 2u);  // 46 empty buckets elided
  EXPECT_DOUBLE_EQ(buckets.at(0).Get("le").AsDouble(), 2e-6);
  EXPECT_EQ(buckets.at(0).Get("count").AsInt(), 1);
  ASSERT_TRUE(buckets.at(1).Get("le").is_string());
  EXPECT_EQ(buckets.at(1).Get("le").AsString(), "+Inf");
}

// ---------------------------------------------------------------------
// Counters / registry
// ---------------------------------------------------------------------

TEST(MetricsRegistryTest, CounterIncrementsAreThreadSafe) {
  obs::MetricsRegistry registry;  // private registry, no cross-test state
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      // Lookup inside the thread too: find-or-create must be safe under
      // concurrent first access.
      obs::Counter* counter = registry.GetCounter("test.concurrent");
      obs::Histogram* hist = registry.GetHistogram("test.concurrent_hist");
      for (int i = 0; i < kIncrements; ++i) {
        counter->Increment();
        hist->Record(1e-5);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(registry.GetCounter("test.concurrent")->value(),
            static_cast<int64_t>(kThreads) * kIncrements);
  EXPECT_EQ(registry.GetHistogram("test.concurrent_hist")->count(),
            static_cast<int64_t>(kThreads) * kIncrements);
}

TEST(MetricsRegistryTest, PointersAreStableAcrossReset) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("test.stable");
  obs::Gauge* gauge = registry.GetGauge("test.gauge");
  counter->Increment(5);
  gauge->Set(2.5);
  registry.Reset();
  // Reset zeroes in place; cached pointers keep working.
  EXPECT_EQ(counter->value(), 0);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
  EXPECT_EQ(registry.GetCounter("test.stable"), counter);
  counter->Increment();
  EXPECT_EQ(registry.GetCounter("test.stable")->value(), 1);
}

TEST(MetricsRegistryTest, SnapshotListsAllThreeKinds) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.count")->Increment(3);
  registry.GetGauge("a.gauge")->Set(1.5);
  registry.GetHistogram("a.hist")->Record(0.25);
  Json json = registry.ToJson();
  EXPECT_EQ(json.Get("counters").Get("a.count").AsInt(), 3);
  EXPECT_DOUBLE_EQ(json.Get("gauges").Get("a.gauge").AsDouble(), 1.5);
  EXPECT_EQ(json.Get("histograms").Get("a.hist").Get("count").AsInt(), 1);
}

TEST(MetricsRegistryTest, WriteJsonFileIsAtomicAndParses) {
  const std::string dir =
      std::filesystem::temp_directory_path() /
      StrFormat("kgpip_obs_test_%d", static_cast<int>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/metrics.json";

  obs::MetricsRegistry registry;
  registry.GetCounter("file.count")->Increment(7);
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());
  // Overwrite must also work (rename over an existing snapshot).
  registry.GetCounter("file.count")->Increment();
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = Json::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Get("counters").Get("file.count").AsInt(), 8);

  // Temp-then-rename leaves no intermediate files behind.
  size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  // A directory that does not exist: an I/O error, and nothing created.
  std::filesystem::remove_all(dir);
  EXPECT_EQ(registry.WriteJsonFile(path).code(), StatusCode::kIoError);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

// ---------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------

/// Restores the tracer to disabled + empty whatever a test does.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Global().Disable();
    obs::Tracer::Global().Clear();
  }
  void TearDown() override {
    obs::Tracer::Global().Disable();
    obs::Tracer::Global().Clear();
  }
};

TEST_F(TracerTest, DisabledSpanIsInactiveAndRecordsNothing) {
  {
    obs::TraceSpan span("never.recorded");
    EXPECT_FALSE(span.active());
    span.SetAttr("ignored", 1.0);  // must be a no-op, not a crash
  }
  EXPECT_EQ(obs::Tracer::Global().num_events(), 0u);
}

TEST_F(TracerTest, SpansNestByDepthAndContainment) {
  obs::Tracer::Global().Enable();
  {
    obs::TraceSpan outer("outer");
    EXPECT_TRUE(outer.active());
    {
      obs::TraceSpan inner("inner");
      EXPECT_TRUE(inner.active());
    }
  }
  obs::Tracer::Global().Disable();

  std::vector<obs::TraceEvent> events = obs::Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Completion order: the inner span ends (and records) first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[0].tid, events[1].tid);
  // Timestamp containment — what Chrome/Perfetto uses to stack spans.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_LE(outer.start_us, inner.start_us);
  EXPECT_LE(inner.start_us + inner.dur_us,
            outer.start_us + outer.dur_us + 1e-3);
}

TEST_F(TracerTest, MacroAndAttrsLandInTheEvent) {
  obs::Tracer::Global().Enable();
  {
    obs::TraceSpan span("attrs");
    span.SetAttr("dataset", std::string("demo"));
    span.SetAttr("score", 0.75);
    span.SetAttr("trials", static_cast<int64_t>(12));
    KGPIP_TRACE_SPAN("macro.span");
  }
  obs::Tracer::Global().Disable();
  std::vector<obs::TraceEvent> events = obs::Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "macro.span");
  const obs::TraceEvent& attrs = events[1];
  std::set<std::string> keys;
  for (const auto& [key, value] : attrs.args) keys.insert(key);
  EXPECT_TRUE(keys.count("dataset"));
  EXPECT_TRUE(keys.count("score"));
  EXPECT_TRUE(keys.count("trials"));
}

TEST_F(TracerTest, ChromeJsonRoundTripsThroughUtilJson) {
  obs::Tracer::Global().Enable();
  {
    obs::TraceSpan outer("kgpip.fit");
    obs::TraceSpan inner("hpo.trial");
  }
  obs::Tracer::Global().Disable();

  std::string dumped = obs::Tracer::Global().ToChromeJson().Dump(2);
  auto parsed = Json::Parse(dumped);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Get("displayTimeUnit").AsString(), "ms");
  const Json& events = parsed->Get("traceEvents");
  ASSERT_TRUE(events.is_array());
  // Two complete ("X") span events plus process-name ("M") metadata.
  std::set<std::string> names;
  size_t spans = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    if (e.Get("ph").AsString() != "X") continue;
    ++spans;
    EXPECT_EQ(e.Get("pid").AsInt(), 1);
    EXPECT_GE(e.Get("dur").AsDouble(), 0.0);
    names.insert(e.Get("name").AsString());
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_TRUE(names.count("kgpip.fit"));
  EXPECT_TRUE(names.count("hpo.trial"));
}

TEST_F(TracerTest, TrialSpanNamesItsLearner) {
  // A Chrome trace splits trial time by learner and skeleton only if each
  // hpo.trial span says which learner it fit, under which guard group.
  DatasetSpec data_spec;
  data_spec.name = "trial_span";
  data_spec.rows = 120;
  Table table = GenerateDataset(data_spec);
  auto evaluator = hpo::TrialEvaluator::Create(
      table, TaskType::kBinaryClassification, 0.25, 3);
  ASSERT_TRUE(evaluator.ok()) << evaluator.status().ToString();
  hpo::TrialGuard guard(&*evaluator);
  ml::PipelineSpec spec;
  spec.learner = "gaussian_nb";
  guard.Evaluate(spec, 1, "untraced");
  obs::Tracer::Global().Enable();
  spec.learner = "decision_tree";
  guard.Evaluate(spec, 2, "traced");
  obs::Tracer::Global().Disable();
  int trial_spans = 0;
  for (const obs::TraceEvent& event : obs::Tracer::Global().Snapshot()) {
    if (event.name != "hpo.trial") continue;
    ++trial_spans;
    std::map<std::string, std::string> args(event.args.begin(),
                                            event.args.end());
    EXPECT_EQ(args["learner"], "decision_tree");
    EXPECT_EQ(args["skeleton"], "traced");
  }
  EXPECT_EQ(trial_spans, 1);
}

TEST_F(TracerTest, CapacityDropsExcessEventsAndCountsThem) {
  obs::Tracer::Global().set_capacity(3);
  obs::Tracer::Global().Enable();
  for (int i = 0; i < 5; ++i) {
    obs::TraceSpan span("burst");
  }
  obs::Tracer::Global().Disable();
  EXPECT_EQ(obs::Tracer::Global().num_events(), 3u);
  EXPECT_EQ(obs::Tracer::Global().dropped_events(), 2u);
  obs::Tracer::Global().set_capacity(1u << 20);
}

TEST_F(TracerTest, DroppedSpansFeedTheCounterAndTheChromeFooter) {
  obs::Counter* dropped =
      obs::MetricsRegistry::Global().GetCounter("obs.trace.dropped_spans");
  const int64_t before = dropped->value();

  obs::Tracer::Global().set_capacity(2);
  obs::Tracer::Global().Enable();
  for (int i = 0; i < 6; ++i) {
    obs::TraceSpan span("overflow");
  }
  obs::Tracer::Global().Disable();

  // Drops are visible in the lifetime metric (alerting surface) and in
  // the export itself, so a truncated trace is never mistaken for a
  // complete one.
  EXPECT_EQ(dropped->value() - before, 4);
  Json chrome = obs::Tracer::Global().ToChromeJson();
  EXPECT_EQ(chrome.Get("kgpipDroppedEvents").AsInt(), 4);

  obs::Tracer::Global().set_capacity(1u << 20);
  obs::Tracer::Global().Clear();
  // A clean trace exports an explicit zero, not a missing key.
  EXPECT_EQ(obs::Tracer::Global().ToChromeJson().Get("kgpipDroppedEvents")
                .AsInt(),
            0);
}

TEST_F(TracerTest, SpansCaptureTheAmbientRequestContext) {
  obs::Tracer::Global().Enable();
  {
    util::ScopedRequestContext ctx(42, "acme");
    obs::TraceSpan span("ctx.tagged");
  }
  {
    obs::TraceSpan span("ctx.untagged");
  }
  obs::Tracer::Global().Disable();

  std::vector<obs::TraceEvent> events = obs::Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].request_id, 42u);
  EXPECT_EQ(events[0].tenant, "acme");
  EXPECT_EQ(events[1].request_id, 0u);

  // Chrome export: tagged spans move to a per-request virtual process
  // (named via an "M" metadata event); untagged spans stay on pid 1.
  Json chrome = obs::Tracer::Global().ToChromeJson();
  int64_t tagged_pid = -1;
  int64_t untagged_pid = -1;
  bool saw_request_process_name = false;
  for (const Json& e : chrome.Get("traceEvents").items()) {
    if (e.Get("name").AsString() == "ctx.tagged") {
      tagged_pid = e.Get("pid").AsInt();
      EXPECT_EQ(e.Get("args").Get("request_id").AsInt(), 42);
      EXPECT_EQ(e.Get("args").Get("tenant").AsString(), "acme");
    } else if (e.Get("name").AsString() == "ctx.untagged") {
      untagged_pid = e.Get("pid").AsInt();
    } else if (e.Get("ph").AsString() == "M" &&
               e.Get("name").AsString() == "process_name") {
      const std::string label = e.Get("args").Get("name").AsString();
      if (label.find("request 42") != std::string::npos &&
          label.find("acme") != std::string::npos) {
        saw_request_process_name = true;
        EXPECT_GT(e.Get("pid").AsInt(), 1);
      }
    }
  }
  EXPECT_GT(tagged_pid, 1);
  EXPECT_EQ(untagged_pid, 1);
  EXPECT_TRUE(saw_request_process_name);
}

TEST_F(TracerTest, PoolChunksInheritTheSubmittersRequestContext) {
  // The propagation contract that makes request-scoped tracing work at
  // all: spans opened inside ParallelFor bodies — which run on pool
  // lanes, not the submitting thread — still carry the submitter's ids.
  util::ThreadPool pool(2);
  obs::Tracer::Global().Enable();
  {
    util::ScopedRequestContext ctx(77, "fanout");
    pool.ParallelFor(8, [](size_t /*item*/) {
      obs::TraceSpan span("pool.chunk_span");
    });
  }
  obs::Tracer::Global().Disable();

  int chunk_spans = 0;
  for (const obs::TraceEvent& event : obs::Tracer::Global().Snapshot()) {
    if (event.name != "pool.chunk_span") continue;
    ++chunk_spans;
    EXPECT_EQ(event.request_id, 77u) << "lost context on a pool lane";
    EXPECT_EQ(event.tenant, "fanout");
  }
  EXPECT_EQ(chunk_spans, 8);

  // The lane restored its own (empty) context afterwards.
  EXPECT_FALSE(util::CurrentRequestContext().active());
}

// ---------------------------------------------------------------------
// Stage profile
// ---------------------------------------------------------------------

TEST(StageProfileTest, AccumulatesInInsertionOrder) {
  obs::StageProfile profile;
  profile.Add("predict", 0.25);
  profile.Add("search", 1.0);
  profile.Add("predict", 0.25);
  ASSERT_EQ(profile.stages.size(), 2u);
  EXPECT_EQ(profile.stages[0].name, "predict");
  EXPECT_DOUBLE_EQ(profile.stages[0].seconds, 0.5);
  EXPECT_EQ(profile.stages[0].count, 2);
  EXPECT_DOUBLE_EQ(profile.StageSeconds("search"), 1.0);
  EXPECT_DOUBLE_EQ(profile.StageSeconds("missing"), 0.0);
  EXPECT_DOUBLE_EQ(profile.SumSeconds(), 1.5);

  Json json = profile.ToJson();
  ASSERT_EQ(json.Get("stages").size(), 2u);
  EXPECT_EQ(json.Get("stages").at(1).Get("name").AsString(), "search");
}

TEST(StageProfileTest, StageTimerMeasuresItsScope) {
  obs::StageProfile profile;
  {
    obs::StageTimer timer(&profile, "work");
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  }
  EXPECT_GT(profile.StageSeconds("work"), 0.0);
  EXPECT_EQ(profile.stages[0].count, 1);
}

// ---------------------------------------------------------------------
// End-to-end: Fit attaches a stage profile that tiles its wall time
// ---------------------------------------------------------------------

TEST(FitStageProfileTest, StagesCoverFitWallTime) {
  DatasetSpec spec;
  spec.name = "obs_fit";
  spec.rows = 220;
  spec.num_numeric = 6;
  spec.num_categorical = 1;
  Table table = GenerateDataset(spec);

  // Untrained Fit exercises the fallback rung too — six stages total.
  core::Kgpip kgpip;
  Stopwatch watch;
  auto result = kgpip.Fit(table, TaskType::kBinaryClassification,
                          hpo::Budget(8, 1e9), 17);
  const double wall = watch.ElapsedSeconds();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const obs::StageProfile& profile = result->report.stage_profile;
  ASSERT_GE(profile.stages.size(), 5u);
  for (const obs::StageProfile::Stage& stage : profile.stages) {
    EXPECT_GT(stage.seconds, 0.0) << stage.name;
    EXPECT_GE(stage.count, 1) << stage.name;
  }
  EXPECT_GT(profile.StageSeconds("fit.predict_skeletons"), 0.0);
  EXPECT_GT(profile.StageSeconds("fit.hpo_search"), 0.0);
  EXPECT_GT(profile.StageSeconds("fit.finalize"), 0.0);

  // The attribution invariant: stage seconds tile the fit, so their sum
  // lands within 10% of the profile's own end-to-end clock, which in
  // turn cannot exceed the caller-observed wall time.
  EXPECT_GT(profile.total_seconds, 0.0);
  EXPECT_LE(profile.total_seconds, wall);
  EXPECT_NEAR(profile.SumSeconds(), profile.total_seconds,
              0.10 * profile.total_seconds);

  // And the report serializes it.
  Json json = result->report.ToJson();
  const Json& stage_json = json.Get("stage_profile");
  ASSERT_TRUE(stage_json.is_object());
  EXPECT_GE(stage_json.Get("stages").size(), 5u);
}

TEST(FitStageProfileTest, EmptyProfileStaysOutOfReportJson) {
  hpo::RunReport report;
  EXPECT_TRUE(report.stage_profile.empty());
  EXPECT_TRUE(report.ToJson().Get("stage_profile").is_null());
}

}  // namespace
}  // namespace kgpip
