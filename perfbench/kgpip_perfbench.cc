// End-to-end benchmark of KGpip: one process runs one workload for a
// fixed time, checks every output, and prints its metrics. See README.md
// in this directory for the workloads and metrics; run it through
// `python3 perfbench/run.py`, which builds this binary first.
//
//   kgpip_perfbench --workload train|fit_sweep|predict|serve_open
//                   --seed N --seconds S --trace 0|1
//                   [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// The last stdout line is the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1. A traced run records obs::TraceSpan spans from this file
// around every layer call (alongside the spans the library already
// emits) and also runs each operation untraced, so it reports its own
// tracing overhead.
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "automl/system.h"
#include "bench_util.h"
#include "codegraph/analyzer.h"
#include "codegraph/corpus.h"
#include "core/kgpip.h"
#include "data/benchmark_registry.h"
#include "data/synthetic.h"
#include "embed/embedder.h"
#include "embed/sim_index.h"
#include "graph4ml/filter.h"
#include "graph4ml/graph4ml.h"
#include "hpo/evaluator.h"
#include "ml/learner.h"
#include "nn/simd_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "util/logging.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace kgpip::perfbench {
namespace {

// ---- Fixed workload parameters (the benchmark's definition) ----------

/// Seed of the serving model every non-train workload trains at set-up;
/// fixed so that only the workload inputs vary with --seed.
constexpr uint64_t kModelSeed = 2022;
/// Content seed of the fit_sweep and serve_open tables. Fixed, because
/// the cost of a fit swings with the HPO path a table's content sends
/// the optimizer down; there --seed orders the sweep and draws the
/// arrival schedule instead (see README.md).
constexpr uint64_t kContentSeed = 77;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;
/// fit_sweep: the quick Table 2 protocol's trial budget and test split.
constexpr int kFitTrials = 14;
constexpr double kTestFraction = 0.25;
/// predict: tables in the stream (four reseeded variants per eval spec).
constexpr int kPredictTables = 308;
/// serve_open: daemon shape and offered load. kServeRate keeps the two
/// workers 23-30% busy on this request mix (the `utilization` detail);
/// at 7.5 req/s (~42%) queueing behind heavy fits spread the cache-miss
/// latency IQM of ten seeds by 0.24 of its median, at 6 req/s by 0.09.
constexpr int kServeWorkers = 2;
constexpr int kServeTenants = 4;
constexpr int kServeTrials = 4;
constexpr double kServeRate = 6.0;
/// Every kRepeatEvery-th request repeats the table of a seeded earlier
/// request due at least kRepeatMinLag requests before it, so the first
/// answer is in the result cache when it arrives. A repeat of a request
/// still in flight waited for it for up to 450 ms, and seeded repeat
/// positions shifted the heavy fits between seeds.
constexpr size_t kRepeatEvery = 5;
constexpr size_t kRepeatMinLag = 15;
/// Requests per schedule: the cache misses among them leave >= 10
/// samples beyond their p90.
constexpr size_t kMinServeRequests = 150;
/// Goodput counts ok responses within this latency (from due time).
constexpr double kGoodputLimitMs = 2000.0;
/// A generator that submits a request later than this is "behind" and
/// the run is invalid.
constexpr double kMaxSchedLagMs = 100.0;
/// Longest wait for any serve response before it counts as stuck.
constexpr double kStuckSeconds = 60.0;
/// The fit_sweep stages must cover this share of Fit wall time.
constexpr double kMinStageTiling = 0.95;
/// Probe datasets per task for the per-learner timings.
constexpr int kLearnerProbesPerTask = 2;
/// Thread-pool lanes (capped by the host's cores). On a shared 4-vCPU
/// VM, the more vCPUs a run kept busy, the more CPU time the hypervisor
/// stole, and the more its parallel loops waited on a stolen lane: the
/// same predict run read 0.96 ms to 2.7 ms per call at four lanes (steal
/// 9-19%), and Kgpip::Train took 17.6 s to 21.9 s at three (steal
/// 1-9%). At two lanes steal stayed under 0.5% and train agreed within
/// 5% across seeds. predict runs on one lane: its calls take about a
/// millisecond, too short to spread over lanes without waiting on the
/// slowest one, and in serving many such calls share the cores anyway,
/// so the work of one call is what sets capacity. Its set-up still runs
/// on kLanes, like every other workload's.
constexpr int kLanes = 2;
constexpr int kPredictLanes = 1;

// ---- Arguments and result ---------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/results";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (args->seconds <= 0.0) {
    *error = "--seconds must be positive";
    return false;
  }
  return true;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run found: the output checks, the operation counts,
/// the metrics of the final line, and details for the result file.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  Json details = Json::Object();

  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (violations.size() < 20) violations.push_back(what);
  }
  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    for (Metric& m : per_layer) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    per_layer.push_back({name, value, unit});
  }
  void Detail(const std::string& name, Json value) {
    details.Set(name, std::move(value));
  }
};

/// Every per-layer metric, in the order BENCHMARK.json lists them. A
/// traced run reports all of them; a layer the workload does not
/// exercise reads 0.
std::vector<Metric> PerLayerCatalog() {
  std::vector<Metric> catalog = {
      {"codegraph.corpus_s", 0, "s"},
      {"codegraph.analyze_s", 0, "s"},
      {"codegraph.scripts", 0, "count"},
      {"graph4ml.build_s", 0, "s"},
      {"graph4ml.filter_s", 0, "s"},
      {"graph4ml.keep_ratio", 0, "ratio"},
      {"gen.train_s", 0, "s"},
      {"gen.train_epoch_s_mean", 0, "s"},
      {"pool.tasks_executed", 0, "count"},
      {"pool.steals", 0, "count"},
      {"embed.index_build_s", 0, "s"},
      {"embed.embed_ms_p50", 0, "ms"},
      {"embed.search_ms_p50", 0, "ms"},
      {"gen.decode_ms_p50", 0, "ms"},
      {"gen.decode_ms_p99", 0, "ms"},
      {"gen.lint_reject_ratio", 0, "ratio"},
      {"gen.fallback_frac", 0, "ratio"},
      {"hpo.trials", 0, "count"},
      {"hpo.trial_ms_p50", 0, "ms"},
      {"hpo.trial_ms_p90", 0, "ms"},
      {"hpo.trial_failures", 0, "count"},
      {"hpo.search_share", 0, "ratio"},
      {"ml.featurize_ms_p50", 0, "ms"},
      {"ml.finalize_ms_p50", 0, "ms"},
      {"core.predict_share", 0, "ratio"},
      {"core.stage_tiling", 0, "ratio"},
      {"serve.queue_wait_ms_p50", 0, "ms"},
      {"serve.queue_wait_ms_p90", 0, "ms"},
      {"serve.run_ms_p50", 0, "ms"},
      {"serve.run_ms_p90", 0, "ms"},
      {"serve.cache_hit_ratio", 0, "ratio"},
      {"serve.query_hit_ratio", 0, "ratio"},
      {"serve.shed", 0, "count"},
      {"serve.fail_frac", 0, "ratio"},
      {"serve.degraded_frac", 0, "ratio"},
      {"serve.sched_lag_ms_max", 0, "ms"},
      {"trace.overhead_ms", 0, "ms"},
      {"trace.overhead_frac", 0, "ratio"},
      {"trace.spans", 0, "count"},
  };
  for (const ml::LearnerInfo& info : ml::LearnerRegistry()) {
    catalog.push_back({"ml.learner_ms." + info.name, 0, "ms"});
  }
  return catalog;
}

// ---- Small measurement helpers ----------------------------------------

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Median wall time of `repeats` calls of `fn`.
template <typename Fn>
double MedianSeconds(int repeats, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    Stopwatch watch;
    fn();
    times.push_back(watch.ElapsedSeconds());
  }
  return Quantile(times, 0.5);
}

/// Turns the process tracer on for the traced half of a traced run and
/// off again, so the untraced operations it is compared with stay
/// untraced. A no-op when `on` is false.
class TracedSection {
 public:
  explicit TracedSection(bool on) : on_(on) {
    if (on_) obs::Tracer::Global().Enable();
  }
  ~TracedSection() {
    if (on_) obs::Tracer::Global().Disable();
  }
  TracedSection(const TracedSection&) = delete;
  TracedSection& operator=(const TracedSection&) = delete;

 private:
  const bool on_;
};

/// Records a span whose bounds come from elsewhere (the audit log), on
/// its own track `tid`.
void RecordSpan(const std::string& name, double start_us, double end_us,
                int tid, int depth) {
  obs::TraceEvent event;
  event.name = name;
  event.start_us = start_us;
  event.dur_us = end_us - start_us;
  event.tid = tid;
  event.depth = depth;
  obs::Tracer::Global().Record(std::move(event));
}

/// Tail latency by the percentile rule; the maximum when there are too
/// few samples for any percentile.
double Tail(const std::vector<double>& values, double* percentile) {
  *percentile = TailPercentile(values.size());
  if (*percentile == 0.0) {
    return values.empty() ? 0.0
                          : *std::max_element(values.begin(), values.end());
  }
  return Quantile(values, *percentile / 100.0);
}

obs::Counter* CounterNamed(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

/// Per-bucket counts of a histogram, to difference around a region.
std::vector<int64_t> BucketCounts(const obs::Histogram& h) {
  std::vector<int64_t> counts;
  for (int i = 0; i < h.num_buckets(); ++i) counts.push_back(h.bucket_count(i));
  return counts;
}

/// Quantile of histogram bucket counts, interpolated geometrically
/// inside the bucket (the buckets grow by a constant ratio).
double BucketQuantile(const obs::Histogram& h,
                      const std::vector<int64_t>& counts, double q) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  double seen = 0.0;
  for (int i = 0; i < h.num_buckets(); ++i) {
    const double c = static_cast<double>(counts[static_cast<size_t>(i)]);
    if (c <= 0.0 || seen + c < rank) {
      seen += c;
      continue;
    }
    const double hi = h.BucketUpperBound(i);
    if (i == 0 || !std::isfinite(hi)) return std::isfinite(hi) ? hi : h.max();
    const double lo = hi / h.options().growth;
    const double frac = std::clamp((rank - seen) / c, 0.0, 1.0);
    return lo * std::pow(hi / lo, frac);
  }
  return h.max();
}

std::string SkeletonsDigestText(const std::vector<gen::ScoredSkeleton>& s) {
  std::string text;
  char buf[64];
  for (const gen::ScoredSkeleton& skeleton : s) {
    std::snprintf(buf, sizeof(buf), "|%.17g;", skeleton.log_prob);
    text += skeleton.spec.ToString() + buf;
  }
  return text;
}

/// Tallies how many predicted learners are ones that genuinely fit the
/// dataset's concept family (FamilyAffineLearners): the affine@k counts.
void CountAffine(const std::vector<gen::ScoredSkeleton>& skeletons,
                 const DatasetSpec& spec, int64_t* affine,
                 int64_t* predicted) {
  const std::vector<std::string> fitting =
      FamilyAffineLearners(spec.family, spec.task);
  for (const gen::ScoredSkeleton& s : skeletons) {
    *affine += std::count(fitting.begin(), fitting.end(), s.spec.learner);
    ++*predicted;
  }
}

// ---- Inputs -------------------------------------------------------------

const BenchmarkRegistry& Registry() {
  static const BenchmarkRegistry* registry = new BenchmarkRegistry();
  return *registry;
}

/// The serving model: the quick Table 2 training recipe (8 generator
/// epochs over 6 pipelines + 2 noise scripts per training dataset).
struct ServingModel {
  std::unique_ptr<core::Kgpip> flaml;
  std::unique_ptr<core::Kgpip> autosklearn;
  double train_loss = 0.0;
};

ServingModel TrainServingModel(bool with_autosklearn, Report* report) {
  core::KgpipConfig config;
  config.generator_epochs = 8;
  codegraph::CorpusOptions corpus;
  corpus.pipelines_per_dataset = 6;
  corpus.noise_scripts_per_dataset = 2;
  corpus.seed = kModelSeed;
  ServingModel model;
  model.flaml = std::make_unique<core::Kgpip>(config);
  Status trained =
      model.flaml->Train(Registry().TrainingSpecs(), corpus,
                         kModelSeed);
  report->Check(trained.ok(), "serving model training: " + trained.ToString());
  model.train_loss =
      obs::MetricsRegistry::Global().GetGauge("gen.train_loss")->value();
  if (with_autosklearn) {
    config.optimizer = "autosklearn";
    model.autosklearn = std::make_unique<core::Kgpip>(config);
    Status loaded = model.autosklearn->LoadJson(model.flaml->ToJson());
    report->Check(loaded.ok(), "autosklearn host load: " + loaded.ToString());
  }
  return model;
}

/// Eval spec `spec` with its content reseeded by the workload seed.
DatasetSpec Reseeded(DatasetSpec spec, uint64_t seed, uint64_t salt) {
  spec.seed = Mix(seed, spec.seed * 1000003ULL + salt);
  return spec;
}

struct EvalCase {
  DatasetSpec spec;
  TrainTestSplit split;
};

/// `count` datasets walking the 77 Table-4 eval specs in order (the
/// first 77 are the whole registry), each with its own reseeded content,
/// split 75/25.
std::vector<EvalCase> MakeEvalCases(uint64_t seed, size_t count) {
  std::vector<EvalCase> cases;
  const std::vector<DatasetSpec>& specs = Registry().eval_specs();
  for (size_t i = 0; i < count; ++i) {
    EvalCase c;
    c.spec = Reseeded(specs[i % specs.size()], seed, i);
    c.split = SplitTable(GenerateDataset(c.spec), kTestFraction,
                         Mix(seed, 7000 + i));
    cases.push_back(std::move(c));
  }
  return cases;
}

size_t NumEvalSpecs() { return Registry().eval_specs().size(); }

struct PredictCase {
  DatasetSpec spec;
  Table table;
  uint64_t call_seed = 0;
};

/// Unseen tables: every eval spec four times, reseeded, with numeric and
/// categorical widths jittered so embed cost varies like real uploads.
std::vector<PredictCase> MakePredictCases(uint64_t seed) {
  std::vector<PredictCase> cases;
  const std::vector<DatasetSpec>& specs = Registry().eval_specs();
  for (int j = 0; j < kPredictTables; ++j) {
    PredictCase c;
    c.spec = Reseeded(specs[static_cast<size_t>(j) % specs.size()], seed,
                      static_cast<uint64_t>(j) + 1);
    Rng rng(Mix(seed, 9000 + static_cast<uint64_t>(j)));
    c.spec.num_numeric =
        std::max(1, c.spec.num_numeric + static_cast<int>(rng.UniformInt(-2, 2)));
    c.spec.num_categorical = std::max(
        0, c.spec.num_categorical + static_cast<int>(rng.UniformInt(-1, 1)));
    c.table = GenerateDataset(c.spec);
    c.call_seed = Mix(seed, 11000 + static_cast<uint64_t>(j));
    cases.push_back(std::move(c));
  }
  return cases;
}

// ---- The benchmark -------------------------------------------------------

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)) {}

  /// Runs the workload; fills report_.
  bool Run();

  const Report& report() const { return report_; }

 private:
  void RunTrain();
  void RunFitSweep();
  void RunPredict();
  void RunServe();

  /// The traced half of `train`: Kgpip::Train's own steps, one span each,
  /// plus per-layer attribution passes outside the training span.
  void TraceTrain(const std::vector<DatasetSpec>& specs,
                  const codegraph::CorpusOptions& corpus, double untraced_s,
                  double untraced_loss);
  /// Per-learner default-spec timings on a few probe datasets.
  void ProbeLearners(const std::vector<EvalCase>& cases);

  struct ServeRequest {
    serve::FitRequest request;
    Table test;  // held-out rows of the request's table, for scoring
  };
  struct ScheduleResult {
    std::vector<double> latency_ms;  // from due time, every response
    std::vector<double> miss_latency_ms;  // the same, cache misses only
    std::vector<serve::ServeResponse> responses;
    std::vector<double> lag_ms;
    std::vector<Json> audit;
    int64_t ok = 0;
    int64_t good = 0;  // ok within the goodput limit
    double span_s = 0.0;  // schedule start to the last response
    bool stuck = false;
  };
  ScheduleResult RunSchedule(const core::Kgpip& model,
                             const std::vector<ServeRequest>& requests,
                             const std::vector<double>& offsets,
                             bool traced);

  Args args_;
  Report report_;
  // Shared end-to-end metrics, set by each workload.
  double setup_s_ = 0.0;
  double train_loss_ = 0.0;
};

bool Bench::Run() {
  if (args_.trace) {
    for (const Metric& m : PerLayerCatalog()) {
      report_.Layer(m.name, m.value, m.unit);
    }
  }
  if (args_.workload == "train") {
    RunTrain();
  } else if (args_.workload == "fit_sweep") {
    RunFitSweep();
  } else if (args_.workload == "predict") {
    RunPredict();
  } else if (args_.workload == "serve_open") {
    RunServe();
  } else {
    return false;
  }
  if (args_.trace) {
    report_.Layer("trace.spans",
                  static_cast<double>(obs::Tracer::Global().num_events()),
                  "count");
  }
  // Shared end-to-end metrics; the workload already added the rest.
  report_.EndToEnd("train_loss", train_loss_, "nll");
  report_.EndToEnd("setup_s", setup_s_, "s");
  report_.EndToEnd("peak_rss_mb", PeakRssMib(), "MiB");
  return true;
}

// -- train ----------------------------------------------------------------

void Bench::RunTrain() {
  const BenchmarkRegistry& registry = Registry();
  std::vector<DatasetSpec> specs;
  codegraph::CorpusOptions corpus;  // default: 12 pipelines + 8 noise
  // Set-up: derive the seeded training specs, and warm the allocator,
  // pool and code paths by training the serving model, as every other
  // workload's set-up does.
  const double setup_s = MedianSeconds(kSetupRepeats, [&] {
    specs.clear();
    for (const DatasetSpec& spec : registry.TrainingSpecs()) {
      specs.push_back(Reseeded(spec, args_.seed, 0));
    }
    corpus = codegraph::CorpusOptions();
    corpus.seed = Mix(args_.seed, 1);
    TrainServingModel(/*with_autosklearn=*/false, &report_);
  });

  // Whole Kgpip::Train calls (paper-scale corpus, default config: 30
  // epochs) while the next one is predicted to end inside the window.
  std::vector<double> train_ms;
  std::unique_ptr<core::Kgpip> model;
  double loss = 0.0;
  size_t pipelines = 0;
  Stopwatch window;
  do {
    model = std::make_unique<core::Kgpip>(core::KgpipConfig());
    ++report_.attempted;
    Stopwatch watch;
    Status trained = model->Train(specs, corpus, args_.seed);
    train_ms.push_back(watch.ElapsedMillis());
    if (!trained.ok()) {
      ++report_.failed;
      report_.Check(false, "Kgpip::Train: " + trained.ToString());
      break;
    }
    loss = obs::MetricsRegistry::Global().GetGauge("gen.train_loss")->value();
    pipelines = model->store().NumPipelines();
    report_.Check(model->trained() && pipelines > 0,
                  "training kept no pipelines");
    report_.Check(std::isfinite(loss) && loss > 0.0,
                  "final training loss is not a positive number");
  } while (window.ElapsedMillis() + Mean(train_ms) <=
           args_.seconds * 1e3);

  // Quality of what was trained: affine@k of its zero-shot predictions
  // on every eval spec, four reseeded tables each.
  int64_t affine = 0, predicted = 0;
  if (report_.correct) {
    for (const EvalCase& c : MakeEvalCases(args_.seed, 4 * NumEvalSpecs())) {
      auto skeletons =
          model->PredictSkeletons(c.split.train, c.spec.task, args_.seed);
      report_.Check(skeletons.ok() && !skeletons->empty(),
                    "trained model predicted nothing for " + c.spec.name);
      if (skeletons.ok()) CountAffine(*skeletons, c.spec, &affine, &predicted);
    }
  }
  const double quality =
      predicted > 0 ? static_cast<double>(affine) / predicted : 0.0;
  report_.Check(quality > 0.0, "no affine learner predicted");

  double tail_pct = 0.0;
  const double train_mean = Mean(train_ms);
  report_.EndToEnd("latency_ms_iqm", InterquartileMean(train_ms), "ms");
  report_.EndToEnd("latency_ms_tail", Tail(train_ms, &tail_pct), "ms");
  const double examples_per_s =
      static_cast<double>(pipelines) * core::KgpipConfig().generator_epochs /
      (train_mean / 1e3);
  report_.EndToEnd("throughput_per_s", examples_per_s, "1/s");
  report_.EndToEnd("quality", quality, "score");
  setup_s_ = setup_s;
  train_loss_ = loss;
  report_.Detail("train_s", train_mean / 1e3);
  report_.Detail("train_loss", loss);
  report_.Detail("train_calls", static_cast<int64_t>(train_ms.size()));
  report_.Detail("pipelines_kept", static_cast<int64_t>(pipelines));
  report_.Detail("predict_affine_at_k", quality);

  if (args_.trace && report_.correct) {
    TraceTrain(specs, corpus, train_mean / 1e3, loss);
  }
}

void Bench::TraceTrain(const std::vector<DatasetSpec>& specs,
                       const codegraph::CorpusOptions& corpus,
                       double untraced_s, double untraced_loss) {
  TracedSection traced_section(true);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  core::Kgpip model{core::KgpipConfig()};
  std::vector<codegraph::NotebookScript> scripts;
  graph4ml::Graph4Ml store;
  std::map<std::string, Table> tables;
  double corpus_s = 0, build_s = 0, traced_s = 0;
  {
    obs::TraceSpan train("core.train");
    Stopwatch total;
    {
      obs::TraceSpan span("codegraph.generate_corpus");
      Stopwatch watch;
      scripts = codegraph::CorpusGenerator(corpus).GenerateCorpus(specs);
      corpus_s = watch.ElapsedSeconds();
    }
    {
      obs::TraceSpan span("graph4ml.store_build");
      Stopwatch watch;
      report_.Check(store.Build(scripts).ok(), "Graph4Ml::Build failed");
      build_s = watch.ElapsedSeconds();
    }
    {
      obs::TraceSpan span("data.generate_tables");
      for (const DatasetSpec& spec : specs) {
        tables.emplace(spec.name, GenerateDataset(spec));
      }
    }
    {
      obs::TraceSpan span("core.train_from_store");
      Status trained = model.TrainFromStore(store, tables, args_.seed);
      report_.Check(trained.ok(), "TrainFromStore: " + trained.ToString());
    }
    traced_s = total.ElapsedSeconds();
  }
  const double loss = metrics.GetGauge("gen.train_loss")->value();
  report_.Check(loss == untraced_loss,
                "traced training reached another loss than Kgpip::Train");
  // The layers' own records of the traced TrainFromStore: its index
  // build, and the generator epochs that follow the embedding and index.
  const obs::Histogram* epochs =
      metrics.GetHistogram("gen.train_epoch_seconds");
  report_.Layer("gen.train_s", epochs->sum(), "s");
  report_.Layer("gen.train_epoch_s_mean",
                epochs->count() > 0 ? epochs->sum() / epochs->count() : 0.0,
                "s");
  report_.Layer("embed.index_build_s",
                metrics.GetHistogram("embed.index_build_seconds")->sum(), "s");
  report_.Layer("pool.tasks_executed",
                static_cast<double>(CounterNamed("pool.tasks_executed")->value()),
                "count");
  report_.Layer("pool.steals",
                static_cast<double>(CounterNamed("pool.steals")->value()),
                "count");

  // Attribution pass (outside core.train): Graph4Ml::Build analyzes and
  // filters in parallel, so its halves are timed serially here; their
  // sums are the layers' CPU seconds.
  double analyze_s = 0, filter_s = 0;
  {
    obs::TraceSpan attribution("perfbench.attribution");
    std::vector<std::optional<codegraph::CodeGraph>> graphs(scripts.size());
    {
      obs::TraceSpan span("codegraph.analyze");
      Stopwatch watch;
      for (size_t i = 0; i < scripts.size(); ++i) {
        auto graph = codegraph::AnalyzeScript(scripts[i].name, scripts[i].text);
        if (graph.ok()) graphs[i] = std::move(*graph);
      }
      analyze_s = watch.ElapsedSeconds();
    }
    size_t kept = 0;
    {
      obs::TraceSpan span("graph4ml.filter");
      Stopwatch watch;
      for (size_t i = 0; i < scripts.size(); ++i) {
        if (!graphs[i].has_value()) continue;
        kept += graph4ml::FilterCodeGraph(*graphs[i], scripts[i].dataset_name)
                        .valid()
                    ? 1
                    : 0;
      }
      filter_s = watch.ElapsedSeconds();
    }
    report_.Check(kept == store.scripts_kept(),
                  "serial analyze+filter kept another pipeline count");
  }

  report_.Layer("codegraph.corpus_s", corpus_s, "s");
  report_.Layer("codegraph.analyze_s", analyze_s, "s");
  report_.Layer("codegraph.scripts", static_cast<double>(scripts.size()),
                "count");
  report_.Layer("graph4ml.build_s", build_s, "s");
  report_.Layer("graph4ml.filter_s", filter_s, "s");
  report_.Layer("graph4ml.keep_ratio",
                static_cast<double>(store.scripts_kept()) /
                    std::max<size_t>(1, store.scripts_analyzed()),
                "ratio");
  report_.Layer("trace.overhead_ms", (traced_s - untraced_s) * 1e3, "ms");
  report_.Layer("trace.overhead_frac", (traced_s - untraced_s) / untraced_s,
                "ratio");
}

// -- fit_sweep ---------------------------------------------------------------

void Bench::RunFitSweep() {
  ServingModel model;
  std::vector<EvalCase> cases;
  const double setup_s = MedianSeconds(kSetupRepeats, [&] {
    model = TrainServingModel(/*with_autosklearn=*/true, &report_);
    cases = MakeEvalCases(kContentSeed, NumEvalSpecs());
  });
  if (!report_.correct) return;
  const core::Kgpip* hosts[] = {model.flaml.get(), model.autosklearn.get()};

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  obs::Histogram* trial_hist = metrics.GetHistogram("hpo.trial_seconds");
  obs::Counter* trials = CounterNamed("hpo.trials");
  obs::Counter* trial_failures = CounterNamed("hpo.trial_failures");
  std::vector<int64_t> trial_buckets(
      static_cast<size_t>(trial_hist->num_buckets()), 0);
  int64_t traced_trials = 0, traced_failures = 0;
  std::vector<double> fit_ms, featurize_ms, finalize_ms;
  std::vector<double> paired_fit_ms, traced_fit_ms;  // the traced subset
  double stage_sum = 0, stage_total = 0, search_s = 0, predict_s = 0;
  double score_sum = 0.0;
  double sweep_s = 0.0;  // untraced sweep steps: fits and their scoring
  const int64_t pool_tasks0 = CounterNamed("pool.tasks_executed")->value();
  const int64_t pool_steals0 = CounterNamed("pool.steals")->value();

  // One closed-loop caller: every eval dataset once, the two hosts
  // taking turns so that CFO (KGpipFLAML) and random search
  // (KGpipAutoSklearn) both run over the same learners.
  std::vector<uint64_t> dataset_digests(cases.size(), 0);
  for (size_t i : Rng(Mix(args_.seed, 0x0DE7)).Permutation(cases.size())) {
    const EvalCase& c = cases[i];
    const core::Kgpip* host = hosts[i % 2];
    const uint64_t fit_seed = Mix(kContentSeed, 1000 + i);
    const std::string label = host->name() + "/" + c.spec.name;
    ++report_.attempted;
    Stopwatch watch;  // the fit, then its scoring: one sweep step
    auto fitted = host->Fit(c.split.train, c.spec.task,
                            hpo::Budget(kFitTrials, 1e9), fit_seed);
    fit_ms.push_back(watch.ElapsedMillis());
    if (!fitted.ok()) {
      ++report_.failed;
      report_.Check(false, label + ": Fit failed: " +
                               fitted.status().ToString());
      continue;
    }
    auto score = fitted->fitted.ScoreTable(c.split.test);
    const bool score_ok = score.ok() && std::isfinite(*score) &&
                          *score <= 1.0 + 1e-9 &&
                          (IsClassification(c.spec.task) ? *score >= 0.0
                                                         : true);
    report_.Check(std::isfinite(fitted->validation_score),
                  label + ": validation score is not finite");
    report_.Check(score_ok, label + ": test score out of range");
    const double test_score = score.ok() ? std::max(0.0, *score) : 0.0;
    score_sum += test_score;
    char buf[96];
    std::snprintf(buf, sizeof(buf), "|%.17g|%.17g;",
                  fitted->validation_score, test_score);
    dataset_digests[i] = Fnv1a64(label + "|" + fitted->best_spec.ToString() + buf);
    sweep_s += watch.ElapsedSeconds();

    // Half the datasets (both hosts) get a traced repeat of the same fit,
    // which keeps a traced run well inside the time limit. The library
    // adds its own spans under these: Fit's stages (obs::StageTimer),
    // its trials and its parallel loops.
    if (!args_.trace || i % 4 >= 2) continue;
    paired_fit_ms.push_back(fit_ms.back());
    TracedSection traced_section(true);
    {
      obs::TraceSpan span("hpo.evaluator_create");
      Stopwatch create;
      auto evaluator = hpo::TrialEvaluator::Create(
          c.split.train, c.spec.task, kTestFraction, fit_seed);
      featurize_ms.push_back(create.ElapsedMillis());
      report_.Check(evaluator.ok(), label + ": TrialEvaluator::Create");
    }
    const std::vector<int64_t> before = BucketCounts(*trial_hist);
    const int64_t trials_before = trials->value();
    const int64_t failures_before = trial_failures->value();
    Result<automl::AutoMlResult> traced = Status::Internal("not run");
    {
      obs::TraceSpan span("core.fit");
      Stopwatch traced_watch;
      traced = host->Fit(c.split.train, c.spec.task,
                         hpo::Budget(kFitTrials, 1e9), fit_seed);
      traced_fit_ms.push_back(traced_watch.ElapsedMillis());
    }
    traced_trials += trials->value() - trials_before;
    traced_failures += trial_failures->value() - failures_before;
    const std::vector<int64_t> after = BucketCounts(*trial_hist);
    for (size_t b = 0; b < after.size(); ++b) {
      trial_buckets[b] += after[b] - before[b];
    }
    report_.Check(traced.ok() &&
                      traced->best_spec.ToString() ==
                          fitted->best_spec.ToString() &&
                      traced->validation_score == fitted->validation_score,
                  label + ": traced Fit differs from the untraced one");
    if (!traced.ok()) continue;
    const obs::StageProfile& profile = traced->report.stage_profile;
    stage_sum += profile.SumSeconds();
    stage_total += profile.total_seconds;
    search_s += profile.StageSeconds("fit.hpo_search");
    predict_s += profile.StageSeconds("fit.predict_skeletons");
    finalize_ms.push_back(profile.StageSeconds("fit.finalize") * 1e3);
  }

  // Outputs with the same seed must match across runs of the same
  // sources: keep the digest in the results directory, compare with it.
  uint64_t digest = Fnv1a64("fit_sweep");
  for (uint64_t d : dataset_digests) digest = Mix(digest, d);
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(digest));
  const std::string digest_path = args_.out_dir + "/fit_sweep-seed" +
                                  std::to_string(args_.seed) + "-" +
                                  args_.source_digest + ".digest";
  std::ifstream previous(digest_path);
  std::string seen;
  if (previous >> seen) {
    report_.Check(seen == hex,
                  "fit_sweep outputs differ from an earlier run of this seed");
  } else {
    std::ofstream(digest_path) << hex << "\n";
  }

  const double fits = static_cast<double>(fit_ms.size());
  double tail_pct = 0.0;
  const double tail = Tail(fit_ms, &tail_pct);
  report_.Check(tail_pct >= 75.0, "too few fits for a p75");
  report_.EndToEnd("latency_ms_iqm", InterquartileMean(fit_ms), "ms");
  report_.EndToEnd("latency_ms_tail", tail, "ms");
  report_.EndToEnd("throughput_per_s", fits / sweep_s, "1/s");
  const double test_score_mean = score_sum / std::max(1.0, fits);
  report_.EndToEnd("quality", test_score_mean, "score");
  setup_s_ = setup_s;
  train_loss_ = model.train_loss;
  report_.Detail("fit_s_p50", Quantile(fit_ms, 0.5) / 1e3);
  report_.Detail("fit_s_mean", Mean(fit_ms) / 1e3);
  report_.Detail("fit_s_p90", tail / 1e3);
  report_.Detail("fits_per_s", fits / sweep_s);
  report_.Detail("test_score_mean", test_score_mean);
  report_.Detail("fits", static_cast<int64_t>(fit_ms.size()));
  report_.Detail("digest", std::string(hex));

  if (!args_.trace) return;
  ProbeLearners(cases);
  const double tiling = stage_total > 0 ? stage_sum / stage_total : 0.0;
  report_.Check(tiling >= kMinStageTiling,
                "Fit stages tile less than 95% of Fit wall time");
  report_.Layer("hpo.trials", static_cast<double>(traced_trials), "count");
  report_.Layer("hpo.trial_failures", static_cast<double>(traced_failures),
                "count");
  report_.Layer("hpo.trial_ms_p50",
                BucketQuantile(*trial_hist, trial_buckets, 0.5) * 1e3, "ms");
  report_.Layer("hpo.trial_ms_p90",
                BucketQuantile(*trial_hist, trial_buckets, 0.9) * 1e3, "ms");
  report_.Layer("hpo.search_share", stage_total > 0 ? search_s / stage_total : 0,
                "ratio");
  report_.Layer("core.predict_share",
                stage_total > 0 ? predict_s / stage_total : 0, "ratio");
  report_.Layer("core.stage_tiling", tiling, "ratio");
  report_.Layer("ml.featurize_ms_p50", Quantile(featurize_ms, 0.5), "ms");
  report_.Layer("ml.finalize_ms_p50", Quantile(finalize_ms, 0.5), "ms");
  report_.Layer("pool.tasks_executed",
                static_cast<double>(CounterNamed("pool.tasks_executed")->value() -
                                    pool_tasks0),
                "count");
  report_.Layer("pool.steals",
                static_cast<double>(CounterNamed("pool.steals")->value() -
                                    pool_steals0),
                "count");
  const double untraced = InterquartileMean(paired_fit_ms);
  const double traced_iqm = InterquartileMean(traced_fit_ms);
  report_.Layer("trace.overhead_ms", traced_iqm - untraced, "ms");
  report_.Layer("trace.overhead_frac", (traced_iqm - untraced) / untraced,
                "ratio");
}

void Bench::ProbeLearners(const std::vector<EvalCase>& cases) {
  std::map<std::string, std::vector<double>> learner_ms;
  std::map<TaskType, int> probes;
  TracedSection traced_section(true);
  obs::TraceSpan probe_span("perfbench.learner_probe");
  for (size_t i = 0; i < cases.size(); ++i) {
    const EvalCase& c = cases[i];
    if (probes[c.spec.task]++ >= kLearnerProbesPerTask) continue;
    auto evaluator = hpo::TrialEvaluator::Create(c.split.train, c.spec.task,
                                                 kTestFraction, args_.seed);
    report_.Check(evaluator.ok(), c.spec.name + ": TrialEvaluator::Create");
    if (!evaluator.ok()) continue;
    for (const ml::LearnerInfo& info : ml::LearnerRegistry()) {
      if (!ml::LearnerSupports(info.name, c.spec.task)) continue;
      ml::PipelineSpec spec;
      spec.learner = info.name;
      obs::TraceSpan span("ml.evaluate");
      Stopwatch watch;
      auto score = evaluator->Evaluate(spec, args_.seed);
      learner_ms[info.name].push_back(watch.ElapsedMillis());
      report_.Check(score.ok(), c.spec.name + ": default " + info.name +
                                    " failed to evaluate");
    }
  }
  for (const auto& [name, times] : learner_ms) {
    report_.Layer("ml.learner_ms." + name, Quantile(times, 0.5), "ms");
  }
}

// -- predict ---------------------------------------------------------------

void Bench::RunPredict() {
  ServingModel model;
  std::vector<PredictCase> cases;
  const double setup_s = MedianSeconds(kSetupRepeats, [&] {
    model = TrainServingModel(/*with_autosklearn=*/false, &report_);
    cases = MakePredictCases(args_.seed);
  });
  if (!report_.correct) return;
  const core::Kgpip& kgpip = *model.flaml;
  if (std::getenv("KGPIP_THREADS") == nullptr) {
    util::ThreadPool::Configure(kPredictLanes);
  }

  obs::Counter* lints = CounterNamed("gen.lints_run");
  obs::Counter* lint_rejected = CounterNamed("gen.lint_rejected");
  int64_t traced_lints = 0, traced_rejected = 0;
  std::vector<double> call_ms, traced_call_ms, embed_ms, search_ms, decode_ms;
  std::vector<uint64_t> first_digest(cases.size(), 0);
  int64_t affine = 0, predicted = 0, skeletons_seen = 0, fallbacks = 0;
  double stream_s = 0.0;  // untraced stream steps: calls and their checks

  // One closed-loop caller cycling through the unseen tables.
  Stopwatch window;
  for (size_t j = 0; window.ElapsedSeconds() < args_.seconds; ++j) {
    const size_t k = j % cases.size();
    const PredictCase& c = cases[k];
    ++report_.attempted;
    Stopwatch watch;  // the call, then its checks: one stream step
    auto result = kgpip.PredictSkeletons(c.table, c.spec.task, c.call_seed);
    call_ms.push_back(watch.ElapsedMillis());
    if (!result.ok() || result->empty()) {
      ++report_.failed;
      report_.Check(false, c.spec.name + ": no skeleton predicted");
      continue;
    }
    for (const gen::ScoredSkeleton& s : *result) {
      report_.Check(ml::LearnerSupports(s.spec.learner, c.spec.task),
                    c.spec.name + ": predicted learner " + s.spec.learner +
                        " does not support the task");
    }
    const uint64_t digest = Fnv1a64(SkeletonsDigestText(*result));
    if (j < cases.size()) {
      first_digest[k] = digest;
      CountAffine(*result, c.spec, &affine, &predicted);
    } else {
      report_.Check(digest == first_digest[k],
                    c.spec.name + ": same input, different skeletons");
    }
    stream_s += watch.ElapsedSeconds();

    if (!args_.trace) continue;
    // Traced repeat: PredictSkeletons' own steps, one span each.
    const int64_t lints_before = lints->value();
    const int64_t rejected_before = lint_rejected->value();
    Result<std::vector<gen::ScoredSkeleton>> traced =
        Status::Internal("not run");
    {
      TracedSection traced_section(true);
      obs::TraceSpan span("core.predict");
      Stopwatch traced_watch;
      std::vector<double> query;
      {
        obs::TraceSpan step("embed.embed");
        Stopwatch step_watch;
        query = kgpip.embedder().Embed(c.table);
        embed_ms.push_back(step_watch.ElapsedMillis());
      }
      Result<std::vector<embed::SearchHit>> hits = Status::Internal("not run");
      {
        obs::TraceSpan step("embed.search");
        Stopwatch step_watch;
        hits = kgpip.index().Search(query, 1);
        search_ms.push_back(step_watch.ElapsedMillis());
      }
      if (hits.ok() && !hits->empty()) {
        obs::TraceSpan step("gen.decode");
        Stopwatch step_watch;
        traced = kgpip.PredictSkeletonsFromNearest(hits->front().key,
                                                   c.spec.task, c.call_seed);
        decode_ms.push_back(step_watch.ElapsedMillis());
      }
      traced_call_ms.push_back(traced_watch.ElapsedMillis());
    }
    traced_lints += lints->value() - lints_before;
    traced_rejected += lint_rejected->value() - rejected_before;
    report_.Check(traced.ok() && Fnv1a64(SkeletonsDigestText(*traced)) == digest,
                  c.spec.name + ": traced steps differ from PredictSkeletons");
    if (!traced.ok()) continue;
    for (const gen::ScoredSkeleton& s : *traced) {
      ++skeletons_seen;
      fallbacks += s.log_prob == -50.0 ? 1 : 0;
    }
  }
  report_.Check(call_ms.size() >= cases.size(),
                "the window ended before every table was predicted once");

  double tail_pct = 0.0;
  const double tail = Tail(call_ms, &tail_pct);
  report_.Check(tail_pct >= 90.0, "too few predict calls for a p90");
  const double affine_at_k =
      predicted > 0 ? static_cast<double>(affine) / predicted : 0.0;
  report_.EndToEnd("latency_ms_iqm", InterquartileMean(call_ms), "ms");
  report_.EndToEnd("latency_ms_tail", tail, "ms");
  report_.EndToEnd("throughput_per_s",
                   static_cast<double>(call_ms.size()) / stream_s, "1/s");
  report_.EndToEnd("quality", affine_at_k, "score");
  setup_s_ = setup_s;
  train_loss_ = model.train_loss;
  report_.Detail("predict_ms_p50", Quantile(call_ms, 0.5));
  report_.Detail("predict_ms_mean", Mean(call_ms));
  report_.Detail("predict_ms_p90", tail);
  report_.Detail("predict_affine_at_k", affine_at_k);
  report_.Detail("calls", static_cast<int64_t>(call_ms.size()));

  if (!args_.trace) return;
  report_.Layer("embed.embed_ms_p50", Quantile(embed_ms, 0.5), "ms");
  report_.Layer("embed.search_ms_p50", Quantile(search_ms, 0.5), "ms");
  report_.Layer("gen.decode_ms_p50", Quantile(decode_ms, 0.5), "ms");
  report_.Layer("gen.decode_ms_p99", Quantile(decode_ms, 0.99), "ms");
  report_.Layer("gen.lint_reject_ratio",
                traced_lints > 0
                    ? static_cast<double>(traced_rejected) / traced_lints
                    : 0.0,
                "ratio");
  report_.Layer("gen.fallback_frac",
                skeletons_seen > 0
                    ? static_cast<double>(fallbacks) / skeletons_seen
                    : 0.0,
                "ratio");
  const double untraced = InterquartileMean(call_ms);
  const double traced_iqm = InterquartileMean(traced_call_ms);
  report_.Layer("trace.overhead_ms", traced_iqm - untraced, "ms");
  report_.Layer("trace.overhead_frac", (traced_iqm - untraced) / untraced,
                "ratio");
}

// -- serve_open ------------------------------------------------------------

Bench::ScheduleResult Bench::RunSchedule(
    const core::Kgpip& model, const std::vector<ServeRequest>& requests,
    const std::vector<double>& offsets, bool traced) {
  serve::ServeOptions options;
  options.num_workers = kServeWorkers;
  options.max_trials = kServeTrials;
  options.audit_ring_entries = requests.size() + 16;
  serve::Server server(&model, options);
  ScheduleResult out;
  Status started = server.Start();
  report_.Check(started.ok(), "Server::Start: " + started.ToString());
  if (!started.ok()) return out;

  // Copies made before the clock starts: Submit takes its request by
  // value, and the generator must do nothing but wait and submit.
  std::vector<serve::FitRequest> pending;
  for (const ServeRequest& r : requests) pending.push_back(r.request);
  std::vector<std::future<serve::ServeResponse>> futures;
  std::vector<double> submit_us(requests.size(), 0.0);
  TracedSection traced_section(traced);
  const double due0_us = obs::Tracer::NowMicros();
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < pending.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<
                                 std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(offsets[i]));
    std::this_thread::sleep_until(due);
    const auto now = std::chrono::steady_clock::now();
    out.lag_ms.push_back(Seconds(now - due) * 1e3);
    submit_us[i] = due0_us + Seconds(now - start) * 1e6;
    obs::TraceSpan span("serve.submit");
    futures.push_back(server.Submit(std::move(pending[i])));
  }

  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<
                           std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(kStuckSeconds));
  for (size_t i = 0; i < futures.size(); ++i) {
    if (futures[i].wait_until(give_up) != std::future_status::ready) {
      out.stuck = true;
      break;
    }
    serve::ServeResponse response = futures[i].get();
    const double latency_ms =
        out.lag_ms[i] + response.latency_seconds * 1e3;
    out.latency_ms.push_back(latency_ms);
    if (!response.cache_hit) out.miss_latency_ms.push_back(latency_ms);
    out.span_s = std::max(out.span_s, offsets[i] + latency_ms / 1e3);
    if (response.status.ok()) {
      ++out.ok;
      out.good += latency_ms <= kGoodputLimitMs ? 1 : 0;
    }
    out.responses.push_back(std::move(response));
  }
  server.BeginDrain();
  report_.Check(server.AwaitDrained(kStuckSeconds),
                "serve: requests still in flight after the drain timeout");
  out.audit = server.audit_log().Tail(requests.size() + 16);
  server.Stop();

  if (traced && !out.stuck) {
    std::map<int64_t, const Json*> audit_by_id;
    for (const Json& record : out.audit) {
      audit_by_id[record.Get("request_id").AsInt()] = &record;
    }
    for (size_t i = 0; i < out.responses.size(); ++i) {
      const double due_us = due0_us + offsets[i] * 1e6;
      const double done_us = due_us + out.latency_ms[i] * 1e3;
      const int tid = 1000 + static_cast<int>(i);
      RecordSpan("serve.due_to_response", due_us, done_us, tid, 1);
      RecordSpan("serve.sched_lag", due_us, submit_us[i], tid, 2);
      auto it = audit_by_id.find(
          static_cast<int64_t>(out.responses[i].request_id));
      if (it == audit_by_id.end()) continue;
      const double wait_us =
          static_cast<double>(it->second->Get("queue_wait_micros").AsInt());
      const double total_us =
          static_cast<double>(it->second->Get("total_micros").AsInt());
      RecordSpan("serve.queue_wait", submit_us[i], submit_us[i] + wait_us, tid,
                 2);
      RecordSpan("serve.run", submit_us[i] + wait_us, submit_us[i] + total_us,
                 tid, 2);
    }
  }
  return out;
}

void Bench::RunServe() {
  const size_t count = std::max(
      kMinServeRequests,
      static_cast<size_t>(std::ceil(kServeRate * args_.seconds)));
  const double duration = static_cast<double>(count) / kServeRate;
  ServingModel model;
  std::vector<ServeRequest> requests;
  std::vector<double> offsets;
  const double setup_s = MedianSeconds(kSetupRepeats, [&] {
    model = TrainServingModel(/*with_autosklearn=*/false, &report_);
    // Fresh requests walk the eval datasets in order, each with its own
    // content (a cache miss); every kRepeatEvery-th one instead repeats
    // an earlier request's table (a result-cache hit).
    Rng rng(Mix(args_.seed, 0x5E7E));
    const auto is_repeat = [](size_t i) {
      return i >= kRepeatMinLag && i % kRepeatEvery == kRepeatEvery - 1;
    };
    size_t repeat_count = 0;
    for (size_t i = 0; i < count; ++i) repeat_count += is_repeat(i) ? 1 : 0;
    std::vector<EvalCase> fresh =
        MakeEvalCases(kContentSeed, count - repeat_count);
    requests.clear();
    size_t next_fresh = 0;
    for (size_t i = 0; i < count; ++i) {
      ServeRequest r;
      if (is_repeat(i)) {
        r = requests[rng.UniformInt(i + 1 - kRepeatMinLag)];
      } else {
        EvalCase& c = fresh[next_fresh++];
        r.request.table = std::move(c.split.train);
        r.request.task = c.spec.task;
        r.request.max_trials = kServeTrials;
        r.request.seed = Mix(kContentSeed, 20000 + next_fresh);
        r.test = std::move(c.split.test);
      }
      r.request.tenant = "tenant-" + std::to_string(i % kServeTenants);
      requests.push_back(std::move(r));
    }
    offsets = ArrivalSchedule(args_.seed, count, duration);
  });
  if (!report_.correct) return;

  const int64_t sheds0 = CounterNamed("serve.sheds")->value();
  ScheduleResult run = RunSchedule(*model.flaml, requests, offsets,
                                   /*traced=*/false);
  report_.attempted += static_cast<int64_t>(requests.size());
  report_.failed += static_cast<int64_t>(requests.size()) - run.ok;
  report_.Check(!run.stuck, "serve: a response never arrived");
  report_.Check(run.responses.size() == requests.size(),
                "serve: not every submitted request resolved");

  // Exactly one audit record per submitted request.
  std::map<int64_t, int> records;
  for (const Json& record : run.audit) {
    ++records[record.Get("request_id").AsInt()];
  }
  for (const serve::ServeResponse& response : run.responses) {
    report_.Check(records[static_cast<int64_t>(response.request_id)] == 1,
                  "serve: request " + std::to_string(response.request_id) +
                      " lacks exactly one audit record");
  }
  report_.Check(records.size() == run.responses.size(),
                "serve: audit records for unknown requests");

  // Quality of the served pipelines on each table's held-out split.
  double score_sum = 0.0;
  int64_t degraded = 0;
  for (size_t i = 0; i < run.responses.size(); ++i) {
    const serve::ServeResponse& response = run.responses[i];
    if (!response.status.ok()) continue;
    degraded += response.degradation_level > 0 ? 1 : 0;
    auto score = response.result.fitted.ScoreTable(requests[i].test);
    report_.Check(score.ok() && std::isfinite(*score) && *score <= 1.0 + 1e-9,
                  "serve: served pipeline scores out of range");
    if (score.ok()) score_sum += std::max(0.0, *score);
  }
  const double lag_max =
      run.lag_ms.empty() ? 0.0
                         : *std::max_element(run.lag_ms.begin(), run.lag_ms.end());
  report_.Check(lag_max <= kMaxSchedLagMs,
                "serve: the load generator fell behind its schedule; the "
                "run is invalid");

  // The latency metrics time cache misses, the requests that do the
  // serving work; the hits show in goodput and the cache ratios.
  double tail_pct = 0.0;
  const double tail = Tail(run.miss_latency_ms, &tail_pct);
  report_.Check(tail_pct >= 90.0, "too few cache misses for a p90");
  const double n = static_cast<double>(requests.size());
  const double iqm_ms = InterquartileMean(run.miss_latency_ms);
  report_.EndToEnd("latency_ms_iqm", iqm_ms, "ms");
  report_.EndToEnd("latency_ms_tail", tail, "ms");
  const double goodput = static_cast<double>(run.good) / run.span_s;
  report_.EndToEnd("throughput_per_s", goodput, "1/s");
  report_.EndToEnd("quality",
                   run.ok > 0 ? score_sum / static_cast<double>(run.ok) : 0.0,
                   "score");
  setup_s_ = setup_s;
  train_loss_ = model.train_loss;
  report_.Detail("serve_p50_ms", Quantile(run.latency_ms, 0.5));
  report_.Detail("serve_mean_ms", Mean(run.latency_ms));
  report_.Detail("serve_p90_ms", Quantile(run.latency_ms, 0.9));
  report_.Detail("serve_miss_p50_ms", Quantile(run.miss_latency_ms, 0.5));
  report_.Detail("serve_miss_p90_ms", tail);
  report_.Detail("serve_goodput_rps", goodput);
  report_.Detail("serve_fail_frac", (n - static_cast<double>(run.ok)) / n);
  report_.Detail("serve_degraded_frac", static_cast<double>(degraded) / n);
  report_.Detail("offered_rps", kServeRate);
  // Offered load as a share of the workers' capacity: rate x mean
  // service time (audit run time) / workers.
  double run_us_sum = 0.0;
  for (const Json& record : run.audit) {
    run_us_sum += record.Get("run_micros").AsDouble();
  }
  const double service_s =
      run.audit.empty() ? 0.0 : run_us_sum / 1e6 / run.audit.size();
  report_.Detail("service_ms_mean", service_s * 1e3);
  report_.Detail("utilization", kServeRate * service_s / kServeWorkers);
  report_.Detail("requests", static_cast<int64_t>(requests.size()));

  if (!args_.trace) return;
  // Audit-derived layer numbers come from the untraced schedule; the
  // traced schedule reruns it with spans to measure the overhead.
  std::vector<double> wait_ms, run_ms;
  double result_hits = 0, query_hits = 0;
  for (const Json& record : run.audit) {
    wait_ms.push_back(record.Get("queue_wait_micros").AsDouble() / 1e3);
    run_ms.push_back(record.Get("run_micros").AsDouble() / 1e3);
    const std::string& tier = record.Get("cache_tier").AsString();
    result_hits += tier == "result" ? 1 : 0;
    query_hits += tier == "query" ? 1 : 0;
  }
  report_.Layer("serve.queue_wait_ms_p50", Quantile(wait_ms, 0.5), "ms");
  report_.Layer("serve.queue_wait_ms_p90", Quantile(wait_ms, 0.9), "ms");
  report_.Layer("serve.run_ms_p50", Quantile(run_ms, 0.5), "ms");
  report_.Layer("serve.run_ms_p90", Quantile(run_ms, 0.9), "ms");
  report_.Layer("serve.cache_hit_ratio", result_hits / n, "ratio");
  report_.Layer("serve.query_hit_ratio", query_hits / n, "ratio");
  report_.Layer("serve.shed",
                static_cast<double>(CounterNamed("serve.sheds")->value() -
                                    sheds0),
                "count");
  report_.Layer("serve.fail_frac", (n - static_cast<double>(run.ok)) / n,
                "ratio");
  report_.Layer("serve.degraded_frac", static_cast<double>(degraded) / n,
                "ratio");
  report_.Layer("serve.sched_lag_ms_max", lag_max, "ms");

  ScheduleResult traced = RunSchedule(*model.flaml, requests, offsets,
                                      /*traced=*/true);
  report_.Check(!traced.stuck && traced.responses.size() == requests.size(),
                "serve: the traced schedule did not resolve every request");
  const double traced_iqm = InterquartileMean(traced.miss_latency_ms);
  report_.Layer("trace.overhead_ms", traced_iqm - iqm_ms, "ms");
  report_.Layer("trace.overhead_frac", (traced_iqm - iqm_ms) / iqm_ms,
                "ratio");
}

// ---- Output ----------------------------------------------------------------

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Host and build identity stamped on every result file.
Json Stamp(const Args& args) {
  Json stamp = Json::Object();
  stamp.Set("build_type", KGPIP_PERFBENCH_BUILD_TYPE);
  stamp.Set("compiler", KGPIP_PERFBENCH_COMPILER);
  stamp.Set("isa", nn::simd::IsaName(nn::simd::ActiveIsa()));
  stamp.Set("pool_lanes", util::ThreadPool::Global().num_lanes());
  stamp.Set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()));
  stamp.Set("cpu", CpuModel());
  struct utsname uts;
  if (uname(&uts) == 0) {
    stamp.Set("kernel", std::string(uts.sysname) + " " + uts.release);
  }
  stamp.Set("git_commit", args.commit);
  stamp.Set("source_digest", args.source_digest);
  return stamp;
}

Json MetricsJson(const std::vector<Metric>& metrics) {
  Json out = Json::Object();
  for (const Metric& m : metrics) {
    Json entry = Json::Object();
    entry.Set("value", m.value);
    entry.Set("unit", m.unit);
    out.Set(m.name, std::move(entry));
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "kgpip_perfbench: %s\n", error.c_str());
    return 2;
  }
  SetLogLevel(LogLevel::kError);
  if (std::getenv("KGPIP_THREADS") == nullptr) {
    const int cores = static_cast<int>(std::thread::hardware_concurrency());
    util::ThreadPool::Configure(std::clamp(cores, 1, kLanes));
  }
  const double probe_start_ms = HostProbeMs();
  Bench bench(args);
  if (!bench.Run()) {
    std::fprintf(stderr, "kgpip_perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  Report report = bench.report();
  const std::vector<Metric>& reported =
      args.trace ? report.per_layer : report.end_to_end;
  for (const Metric& m : reported) {
    report.Check(std::isfinite(m.value), m.name + " is not finite");
  }

  Json stamp = Stamp(args);
  Json probe = Json::Object();
  probe.Set("start", probe_start_ms);
  probe.Set("end", HostProbeMs());
  stamp.Set("host_probe_ms", std::move(probe));
  Json result = Json::Object();
  result.Set("workload", args.workload);
  result.Set("seed", static_cast<int64_t>(args.seed));
  result.Set("seconds", args.seconds);
  result.Set("trace", args.trace);
  result.Set("stamp", stamp);
  result.Set("correct", report.correct);
  result.Set("attempted", report.attempted);
  result.Set("failed", report.failed);
  Json violations = Json::Array();
  for (const std::string& v : report.violations) violations.Append(v);
  result.Set("violations", std::move(violations));
  result.Set("end_to_end", MetricsJson(report.end_to_end));
  result.Set("per_layer", MetricsJson(report.per_layer));
  result.Set("details", report.details);

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  if (args.trace) {
    const obs::Tracer& tracer = obs::Tracer::Global();
    const std::vector<obs::TraceEvent> spans = tracer.Snapshot();
    Json self = Json::Object();
    for (const auto& [name, us] : SelfTimesMicros(spans)) {
      self.Set(name, us / 1e3);
    }
    Json total = Json::Object();
    for (const auto& [name, us] : TotalTimesMicros(spans)) {
      total.Set(name, us / 1e3);
    }
    result.Set("span_self_ms", std::move(self));
    result.Set("span_total_ms", std::move(total));
    Json trace = tracer.ToChromeJson();
    trace.Set("stamp", stamp);
    report.Check(WriteFile(stem + ".trace.json", trace.Dump()),
                 "could not write the Chrome trace");
    Json registry = obs::MetricsRegistry::Global().ToJson();
    registry.Set("stamp", stamp);
    report.Check(WriteFile(stem + ".metrics.json", registry.Dump(2)),
                 "could not write the metrics snapshot");
  }
  report.Check(WriteFile(stem + ".json", result.Dump(2)),
               "could not write the result file");

  // Human-readable lines first; the result object is the last line.
  std::printf("stamp %s\n", stamp.Dump().c_str());
  for (const Metric& m : reported) {
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& v : report.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  Json last = Json::Object();
  last.Set("correct", report.correct);
  last.Set("attempted", report.attempted);
  last.Set("failed", report.failed);
  last.Set("metrics", MetricsJson(reported));
  std::printf("%s\n", last.Dump().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace kgpip::perfbench

int main(int argc, char** argv) { return kgpip::perfbench::Main(argc, argv); }
