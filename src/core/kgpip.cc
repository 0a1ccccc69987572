#include "core/kgpip.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>

#include "data/synthetic.h"
#include "gen/linter.h"
#include "ml/learner.h"
#include "obs/metrics.h"
#include "obs/stage_profile.h"
#include "obs/trace.h"
#include "util/file_io.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip::core {

using graph4ml::PipelineVocab;

namespace {

/// Artifact files are util::WriteChecksummedFile envelopes with this
/// magic around the ToJson() payload.
constexpr char kArtifactMagic[] = "KGPIP1";

/// The graph generator's shape and training step. A saved artifact's
/// generator must have the same shape (GraphGenerator::LoadWeights
/// checks it).
constexpr int kGeneratorHidden = 32;
constexpr int kGeneratorMaxNodes = 10;
constexpr double kGeneratorLearningRate = 5e-3;
/// Examples per Adam step: the per-example gradients of a minibatch are
/// computed in parallel, deterministic at any thread count (DESIGN.md §17).
constexpr int kGeneratorBatchSize = 4;
/// Sampling temperature; the stochasticity behind the paper's §4.5.3
/// "diversity in predicted pipelines".
constexpr double kSamplingTemperature = 0.9;

/// One skeleton's search in `Kgpip::RunSearch`.
struct SkeletonSlice {
  hpo::SkeletonSearch search;
  /// Its own guard, or the guard of the earlier skeleton it repeats.
  hpo::TrialGuard* guard;
  /// The trials it runs side by side with the others (none for a repeat
  /// or when the trial budget runs out before it).
  hpo::Budget planned;
  /// Repeats an earlier skeleton's group: it runs only in the replay.
  bool repeat;
};

}  // namespace

std::vector<gen::ScoredSkeleton> FallbackPortfolio(TaskType task, int k) {
  // Robust defaults, cheap-and-reliable first; mirrors the spirit of
  // Auto-Sklearn's static portfolio but with empty preprocessor lists so
  // the automatic featurizer does the heavy lifting.
  static const char* kOrder[] = {
      "gradient_boosting", "random_forest", "logistic_regression",
      "ridge",             "extra_trees",   "decision_tree",
      "knn",               "gaussian_nb",   "linear_regression",
      "lasso",
  };
  std::vector<gen::ScoredSkeleton> portfolio;
  int rank = 0;
  for (const char* name : kOrder) {
    if (static_cast<int>(portfolio.size()) >= k) break;
    if (!ml::LearnerSupports(name, task)) continue;
    gen::ScoredSkeleton skeleton;
    skeleton.spec.learner = name;
    // Ranked after any generator-scored skeleton, in portfolio order.
    skeleton.log_prob = -100.0 - rank;
    ++rank;
    portfolio.push_back(std::move(skeleton));
  }
  return portfolio;
}

Kgpip::Kgpip(KgpipConfig config) : config_(std::move(config)) {
  auto optimizer = hpo::CreateOptimizer(config_.optimizer);
  KGPIP_CHECK(optimizer.ok()) << optimizer.status().ToString();
  hp_optimizer_ = std::move(*optimizer);
}

Status Kgpip::Train(const std::vector<DatasetSpec>& training_specs,
                    const codegraph::CorpusOptions& corpus_options,
                    uint64_t seed) {
  // Mine the corpus with static analysis and build Graph4ML.
  codegraph::CorpusGenerator corpus(corpus_options);
  graph4ml::Graph4Ml store;
  KGPIP_RETURN_IF_ERROR(store.Build(corpus.GenerateCorpus(training_specs)));
  // Materialize the training datasets for content embeddings.
  std::map<std::string, Table> tables;
  for (const DatasetSpec& spec : training_specs) {
    tables.emplace(spec.name, GenerateDataset(spec));
  }
  return TrainFromStore(store, tables, seed);
}

Status Kgpip::FillIndex() {
  KGPIP_TRACE_SPAN("embed.index_build");
  static obs::Histogram* build_seconds =
      obs::MetricsRegistry::Global().GetHistogram("embed.index_build_seconds");
  static obs::Gauge* size_gauge =
      obs::MetricsRegistry::Global().GetGauge("embed.index.size");
  Stopwatch watch;
  index_ = embed::SimIndex();
  for (const auto& [name, vec] : embeddings_) {
    KGPIP_RETURN_IF_ERROR(index_.Add(name, vec));
  }
  size_gauge->Set(static_cast<double>(index_.size()));
  build_seconds->Record(watch.ElapsedSeconds());
  return Status::Ok();
}

std::unique_ptr<gen::GraphGenerator> Kgpip::MakeGenerator(
    uint64_t seed) const {
  gen::GeneratorConfig gen_config;
  gen_config.vocab_size = PipelineVocab::Get().size();
  gen_config.hidden = kGeneratorHidden;
  gen_config.condition_dims =
      static_cast<int>(embed::TableEmbedder::kDims);
  gen_config.max_nodes = kGeneratorMaxNodes;
  gen_config.learning_rate = kGeneratorLearningRate;
  gen_config.batch_size = kGeneratorBatchSize;
  return std::make_unique<gen::GraphGenerator>(gen_config, seed);
}

Status Kgpip::TrainFromStore(const graph4ml::Graph4Ml& store,
                             const std::map<std::string, Table>& tables,
                             uint64_t seed) {
  store_ = store;
  embeddings_.clear();
  // Validate every dataset has a table first, then embed the tables in
  // parallel; the index takes them in key order, so its layout is
  // independent of the thread count.
  const std::vector<std::string> names = store_.DatasetNames();
  std::vector<const Table*> dataset_tables(names.size(), nullptr);
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = tables.find(names[i]);
    if (it == tables.end()) {
      return Status::NotFound("no table provided for dataset '" + names[i] +
                              "' referenced by the corpus");
    }
    dataset_tables[i] = &it->second;
  }
  std::vector<std::vector<double>> dataset_embeddings =
      util::ThreadPool::Global().ParallelMap<std::vector<double>>(
          names.size(),
          [&](size_t i) { return embedder_.Embed(*dataset_tables[i]); });
  for (size_t i = 0; i < names.size(); ++i) {
    embeddings_[names[i]] = std::move(dataset_embeddings[i]);
  }
  KGPIP_RETURN_IF_ERROR(FillIndex());

  // Train the conditional graph generator on every mined pipeline.
  generator_ = MakeGenerator(seed);

  std::vector<gen::GraphExample> examples;
  for (const graph4ml::PipelineGraph* pipeline : store_.AllPipelines()) {
    gen::GraphExample example;
    example.graph = pipeline->graph;
    example.condition = embeddings_[pipeline->dataset_name];
    example.given_nodes = 2;  // dataset node + read_csv seed
    examples.push_back(std::move(example));
  }
  if (examples.empty()) {
    return Status::FailedPrecondition("corpus produced no valid pipelines");
  }
  Rng rng(seed ^ 0x717171);
  for (int epoch = 0; epoch < config_.generator_epochs; ++epoch) {
    double loss = generator_->TrainEpoch(examples, &rng);
    KGPIP_LOG(Info) << "generator epoch " << epoch << " loss " << loss;
  }
  trained_ = true;
  return Status::Ok();
}

Result<embed::SearchHit> Kgpip::NearestDataset(const Table& table) const {
  if (!trained_) return Status::FailedPrecondition("KGpip is not trained");
  std::vector<double> query = embedder_.Embed(table);
  KGPIP_ASSIGN_OR_RETURN(std::vector<embed::SearchHit> hits,
                         index_.Search(query, 1));
  if (hits.empty()) return Status::NotFound("empty similarity index");
  return hits[0];
}

Result<std::vector<gen::ScoredSkeleton>> Kgpip::PredictSkeletons(
    const Table& train, TaskType task, uint64_t seed) const {
  if (!trained_) return Status::FailedPrecondition("KGpip is not trained");
  KGPIP_ASSIGN_OR_RETURN(embed::SearchHit nearest, NearestDataset(train));
  return PredictSkeletonsFromNearest(nearest.key, task, seed);
}

Result<std::vector<gen::ScoredSkeleton>> Kgpip::PredictSkeletonsFromNearest(
    const std::string& nearest_key, TaskType task, uint64_t seed) const {
  if (!trained_) return Status::FailedPrecondition("KGpip is not trained");
  auto condition_it = embeddings_.find(nearest_key);
  if (condition_it == embeddings_.end()) {
    return Status::NotFound("no embedding for dataset key '" + nearest_key +
                            "'");
  }
  const std::vector<double>& condition = condition_it->second;
  const embed::SearchHit nearest{nearest_key, 1.0};

  // Seed subgraph: dataset node flowing into read_csv (paper §3.5).
  graph4ml::TypedGraph seed_graph;
  seed_graph.node_types = {PipelineVocab::kDatasetType,
                           PipelineVocab::kReadCsvType};
  seed_graph.edges = {{0, 1}};

  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
  gen::PipelineLinter linter(task);
  std::vector<gen::ScoredSkeleton> skeletons;
  std::set<std::string> seen;
  // All candidates decode in one batched call: the multi-lane decoder
  // shares GEMM panels and decision-head evaluations across candidates
  // whose decision histories are still identical (one RNG stream per
  // candidate — deterministic at any thread count and SIMD level);
  // lint, mapping, and dedupe then filter in candidate order.
  std::vector<gen::GeneratedGraph> candidates = generator_->GenerateTopK(
      seed_graph, condition,
      static_cast<size_t>(std::max(config_.candidate_samples, 0)), &rng,
      kSamplingTemperature);
  for (gen::GeneratedGraph& generated : candidates) {
    if (static_cast<int>(skeletons.size()) >= config_.candidate_samples) {
      break;
    }
    // Graph-level lint first (vocabulary, acyclicity, estimator/task),
    // then the skeleton mapping; both reject invalid generator output.
    if (!linter.LintGraph(generated).ok()) continue;
    auto skeleton = gen::GraphToSkeleton(generated, task);
    if (!skeleton.ok()) continue;  // invalid graphs are discarded
    std::string key = skeleton->spec.ToString();
    if (!seen.insert(key).second) continue;  // dedupe
    skeletons.push_back(std::move(*skeleton));
  }
  // Fallback: if sampling yielded too few valid graphs, reuse the nearest
  // dataset's historical pipelines directly (the generator is a model of
  // exactly that distribution).
  if (static_cast<int>(skeletons.size()) < config_.top_k) {
    for (const graph4ml::PipelineGraph& p :
         store_.PipelinesFor(nearest.key)) {
      gen::GeneratedGraph mimic;
      mimic.graph = p.graph;
      mimic.log_prob = -50.0;  // ranked after sampled graphs
      auto skeleton = gen::GraphToSkeleton(mimic, task);
      if (!skeleton.ok()) continue;
      std::string key = skeleton->spec.ToString();
      if (!seen.insert(key).second) continue;
      skeletons.push_back(std::move(*skeleton));
      if (static_cast<int>(skeletons.size()) >= config_.top_k) break;
    }
  }
  if (skeletons.empty()) {
    return Status::Internal("no valid pipeline graphs generated");
  }
  // Rank by generator score and keep the top-k.
  std::sort(skeletons.begin(), skeletons.end(),
            [](const gen::ScoredSkeleton& a, const gen::ScoredSkeleton& b) {
              return a.log_prob > b.log_prob;
            });
  if (static_cast<int>(skeletons.size()) > config_.top_k) {
    skeletons.resize(static_cast<size_t>(config_.top_k));
  }
  return skeletons;
}

Result<automl::AutoMlResult> Kgpip::Fit(const Table& train, TaskType task,
                                        hpo::Budget budget,
                                        uint64_t seed) const {
  return Fit(train, task, budget, seed, nullptr);
}

Result<automl::AutoMlResult> Kgpip::Fit(const Table& train, TaskType task,
                                        hpo::Budget budget, uint64_t seed,
                                        const util::CancelToken* cancel) const {
  // Named span (not the macro) so the dataset's shape lands in the
  // args: a per-request trace group read in Perfetto identifies its
  // dataset without cross-referencing the audit log.
  obs::TraceSpan fit_span("kgpip.fit");
  fit_span.SetAttr("rows", static_cast<int64_t>(train.num_rows()));
  fit_span.SetAttr("columns", static_cast<int64_t>(train.num_columns()));
  fit_span.SetAttr("max_trials", static_cast<int64_t>(budget.max_trials()));
  Stopwatch fit_watch;
  obs::StageProfile profile;
  bool used_fallback = false;
  std::string fallback_reason;

  // t: time consumed generating and validating the graphs.
  Result<std::vector<gen::ScoredSkeleton>> predicted = [&] {
    obs::StageTimer timer(&profile, "fit.predict_skeletons");
    return trained_ ? PredictSkeletons(train, task, seed)
                    : Result<std::vector<gen::ScoredSkeleton>>(
                          Status::FailedPrecondition("KGpip is not trained"));
  }();
  std::vector<gen::ScoredSkeleton> skeletons;
  if (predicted.ok()) {
    skeletons = std::move(*predicted);
  } else {
    // Degradation rung 2: skeleton prediction (generator or
    // nearest-dataset lookup) failed. Never return empty-handed — run the
    // static default-skeleton portfolio instead.
    obs::StageTimer timer(&profile, "fit.fallback_portfolio");
    fallback_reason = predicted.status().ToString();
    KGPIP_LOG(Warning) << "skeleton prediction failed ("
                       << fallback_reason
                       << "); using fallback portfolio";
    skeletons = FallbackPortfolio(task, config_.top_k);
    used_fallback = true;
    if (skeletons.empty()) {
      return Status::Internal("no fallback learner supports this task");
    }
  }
  return RunSearch(std::move(skeletons), train, task, budget, seed,
                   used_fallback, fallback_reason, std::move(profile),
                   fit_watch, cancel);
}

Result<automl::AutoMlResult> Kgpip::FitWithSkeletons(
    std::vector<gen::ScoredSkeleton> skeletons, const Table& train,
    TaskType task, hpo::Budget budget, uint64_t seed,
    const util::CancelToken* cancel) const {
  KGPIP_TRACE_SPAN("kgpip.fit_with_skeletons");
  return RunSearch(std::move(skeletons), train, task, budget, seed,
                   /*used_fallback=*/false, /*fallback_reason=*/"",
                   obs::StageProfile(), Stopwatch(), cancel);
}

Result<automl::AutoMlResult> Kgpip::RunSearch(
    std::vector<gen::ScoredSkeleton> skeletons, const Table& train,
    TaskType task, hpo::Budget budget, uint64_t seed, bool used_fallback,
    const std::string& fallback_reason, obs::StageProfile profile,
    Stopwatch fit_watch, const util::CancelToken* cancel) const {
  automl::AutoMlResult result;

  // Static lint gate: drop invalid candidates BEFORE the (T - t) / K
  // rule sees them, so a rejected skeleton consumes zero trial budget
  // and the surviving ones split the whole pool.
  gen::PipelineLinter linter(task);
  int lint_rejected = 0;
  std::map<std::string, int> lint_rejected_by_code;
  {
    obs::StageTimer timer(&profile, "fit.lint_gate");
    std::vector<gen::ScoredSkeleton> accepted;
    accepted.reserve(skeletons.size());
    for (gen::ScoredSkeleton& s : skeletons) {
      gen::LintReport lint = linter.LintSkeleton(s);
      if (!lint.ok()) {
        ++lint_rejected;
        for (const std::string& code : lint.ErrorCodes()) {
          ++lint_rejected_by_code[code];
        }
        KGPIP_LOG(Warning) << "lint rejected skeleton before HPO:\n"
                           << lint.Render();
        continue;
      }
      accepted.push_back(std::move(s));
    }
    skeletons = std::move(accepted);
  }

  std::optional<hpo::TrialEvaluator> evaluator;
  {
    obs::StageTimer timer(&profile, "fit.evaluator_setup");
    auto created = hpo::TrialEvaluator::Create(train, task, 0.25, seed);
    if (!created.ok()) return created.status();
    evaluator.emplace(std::move(*created));
  }
  hpo::TrialGuard guard(&*evaluator);

  for (const gen::ScoredSkeleton& s : skeletons) {
    result.skeletons.push_back(s.spec);
  }

  // The paper's (T - t) / K rule, with the K searches side by side and
  // the result of searching them one after another (DESIGN.md §9): plan
  // each skeleton's slice as if every earlier one spends its own (14
  // trials over 3 skeletons → 5/5/4), run the planned slices as pool
  // items, each on its own guard, then replay the one-after-another
  // split in skeleton order. There a skeleton continues its own search
  // for the trials an earlier breaker left, and results merge in order.
  // Wall clock and cancel: every slice keeps the Fit budget's deadline,
  // and the cancel token is checked when a slice starts and before each
  // continuation. A skeleton that the deadline or a cancel stops short
  // of its share, or that the trial budget never reaches, leaves the Fit
  // returning best-so-far with `returned_best_so_far` set.
  const int k = static_cast<int>(skeletons.size());
  bool stopped_early = false;
  {
    obs::StageTimer timer(&profile, "fit.hpo_search");
    std::vector<std::unique_ptr<hpo::TrialGuard>> guards;  // one per group
    std::vector<SkeletonSlice> slices;
    slices.reserve(skeletons.size());
    hpo::Budget plan = budget;
    for (int i = 0; i < k; ++i) {
      SkeletonSlice slice{
          hp_optimizer_->StartSkeleton(skeletons[static_cast<size_t>(i)].spec,
                                       seed + static_cast<uint64_t>(i) * 977),
          nullptr, hpo::Budget(0, 0.0), false};
      for (const SkeletonSlice& earlier : slices) {
        if (earlier.search.group() == slice.search.group()) {
          slice.guard = earlier.guard;
          slice.repeat = true;
          break;
        }
      }
      if (slice.guard == nullptr) {
        guards.push_back(
            std::make_unique<hpo::TrialGuard>(&*evaluator));
        slice.guard = guards.back().get();
      }
      if (plan.remaining_trials() > 0) {
        slice.planned = plan.SplitRemaining(k - i);
        plan.Charge(slice.planned.max_trials());
      }
      slices.push_back(std::move(slice));
    }

    // The pool claims chunks in index order, one slice per chunk up to
    // four skeletons per lane, so slices start in skeleton order. Planned
    // shares never grow along that order, so with fewer lanes than
    // skeletons the largest slices start first.
    util::ThreadPool::Global().ParallelFor(slices.size(), [&](size_t i) {
      SkeletonSlice& slice = slices[i];
      if (slice.repeat || util::Cancelled(cancel)) return;
      slice.search.Run(slice.guard, &slice.planned);
    });

    for (int i = 0; i < k; ++i) {
      if (budget.remaining_trials() == 0) {
        stopped_early = true;  // best-so-far is returned below
        break;
      }
      SkeletonSlice& slice = slices[static_cast<size_t>(i)];
      // The share the one-after-another loop gives this skeleton, less
      // the trials it already ran side by side.
      hpo::Budget share = budget.SplitRemaining(k - i);
      share.Charge(slice.search.result().trials);
      if (!util::Cancelled(cancel)) {
        slice.search.Run(slice.guard, &share);
      }
      const hpo::OptimizeResult& optimized = slice.search.result();
      if (optimized.abandoned) {
        slice.guard->NoteRedistribution(slice.search.group(),
                                        share.remaining_trials());
      } else if (share.remaining_trials() > 0) {
        stopped_early = true;
      }
      budget.Charge(optimized.trials);
      result.trials += optimized.trials;
      for (int t = 0; t < optimized.trials; ++t) {
        result.learner_sequence.push_back(
            skeletons[static_cast<size_t>(i)].spec.learner);
      }
      if (optimized.best_score > result.validation_score) {
        result.validation_score = optimized.best_score;
        result.best_spec = optimized.best_spec;
        result.best_skeleton_rank = i + 1;
      }
    }
    for (const std::unique_ptr<hpo::TrialGuard>& part : guards) {
      guard.MergeReport(*part);
    }
  }

  // Degradation rung 3: every trial failed (or the budget was zero).
  // One default-config pass over the fallback portfolio, stopping at the
  // first learner that fits — the "never return empty-handed" floor.
  bool last_resort = false;
  if (result.best_spec.learner.empty()) {
    obs::StageTimer timer(&profile, "fit.last_resort");
    last_resort = true;
    uint64_t lr_seed = seed ^ 0xFA11BACCULL;
    for (const gen::ScoredSkeleton& s :
         FallbackPortfolio(task, 1 << 20)) {
      hpo::GuardedTrial trial =
          guard.Evaluate(s.spec, ++lr_seed, "last_resort:" + s.spec.learner);
      ++result.trials;
      result.learner_sequence.push_back(s.spec.learner);
      if (trial.ok() && trial.score > result.validation_score) {
        result.validation_score = trial.score;
        result.best_spec = s.spec;
        break;
      }
    }
  }

  hpo::RunReport report = guard.TakeReport();
  report.fallback_portfolio = used_fallback;
  if (used_fallback) {
    report.notes = "skeleton prediction failed: " + fallback_reason;
  }
  report.last_resort_pass = last_resort;
  report.returned_best_so_far = stopped_early;
  report.lint_rejected = lint_rejected;
  report.lint_rejected_by_code = std::move(lint_rejected_by_code);
  result.report = std::move(report);

  if (result.best_spec.learner.empty()) {
    return Status::Internal("KGpip optimization produced no candidate");
  }
  {
    obs::StageTimer timer(&profile, "fit.finalize");
    KGPIP_RETURN_IF_ERROR(automl::FinalizeResult(result.best_spec, train,
                                                 task, seed, &result));
  }
  // Attach where the budget actually went. total_seconds is the whole
  // fit's clock (Fit hands its watch in), so stage seconds must sum to
  // roughly the fit wall time — the attribution invariant obs_test pins.
  profile.total_seconds = fit_watch.ElapsedSeconds();
  result.report.stage_profile = std::move(profile);
  return result;
}

Json Kgpip::ToJson() const {
  Json out = Json::Object();
  out.Set("store", store_.ToJson());
  if (generator_ != nullptr) out.Set("generator", generator_->ToJson());
  Json embeddings = Json::Object();
  for (const auto& [name, vec] : embeddings_) {
    Json arr = Json::Array();
    for (double v : vec) arr.Append(Json(v));
    embeddings.Set(name, std::move(arr));
  }
  out.Set("embeddings", std::move(embeddings));
  return out;
}

Status Kgpip::LoadJson(const Json& json) {
  KGPIP_ASSIGN_OR_RETURN(store_, graph4ml::Graph4Ml::FromJson(
                                     json.Get("store")));
  embeddings_.clear();
  for (const auto& [name, arr] : json.Get("embeddings").members()) {
    if (!arr.is_array()) {
      return Status::ParseError("artifact embedding '" + name +
                                "' is not an array");
    }
    std::vector<double> vec;
    vec.reserve(arr.size());
    for (const Json& value : arr.items()) {
      if (!value.is_number()) {
        return Status::ParseError("artifact embedding '" + name +
                                  "' has a non-number component");
      }
      vec.push_back(value.AsDouble());
    }
    embeddings_[name] = std::move(vec);
  }
  KGPIP_RETURN_IF_ERROR(FillIndex());

  generator_ = MakeGenerator(1);
  KGPIP_RETURN_IF_ERROR(generator_->LoadWeights(json.Get("generator")));
  trained_ = true;
  return Status::Ok();
}

Status Kgpip::SaveFile(const std::string& path) const {
  if (!trained_) return Status::FailedPrecondition("KGpip is not trained");
  return util::WriteChecksummedFile(path, kArtifactMagic, ToJson().Dump());
}

Status Kgpip::LoadFile(const std::string& path) {
  KGPIP_ASSIGN_OR_RETURN(
      util::ChecksummedPayload file,
      util::ReadChecksummedFile(path, kArtifactMagic, "artifact"));
  auto json = Json::Parse(file.payload);
  if (!json.ok()) {
    return Status::ParseError(StrFormat(
        "artifact '%s': payload (at byte offset %llu) is not valid "
        "JSON: %s",
        path.c_str(), static_cast<unsigned long long>(file.offset),
        json.status().message().c_str()));
  }
  return LoadJson(*json);
}

}  // namespace kgpip::core
