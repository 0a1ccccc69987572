#ifndef KGPIP_CORE_KGPIP_H_
#define KGPIP_CORE_KGPIP_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "automl/system.h"
#include "codegraph/corpus.h"
#include "embed/embedder.h"
#include "embed/sim_index.h"
#include "gen/graph_generator.h"
#include "gen/skeleton.h"
#include "graph4ml/graph4ml.h"
#include "hpo/optimizer.h"
#include "obs/stage_profile.h"
#include "util/cancel.h"
#include "util/stopwatch.h"

namespace kgpip::core {

/// KGpip configuration.
struct KgpipConfig {
  /// Number of predicted pipeline graphs handed to the hyper-parameter
  /// optimizer (the paper varies K in {3, 5, 7}).
  int top_k = 3;
  /// Host optimizer: "flaml" (KGpipFLAML) or "autosklearn"
  /// (KGpipAutoSklearn).
  std::string optimizer = "flaml";
  /// Graph-generator training epochs over the mined corpus.
  int generator_epochs = 30;
  /// Candidates sampled before dedup/ranking (>= top_k).
  int candidate_samples = 16;
};

/// The static default-skeleton portfolio: robust default configurations,
/// cheap and reliable learners first, filtered by task support, capped
/// at `k`. `Fit` searches it when skeleton prediction fails, its last
/// resort pass walks it, and the serve daemon's zero-shot rung serves
/// its top-1.
std::vector<gen::ScoredSkeleton> FallbackPortfolio(TaskType task, int k);

/// The KGpip system (paper §3): a learner & transformer selection
/// component that (1) mines pipelines from scripts with static analysis,
/// (2) embeds datasets by content for nearest-neighbour lookup,
/// (3) conditionally generates candidate pipeline graphs with a deep
/// graph generator, and (4) delegates hyper-parameter optimization of
/// each predicted skeleton to a host optimizer with budget (T - t) / K.
class Kgpip : public automl::AutoMlSystem {
 public:
  explicit Kgpip(KgpipConfig config = {});

  /// Trains from a corpus of notebook scripts plus the referenced
  /// training datasets (for content embeddings).
  Status Train(const std::vector<DatasetSpec>& training_specs,
               const codegraph::CorpusOptions& corpus_options,
               uint64_t seed);

  /// Trains from a pre-built Graph4ML store and dataset tables.
  Status TrainFromStore(const graph4ml::Graph4Ml& store,
                        const std::map<std::string, Table>& tables,
                        uint64_t seed);

  /// Predicts top-k skeletons for a dataset without running any HPO —
  /// the paper: "if the user desires only to know what learners would
  /// work best ... KGpip can do that almost instantaneously".
  Result<std::vector<gen::ScoredSkeleton>> PredictSkeletons(
      const Table& train, TaskType task, uint64_t seed) const;

  /// The generation tail of PredictSkeletons with the head (table
  /// embedding + SimIndex query) already resolved to a training dataset
  /// key, for callers that time the two halves apart. Fails kNotFound
  /// for a key the trained embedding map does not contain.
  Result<std::vector<gen::ScoredSkeleton>> PredictSkeletonsFromNearest(
      const std::string& nearest_key, TaskType task, uint64_t seed) const;

  /// Full AutoML fit (implements automl::AutoMlSystem).
  Result<automl::AutoMlResult> Fit(const Table& train, TaskType task,
                                   hpo::Budget budget,
                                   uint64_t seed) const override;
  /// The same fit with a cooperative cancel token (borrowed; null never
  /// cancels), which RunSearch checks before each skeleton slice and
  /// continuation. The budget's wall clock is the fit's only deadline.
  Result<automl::AutoMlResult> Fit(const Table& train, TaskType task,
                                   hpo::Budget budget, uint64_t seed,
                                   const util::CancelToken* cancel) const;

  /// Runs the search phase of Fit over caller-supplied candidate
  /// skeletons instead of predicted ones (works untrained). Candidates
  /// still pass through the PipelineLinter gate, so an invalid skeleton
  /// is skipped before the (T - t) / K rule allocates it any budget —
  /// rejections are counted in the result's RunReport.
  Result<automl::AutoMlResult> FitWithSkeletons(
      std::vector<gen::ScoredSkeleton> skeletons, const Table& train,
      TaskType task, hpo::Budget budget, uint64_t seed,
      const util::CancelToken* cancel = nullptr) const;
  std::string name() const override {
    return config_.optimizer == "flaml" ? "KGpipFLAML" : "KGpipAutoSklearn";
  }

  /// Name + similarity of the nearest seen dataset for a table.
  Result<embed::SearchHit> NearestDataset(const Table& table) const;

  /// The content embedder and the similarity index it queries.
  const embed::TableEmbedder& embedder() const { return embedder_; }
  const embed::SimIndex& index() const { return index_; }

  const graph4ml::Graph4Ml& store() const { return store_; }
  bool trained() const { return trained_; }
  const KgpipConfig& config() const { return config_; }
  KgpipConfig& mutable_config() { return config_; }

  /// Serializes the trained artifacts (store + generator + embeddings).
  Json ToJson() const;
  Status LoadJson(const Json& json);

  /// Artifact persistence: train once, ship the file, load anywhere.
  /// The file is the ToJson() payload in a checksummed `KGPIP1`
  /// envelope (util::WriteChecksummedFile), replaced atomically. LoadFile
  /// rejects a damaged or header-less file with kParseError and rebuilds
  /// the similarity index from the embeddings.
  Status SaveFile(const std::string& path) const;
  Status LoadFile(const std::string& path);

 private:
  /// Shared tail of Fit / FitWithSkeletons: lint gate, per-skeleton HPO
  /// under the (T - t) / K rule, last-resort pass, report assembly. The
  /// skeleton searches run side by side on the pool with the result of
  /// running them one after another (DESIGN.md §9); every slice keeps
  /// the budget's deadline, and a deadline or cancel that stops the
  /// search early sets `returned_best_so_far` (DESIGN.md §6).
  /// `profile` carries the stages the caller already timed (e.g. skeleton
  /// prediction) and `fit_watch` the whole fit's clock; RunSearch adds
  /// its own stages and attaches the finished profile to the RunReport.
  Result<automl::AutoMlResult> RunSearch(
      std::vector<gen::ScoredSkeleton> skeletons, const Table& train,
      TaskType task, hpo::Budget budget, uint64_t seed, bool used_fallback,
      const std::string& fallback_reason, obs::StageProfile profile,
      Stopwatch fit_watch, const util::CancelToken* cancel) const;

  /// Refills the similarity index from `embeddings_` in key order, the
  /// same index for TrainFromStore and LoadJson.
  Status FillIndex();

  /// A generator of the configured shape, for TrainFromStore and
  /// LoadJson.
  std::unique_ptr<gen::GraphGenerator> MakeGenerator(uint64_t seed) const;

  KgpipConfig config_;
  bool trained_ = false;
  graph4ml::Graph4Ml store_;
  embed::TableEmbedder embedder_;
  embed::SimIndex index_;
  std::map<std::string, std::vector<double>> embeddings_;
  std::unique_ptr<gen::GraphGenerator> generator_;
  std::unique_ptr<hpo::HpOptimizer> hp_optimizer_;
};

}  // namespace kgpip::core

#endif  // KGPIP_CORE_KGPIP_H_
