#ifndef KGPIP_CODEGRAPH_CORPUS_H_
#define KGPIP_CODEGRAPH_CORPUS_H_

#include <string>
#include <vector>

#include "data/synthetic.h"
#include "util/rng.h"

namespace kgpip::codegraph {

/// One synthetic "Kaggle notebook": Python source plus the association
/// metadata a portal provides (which dataset the script belongs to).
/// Ground-truth fields record what the generator put in, for tests and
/// for the Figure 9 corpus statistics.
struct NotebookScript {
  std::string name;
  std::string dataset_name;
  std::string text;
  /// Canonical estimator this script trains ("" for noise scripts).
  std::string estimator;
  std::vector<std::string> transformers;
  bool is_ml_pipeline = false;
};

struct CorpusOptions {
  /// ML pipelines per dataset (top-of-leaderboard style scripts).
  int pipelines_per_dataset = 12;
  /// EDA-only / unsupported-framework scripts per dataset — the majority
  /// of a real portal dump, which the filter must discard (the paper kept
  /// 2,046 of 11.7K scripts).
  int noise_scripts_per_dataset = 8;
  uint64_t seed = 42;
};

/// Generates notebook scripts for datasets. Estimator choice is biased by
/// each dataset's concept family the same way Kaggle leaderboards are
/// biased: the learners that genuinely fit the data dominate the
/// top-scoring scripts.
class CorpusGenerator {
 public:
  explicit CorpusGenerator(CorpusOptions options = {});

  /// All scripts for one dataset (draws from the generator's own stream).
  std::vector<NotebookScript> GenerateForDataset(const DatasetSpec& spec);

  /// Scripts for a whole list of datasets. Forks one RNG stream per
  /// dataset up front and fans the per-dataset generation out over the
  /// global thread pool; output order and content are identical at any
  /// thread count (and to KGPIP_THREADS=1).
  std::vector<NotebookScript> GenerateCorpus(
      const std::vector<DatasetSpec>& specs);

 private:
  std::vector<NotebookScript> GenerateForDataset(const DatasetSpec& spec,
                                                 Rng* rng) const;
  NotebookScript GeneratePipeline(const DatasetSpec& spec, int index,
                                  Rng* rng) const;
  NotebookScript GenerateNoiseScript(const DatasetSpec& spec, int index,
                                     Rng* rng) const;

  CorpusOptions options_;
  Rng rng_;
};

}  // namespace kgpip::codegraph

#endif  // KGPIP_CODEGRAPH_CORPUS_H_
