#ifndef KGPIP_ML_FEATURIZER_H_
#define KGPIP_ML_FEATURIZER_H_

#include <map>
#include <string>
#include <vector>

#include "data/table.h"
#include "ml/dataset.h"
#include "util/status.h"

namespace kgpip::ml {

/// Automatic dataset preparation (paper §3.6: "KGpip applies different
/// preprocessing techniques on the given dataset (D) and produces a
/// pre-processed dataset (D')"). Turns typed Tables into dense numeric
/// LabeledData:
///   - numeric columns: missing values imputed with the median
///   - categorical columns: one-hot over the 16 most frequent levels,
///     with rarer levels and missing sharing an "other" slot
///   - text columns: 32-bucket hashed bag-of-words with tf-idf weighting
///     (the paper's "vectoring textual columns using word embeddings")
///   - target: class-name dictionary (classification) or raw value
/// Fit on the training split; Transform applies the frozen encoding.
class Featurizer {
 public:
  /// Learns the encoding from `train`. `task` fixes target handling.
  Status Fit(const Table& train, TaskType task);

  /// Encodes features + target. Unseen class labels map to class 0.
  Result<LabeledData> Transform(const Table& table) const;

  /// Encodes features only (no target required).
  Result<FeatureMatrix> TransformFeatures(const Table& table) const;

  TaskType task() const { return task_; }
  int num_classes() const { return static_cast<int>(class_names_.size()); }
  const std::vector<std::string>& class_names() const { return class_names_; }
  size_t output_dims() const { return output_dims_; }
  bool fitted() const { return fitted_; }

 private:
  struct ColumnPlan {
    std::string name;
    ColumnType type = ColumnType::kNumeric;
    // Numeric: imputation value.
    double impute_value = 0.0;
    // Categorical: level -> one-hot slot; slot `levels.size()` is "other".
    std::map<std::string, size_t> levels;
    // Text: idf per hash bucket.
    std::vector<double> idf;
    size_t first_output = 0;
    size_t width = 0;
  };

  void EncodeRow(const Table& table,
                 const std::vector<size_t>& column_indices, size_t row,
                 double* out) const;

  TaskType task_ = TaskType::kBinaryClassification;
  std::vector<ColumnPlan> plans_;
  std::vector<std::string> class_names_;
  size_t output_dims_ = 0;
  bool fitted_ = false;
};

}  // namespace kgpip::ml

#endif  // KGPIP_ML_FEATURIZER_H_
