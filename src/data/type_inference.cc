#include "data/type_inference.h"

#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace kgpip {

namespace {

/// Minimum fraction of non-missing cells that must parse as numbers for
/// a column to become numeric.
constexpr double kNumericThreshold = 0.95;
/// A string column whose distinct/total ratio is at most this (or whose
/// distinct count is tiny) is categorical rather than text.
constexpr double kCategoricalDistinctRatio = 0.3;
constexpr size_t kCategoricalMaxDistinct = 64;
/// Mean token count at or above which a string column is text.
constexpr double kTextMinMeanTokens = 4.0;

size_t CountTokens(const std::string& s) {
  size_t tokens = 0;
  bool in_token = false;
  for (char c : s) {
    bool ws = c == ' ' || c == '\t';
    if (!ws && !in_token) {
      ++tokens;
      in_token = true;
    } else if (ws) {
      in_token = false;
    }
  }
  return tokens;
}

/// Re-types one string column according to the heuristics.
Column RetypeColumn(const Column& col) {
  const size_t n = col.size();
  size_t non_missing = 0;
  size_t numeric_ok = 0;
  size_t token_total = 0;
  for (size_t i = 0; i < n; ++i) {
    if (col.IsMissing(i)) continue;
    ++non_missing;
    double v = 0.0;
    if (ParseDouble(col.StringAt(i), &v)) ++numeric_ok;
    token_total += CountTokens(col.StringAt(i));
  }
  if (non_missing == 0) {
    // All-missing column: keep as categorical of NaNs.
    return col;
  }
  const double numeric_frac =
      static_cast<double>(numeric_ok) / static_cast<double>(non_missing);
  if (numeric_frac >= kNumericThreshold) {
    std::vector<double> values(n, std::numeric_limits<double>::quiet_NaN());
    for (size_t i = 0; i < n; ++i) {
      if (col.IsMissing(i)) continue;
      double v = 0.0;
      if (ParseDouble(col.StringAt(i), &v)) values[i] = v;
    }
    return Column::Numeric(col.name(), std::move(values));
  }
  const double mean_tokens =
      static_cast<double>(token_total) / static_cast<double>(non_missing);
  const size_t distinct = col.DistinctCount();
  const double distinct_ratio =
      static_cast<double>(distinct) / static_cast<double>(non_missing);
  const bool looks_categorical =
      distinct <= kCategoricalMaxDistinct ||
      distinct_ratio <= kCategoricalDistinctRatio;
  if (mean_tokens >= kTextMinMeanTokens || !looks_categorical) {
    return Column::Text(col.name(), col.string_values());
  }
  return Column::Categorical(col.name(), col.string_values());
}

}  // namespace

Status InferColumnTypes(Table* table) {
  if (table == nullptr) return Status::InvalidArgument("null table");
  for (size_t i = 0; i < table->num_columns(); ++i) {
    const Column& col = table->column(i);
    if (col.type() == ColumnType::kNumeric) continue;
    table->mutable_column(i) = RetypeColumn(col);
  }
  return Status::Ok();
}

Result<TaskType> DetectTask(const Table& table) {
  KGPIP_ASSIGN_OR_RETURN(const Column* target, table.TargetColumn());
  if (target->type() != ColumnType::kNumeric) {
    return target->DistinctCount() <= 2 ? TaskType::kBinaryClassification
                                        : TaskType::kMultiClassification;
  }
  // Numeric target: classification when values are a small set of integers.
  size_t non_missing = 0;
  bool all_integers = true;
  for (size_t i = 0; i < target->size(); ++i) {
    if (target->IsMissing(i)) continue;
    ++non_missing;
    double v = target->NumericAt(i);
    if (v != std::floor(v)) {
      all_integers = false;
      break;
    }
  }
  if (non_missing == 0) {
    return Status::InvalidArgument("target column '" + target->name() +
                                   "' is entirely missing");
  }
  size_t distinct = target->DistinctCount();
  if (all_integers && distinct <= 20 &&
      static_cast<double>(distinct) <
          0.2 * static_cast<double>(non_missing)) {
    return distinct <= 2 ? TaskType::kBinaryClassification
                         : TaskType::kMultiClassification;
  }
  return TaskType::kRegression;
}

}  // namespace kgpip
