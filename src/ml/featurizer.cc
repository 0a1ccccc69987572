#include "ml/featurizer.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace kgpip::ml {

namespace {

/// Dimensionality of the hashed text embedding per text column.
constexpr size_t kTextDims = 32;
/// Categorical levels beyond this cap collapse into the "other" slot.
constexpr size_t kMaxOneHot = 16;

/// Splits text into lowercase whitespace tokens.
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (c == ' ' || c == '\t' || c == '\n') {
      if (!current.empty()) {
        tokens.push_back(AsciiToLower(current));
        current.clear();
      }
    } else {
      current += c;
    }
  }
  if (!current.empty()) tokens.push_back(AsciiToLower(current));
  return tokens;
}

size_t HashBucket(const std::string& token, size_t dims) {
  return Fnv1a64(token) % dims;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

Status Featurizer::Fit(const Table& train, TaskType task) {
  task_ = task;
  plans_.clear();
  class_names_.clear();
  output_dims_ = 0;

  KGPIP_ASSIGN_OR_RETURN(const Column* target, train.TargetColumn());

  // Class dictionary for classification.
  if (IsClassification(task_)) {
    for (size_t r = 0; r < target->size(); ++r) {
      if (target->IsMissing(r)) continue;
      std::string label = target->type() == ColumnType::kNumeric
                              ? StrFormat("%g", target->NumericAt(r))
                              : target->StringAt(r);
      if (std::find(class_names_.begin(), class_names_.end(), label) ==
          class_names_.end()) {
        class_names_.push_back(label);
      }
    }
    std::sort(class_names_.begin(), class_names_.end());
    if (class_names_.size() < 2) {
      return Status::InvalidArgument(
          "classification target has fewer than 2 classes");
    }
  }

  for (size_t ci = 0; ci < train.num_columns(); ++ci) {
    const Column& col = train.column(ci);
    if (col.name() == train.target_name()) continue;
    ColumnPlan plan;
    plan.name = col.name();
    plan.type = col.type();
    plan.first_output = output_dims_;
    switch (col.type()) {
      case ColumnType::kNumeric: {
        std::vector<double> present;
        for (size_t r = 0; r < col.size(); ++r) {
          if (!col.IsMissing(r)) present.push_back(col.NumericAt(r));
        }
        plan.impute_value = Median(std::move(present));
        plan.width = 1;
        break;
      }
      case ColumnType::kCategorical: {
        // Count level frequencies; keep the most common levels.
        std::map<std::string, size_t> counts;
        for (size_t r = 0; r < col.size(); ++r) {
          if (!col.IsMissing(r)) ++counts[col.StringAt(r)];
        }
        std::vector<std::pair<size_t, std::string>> ordered;
        for (const auto& [level, count] : counts) {
          ordered.emplace_back(count, level);
        }
        std::sort(ordered.rbegin(), ordered.rend());
        size_t keep = std::min(ordered.size(), kMaxOneHot);
        for (size_t i = 0; i < keep; ++i) {
          plan.levels[ordered[i].second] = i;
        }
        // +1 slot for other/missing.
        plan.width = keep + 1;
        break;
      }
      case ColumnType::kText: {
        const size_t dims = kTextDims;
        plan.idf.assign(dims, 0.0);
        size_t docs = 0;
        std::vector<bool> seen(dims);
        for (size_t r = 0; r < col.size(); ++r) {
          if (col.IsMissing(r)) continue;
          ++docs;
          std::fill(seen.begin(), seen.end(), false);
          for (const std::string& token : Tokenize(col.StringAt(r))) {
            seen[HashBucket(token, dims)] = true;
          }
          for (size_t d = 0; d < dims; ++d) {
            if (seen[d]) plan.idf[d] += 1.0;
          }
        }
        for (double& df : plan.idf) {
          df = docs > 0
                   ? std::log((1.0 + static_cast<double>(docs)) /
                              (1.0 + df)) +
                         1.0
                   : 1.0;
        }
        plan.width = dims;
        break;
      }
    }
    output_dims_ += plan.width;
    plans_.push_back(std::move(plan));
  }
  if (output_dims_ == 0) {
    return Status::InvalidArgument("table has no feature columns");
  }
  fitted_ = true;
  return Status::Ok();
}

void Featurizer::EncodeRow(const Table& table,
                           const std::vector<size_t>& column_indices,
                           size_t row, double* out) const {
  for (size_t p = 0; p < plans_.size(); ++p) {
    const ColumnPlan& plan = plans_[p];
    double* slot = out + plan.first_output;
    const size_t col_index = column_indices[p];
    if (col_index == static_cast<size_t>(-1)) continue;  // zeros
    const Column& col = table.column(col_index);
    switch (plan.type) {
      case ColumnType::kNumeric:
        slot[0] = col.IsMissing(row) || col.type() != ColumnType::kNumeric
                      ? plan.impute_value
                      : col.NumericAt(row);
        if (std::isnan(slot[0])) slot[0] = plan.impute_value;
        break;
      case ColumnType::kCategorical: {
        size_t bucket = plan.levels.size();  // other/missing slot
        if (!col.IsMissing(row) && col.type() != ColumnType::kNumeric) {
          auto it = plan.levels.find(col.StringAt(row));
          if (it != plan.levels.end()) bucket = it->second;
        }
        slot[bucket] = 1.0;
        break;
      }
      case ColumnType::kText: {
        if (col.IsMissing(row) || col.type() == ColumnType::kNumeric) break;
        const size_t dims = plan.idf.size();
        for (const std::string& token : Tokenize(col.StringAt(row))) {
          slot[HashBucket(token, dims)] += 1.0;
        }
        for (size_t d = 0; d < dims; ++d) slot[d] *= plan.idf[d];
        break;
      }
    }
  }
}

Result<FeatureMatrix> Featurizer::TransformFeatures(
    const Table& table) const {
  if (!fitted_) return Status::FailedPrecondition("featurizer not fitted");
  // Map each plan to the matching column in this table (by name).
  std::vector<size_t> column_indices(plans_.size(),
                                     static_cast<size_t>(-1));
  for (size_t p = 0; p < plans_.size(); ++p) {
    auto idx = table.FindColumn(plans_[p].name);
    if (idx.has_value()) column_indices[p] = *idx;
  }
  FeatureMatrix out(table.num_rows(), output_dims_);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    EncodeRow(table, column_indices, r, out.Row(r));
  }
  return out;
}

Result<LabeledData> Featurizer::Transform(const Table& table) const {
  KGPIP_ASSIGN_OR_RETURN(FeatureMatrix x, TransformFeatures(table));
  KGPIP_ASSIGN_OR_RETURN(const Column* target, table.TargetColumn());
  LabeledData data;
  data.x = std::move(x);
  data.task = task_;
  data.y.resize(table.num_rows(), 0.0);
  if (IsClassification(task_)) {
    data.num_classes = static_cast<int>(class_names_.size());
    data.class_names = class_names_;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      std::string label = target->type() == ColumnType::kNumeric
                              ? StrFormat("%g", target->NumericAt(r))
                              : target->StringAt(r);
      auto it = std::find(class_names_.begin(), class_names_.end(), label);
      data.y[r] = it == class_names_.end()
                      ? 0.0
                      : static_cast<double>(it - class_names_.begin());
    }
  } else {
    if (target->type() != ColumnType::kNumeric) {
      return Status::InvalidArgument("regression target must be numeric");
    }
    double mean = 0.0;
    size_t count = 0;
    for (size_t r = 0; r < target->size(); ++r) {
      if (!target->IsMissing(r)) {
        mean += target->NumericAt(r);
        ++count;
      }
    }
    mean = count > 0 ? mean / static_cast<double>(count) : 0.0;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      data.y[r] = target->IsMissing(r) ? mean : target->NumericAt(r);
    }
  }
  return data;
}

}  // namespace kgpip::ml
