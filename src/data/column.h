#ifndef KGPIP_DATA_COLUMN_H_
#define KGPIP_DATA_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kgpip {

/// Logical column types after inference. The paper's preprocessing
/// (§3.6) distinguishes numerical, categorical and textual columns.
enum class ColumnType { kNumeric, kCategorical, kText };

/// A single named, typed column with an explicit missing-value mask.
///
/// Numeric columns store doubles; categorical and text columns store
/// strings. Missingness is tracked in a parallel mask so imputers can
/// distinguish "empty string" from "absent".
class Column {
 public:
  Column() = default;

  /// Factory for a numeric column. NaNs in `values` are marked missing.
  static Column Numeric(std::string name, std::vector<double> values);
  /// Factory for a categorical column; empty strings are marked missing.
  static Column Categorical(std::string name,
                            std::vector<std::string> values);
  /// Factory for a free-text column; empty strings are marked missing.
  static Column Text(std::string name, std::vector<std::string> values);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  ColumnType type() const { return type_; }
  size_t size() const {
    return type_ == ColumnType::kNumeric ? numeric_.size() : strings_.size();
  }

  bool IsMissing(size_t row) const { return missing_[row] != 0; }
  size_t MissingCount() const;

  /// Numeric access. Precondition: type() == kNumeric.
  double NumericAt(size_t row) const { return numeric_[row]; }
  const std::vector<double>& numeric_values() const { return numeric_; }
  std::vector<double>& mutable_numeric_values() { return numeric_; }

  /// String access. Precondition: type() != kNumeric.
  const std::string& StringAt(size_t row) const { return strings_[row]; }
  const std::vector<std::string>& string_values() const { return strings_; }

  void SetMissing(size_t row, bool missing) { missing_[row] = missing; }

  /// Number of distinct non-missing values.
  size_t DistinctCount() const;

  /// Returns a copy containing only the rows in `indices` (in order).
  Column Take(const std::vector<size_t>& indices) const;

 private:
  std::string name_;
  ColumnType type_ = ColumnType::kNumeric;
  std::vector<double> numeric_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> missing_;
};

}  // namespace kgpip

#endif  // KGPIP_DATA_COLUMN_H_
