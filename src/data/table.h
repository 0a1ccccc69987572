#ifndef KGPIP_DATA_TABLE_H_
#define KGPIP_DATA_TABLE_H_

#include <optional>
#include <string>
#include <vector>

#include "data/column.h"
#include "util/status.h"

namespace kgpip {

/// Supervised task types; detected automatically from the target column
/// distribution when not declared (paper §3.6 step 1).
enum class TaskType { kBinaryClassification, kMultiClassification,
                      kRegression };

const char* TaskTypeName(TaskType task);
bool IsClassification(TaskType task);

/// An in-memory columnar table: the dataset abstraction every subsystem
/// (embedding, AutoML, benchmarks) consumes.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }
  size_t num_columns() const { return columns_.size(); }

  /// Appends a column; all columns must share the same length.
  Status AddColumn(Column column);

  const Column& column(size_t i) const { return columns_[i]; }
  Column& mutable_column(size_t i) { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of a column by name, or nullopt.
  std::optional<size_t> FindColumn(const std::string& name) const;

  /// Name of the supervised target column (empty if unset).
  const std::string& target_name() const { return target_name_; }
  void set_target_name(std::string name) { target_name_ = std::move(name); }

  /// Returns the target column. Fails if target_name is unset/missing.
  Result<const Column*> TargetColumn() const;

  /// Copies the rows in `indices` (feature + target columns alike).
  Table TakeRows(const std::vector<size_t>& indices) const;

  /// Column type counts, used for meta-features and Table 4.
  size_t CountType(ColumnType type) const;

 private:
  std::string name_;
  std::string target_name_;
  std::vector<Column> columns_;
};

/// Deterministic train/test split by fraction; shuffles with `seed`.
struct TrainTestSplit {
  Table train;
  Table test;
};
TrainTestSplit SplitTable(const Table& table, double test_fraction,
                          uint64_t seed);

}  // namespace kgpip

#endif  // KGPIP_DATA_TABLE_H_
