#include "data/table.h"

#include "util/rng.h"

namespace kgpip {

const char* TaskTypeName(TaskType task) {
  switch (task) {
    case TaskType::kBinaryClassification:
      return "binary";
    case TaskType::kMultiClassification:
      return "multi-class";
    case TaskType::kRegression:
      return "regression";
  }
  return "?";
}

bool IsClassification(TaskType task) {
  return task != TaskType::kRegression;
}

Status Table::AddColumn(Column column) {
  if (!columns_.empty() && column.size() != num_rows()) {
    return Status::InvalidArgument(
        "column '" + column.name() + "' has " +
        std::to_string(column.size()) + " rows, table has " +
        std::to_string(num_rows()));
  }
  if (FindColumn(column.name()).has_value()) {
    return Status::InvalidArgument("duplicate column name '" +
                                   column.name() + "'");
  }
  columns_.push_back(std::move(column));
  return Status::Ok();
}

std::optional<size_t> Table::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() == name) return i;
  }
  return std::nullopt;
}

Result<const Column*> Table::TargetColumn() const {
  if (target_name_.empty()) {
    return Status::FailedPrecondition("table '" + name_ +
                                      "' has no target column set");
  }
  auto idx = FindColumn(target_name_);
  if (!idx.has_value()) {
    return Status::NotFound("target column '" + target_name_ +
                            "' not present in table '" + name_ + "'");
  }
  return &columns_[*idx];
}

Table Table::TakeRows(const std::vector<size_t>& indices) const {
  Table out(name_);
  out.target_name_ = target_name_;
  for (const Column& c : columns_) {
    out.columns_.push_back(c.Take(indices));
  }
  return out;
}

size_t Table::CountType(ColumnType type) const {
  size_t n = 0;
  for (const Column& c : columns_) {
    if (c.name() == target_name_) continue;
    if (c.type() == type) ++n;
  }
  return n;
}

TrainTestSplit SplitTable(const Table& table, double test_fraction,
                          uint64_t seed) {
  Rng rng(seed);
  std::vector<size_t> perm = rng.Permutation(table.num_rows());
  size_t test_size = static_cast<size_t>(
      static_cast<double>(table.num_rows()) * test_fraction);
  if (test_size == 0 && table.num_rows() > 1) test_size = 1;
  std::vector<size_t> test_idx(perm.begin(), perm.begin() + test_size);
  std::vector<size_t> train_idx(perm.begin() + test_size, perm.end());
  TrainTestSplit out;
  out.train = table.TakeRows(train_idx);
  out.test = table.TakeRows(test_idx);
  return out;
}

}  // namespace kgpip
