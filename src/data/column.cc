#include "data/column.h"

#include <cmath>
#include <unordered_set>

#include "util/logging.h"

namespace kgpip {

Column Column::Numeric(std::string name, std::vector<double> values) {
  Column c;
  c.name_ = std::move(name);
  c.type_ = ColumnType::kNumeric;
  c.missing_.resize(values.size(), 0);
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) c.missing_[i] = 1;
  }
  c.numeric_ = std::move(values);
  return c;
}

Column Column::Categorical(std::string name,
                           std::vector<std::string> values) {
  Column c;
  c.name_ = std::move(name);
  c.type_ = ColumnType::kCategorical;
  c.missing_.resize(values.size(), 0);
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].empty()) c.missing_[i] = 1;
  }
  c.strings_ = std::move(values);
  return c;
}

Column Column::Text(std::string name, std::vector<std::string> values) {
  Column c = Categorical(std::move(name), std::move(values));
  c.type_ = ColumnType::kText;
  return c;
}

size_t Column::MissingCount() const {
  size_t n = 0;
  for (uint8_t m : missing_) n += m;
  return n;
}

size_t Column::DistinctCount() const {
  if (type_ == ColumnType::kNumeric) {
    std::unordered_set<double> seen;
    for (size_t i = 0; i < numeric_.size(); ++i) {
      if (!missing_[i]) seen.insert(numeric_[i]);
    }
    return seen.size();
  }
  std::unordered_set<std::string> seen;
  for (size_t i = 0; i < strings_.size(); ++i) {
    if (!missing_[i]) seen.insert(strings_[i]);
  }
  return seen.size();
}

Column Column::Take(const std::vector<size_t>& indices) const {
  Column out;
  out.name_ = name_;
  out.type_ = type_;
  out.missing_.reserve(indices.size());
  if (type_ == ColumnType::kNumeric) {
    out.numeric_.reserve(indices.size());
    for (size_t idx : indices) {
      KGPIP_CHECK(idx < numeric_.size());
      out.numeric_.push_back(numeric_[idx]);
      out.missing_.push_back(missing_[idx]);
    }
  } else {
    out.strings_.reserve(indices.size());
    for (size_t idx : indices) {
      KGPIP_CHECK(idx < strings_.size());
      out.strings_.push_back(strings_[idx]);
      out.missing_.push_back(missing_[idx]);
    }
  }
  return out;
}

}  // namespace kgpip
