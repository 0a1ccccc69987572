#include "obs/metrics.h"

#include <cmath>
#include <limits>

#include "util/file_io.h"

namespace kgpip::obs {

Histogram::Histogram() : Histogram(Options()) {}

Histogram::Histogram(Options options)
    : options_(options),
      buckets_(static_cast<size_t>(std::max(2, options.num_buckets))),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

int Histogram::BucketIndex(double value) const {
  const int n = num_buckets();
  if (std::isnan(value)) return n - 1;
  if (value <= options_.scale) return 0;
  if (std::isinf(value)) return n - 1;
  // Smallest i with value <= scale * growth^i; bucket index is i.
  const double exponent =
      std::log(value / options_.scale) / std::log(options_.growth);
  // ceil with a tolerance so exact boundaries stay in the lower bucket.
  int i = static_cast<int>(std::ceil(exponent - 1e-9));
  if (i < 1) i = 1;
  if (i > n - 1) i = n - 1;
  return i;
}

double Histogram::BucketUpperBound(int i) const {
  if (i >= num_buckets() - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return options_.scale * std::pow(options_.growth, i);
}

void Histogram::Record(double value) {
  buckets_[static_cast<size_t>(BucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  if (!std::isfinite(value)) return;  // sum/min/max track finite samples
  sum_.fetch_add(value, std::memory_order_relaxed);
  double seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
}

Json Histogram::ToJson() const {
  Json out = Json::Object();
  const int64_t n = count();
  out.Set("count", n);
  out.Set("sum", sum());
  if (n > 0 && std::isfinite(min())) {
    out.Set("min", min());
    out.Set("max", max());
  }
  Json buckets = Json::Array();
  for (int i = 0; i < num_buckets(); ++i) {
    const int64_t c = bucket_count(i);
    if (c == 0) continue;
    Json b = Json::Object();
    const double le = BucketUpperBound(i);
    if (std::isinf(le)) {
      b.Set("le", "+Inf");
    } else {
      b.Set("le", le);
    }
    b.Set("count", c);
    buckets.Append(std::move(b));
  }
  out.Set("buckets", std::move(buckets));
  return out;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  util::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  util::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, Histogram::Options());
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         Histogram::Options options) {
  util::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(options))
             .first;
  }
  return it->second.get();
}

Json MetricsRegistry::ToJson() const {
  util::MutexLock lock(mu_);
  Json out = Json::Object();
  Json counters = Json::Object();
  for (const auto& [name, counter] : counters_) {
    counters.Set(name, counter->value());
  }
  out.Set("counters", std::move(counters));
  Json gauges = Json::Object();
  for (const auto& [name, gauge] : gauges_) {
    gauges.Set(name, gauge->value());
  }
  out.Set("gauges", std::move(gauges));
  Json histograms = Json::Object();
  for (const auto& [name, histogram] : histograms_) {
    histograms.Set(name, histogram->ToJson());
  }
  out.Set("histograms", std::move(histograms));
  return out;
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  return util::WriteFileAtomic(path, ToJson().Dump(2) + "\n");
}

void MetricsRegistry::Reset() {
  util::MutexLock lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace kgpip::obs
