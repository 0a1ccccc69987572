#ifndef KGPIP_OBS_METRICS_H_
#define KGPIP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"

namespace kgpip::obs {

/// Monotonic event counter. Increments are lock-free; the pointer
/// returned by `MetricsRegistry::GetCounter` stays valid (and keeps its
/// identity across `Reset`) for the registry's lifetime, so hot paths can
/// cache it in a function-local static.
class Counter {
 public:
  void Increment(int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. current training loss).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Exponential-bucket histogram for latency-style distributions.
///
/// Bucket layout over `num_buckets` buckets with base `scale` and ratio
/// `growth`:
///   bucket 0:              v <= scale                (underflow; catches
///                                                     0 and negatives)
///   bucket i in [1, n-2]:  scale*growth^(i-1) < v <= scale*growth^i
///   bucket n-1:            everything larger, +inf and NaN (overflow)
///
/// The defaults (1 µs base, x2 growth, 48 buckets) cover 1 µs .. ~39 h
/// when values are seconds. Recording is lock-free; `sum`/`min`/`max`
/// only aggregate finite samples.
class Histogram {
 public:
  struct Options {
    double scale = 1e-6;
    double growth = 2.0;
    int num_buckets = 48;
  };

  Histogram();  // default Options
  explicit Histogram(Options options);

  void Record(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  int64_t bucket_count(int i) const {
    return buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  const Options& options() const { return options_; }

  /// Index of the bucket `value` lands in (see the class comment).
  int BucketIndex(double value) const;
  /// Inclusive upper bound of bucket `i`; +inf for the overflow bucket.
  double BucketUpperBound(int i) const;

  /// {"count", "sum", "min", "max", "buckets": [{"le", "count"}, ...]}
  /// with empty buckets elided; the overflow bucket's "le" is "+Inf".
  Json ToJson() const;

  void Reset();

 private:
  Options options_;
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Thread-safe registry of named metrics. Lookup takes a mutex; returned
/// pointers are stable for the registry's lifetime, so call sites cache
/// them:
///
///   static obs::Counter* hits =
///       obs::MetricsRegistry::Global().GetCounter("embed.cache_hit");
///   hits->Increment();
///
/// Metric names follow the span convention `subsystem.noun[_unit]`
/// (e.g. "hpo.trial_seconds", "codegraph.scripts_analyzed").
class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem reports into.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. A histogram's options are fixed by the
  /// first caller; later mismatching options are ignored.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);  // default options
  Histogram* GetHistogram(const std::string& name,
                          Histogram::Options options);

  /// Point-in-time snapshot: {"counters": {...}, "gauges": {...},
  /// "histograms": {...}}.
  Json ToJson() const;

  /// Snapshot pretty-printed to a file (the bench `--metrics-out` sink),
  /// replaced through util::WriteFileAtomic: a crash mid-dump leaves the
  /// previous file intact, never a torn one.
  Status WriteJsonFile(const std::string& path) const;

  /// Zeroes every metric in place. Registered pointers stay valid —
  /// names are never removed, so cached statics survive (tests and the
  /// bench harness reset between phases).
  void Reset();

 private:
  mutable util::Mutex mu_{util::LockRank::kObsMetrics, "obs.metrics"};
  /// Name->metric maps are mu_-guarded; the *metrics themselves* are
  /// lock-free and updated through stable pointers without it.
  std::map<std::string, std::unique_ptr<Counter>> counters_
      KGPIP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      KGPIP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      KGPIP_GUARDED_BY(mu_);
};

}  // namespace kgpip::obs

#endif  // KGPIP_OBS_METRICS_H_
