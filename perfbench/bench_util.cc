#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/rng.h"
#include "util/stopwatch.h"

namespace kgpip::perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t trim = values.size() / 4;
  double sum = 0.0;
  for (size_t i = trim; i < values.size() - trim; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

double TailPercentile(size_t n) {
  constexpr double kMinBeyond = 10.0;
  for (double p : {90.0, 75.0, 50.0}) {
    // Samples strictly above the p-th percentile of n samples.
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= kMinBeyond) return p;
  }
  return 0.0;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::map<std::string, double> SelfTimesMicros(
    const std::vector<obs::TraceEvent>& spans) {
  // Per thread, in start order (a parent before the children it
  // contains), each span's parent is the innermost one still open.
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const obs::TraceEvent& x = spans[a];
    const obs::TraceEvent& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.start_us != y.start_us) return x.start_us < y.start_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  std::vector<size_t> open;
  for (size_t k = 0; k < order.size(); ++k) {
    const obs::TraceEvent& span = spans[order[k]];
    if (k > 0 && spans[order[k - 1]].tid != span.tid) open.clear();
    while (!open.empty() && spans[open.back()].start_us +
                                    spans[open.back()].dur_us <=
                                span.start_us) {
      open.pop_back();
    }
    if (!open.empty()) {
      const obs::TraceEvent& parent = spans[open.back()];
      children[open.back()].emplace_back(
          span.start_us,
          std::min(span.start_us + span.dur_us,
                   parent.start_us + parent.dur_us));
    }
    open.push_back(order[k]);
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    // Merge overlaps so time two children share is subtracted once.
    std::vector<std::pair<double, double>>& parts = children[i];
    std::sort(parts.begin(), parts.end());
    double covered = 0.0, run_start = 0.0, run_end = -1.0;
    for (const auto& [s, e] : parts) {
      if (s > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = s;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    self[spans[i].name] += std::max(0.0, spans[i].dur_us - covered);
  }
  return self;
}

std::map<std::string, double> TotalTimesMicros(
    const std::vector<obs::TraceEvent>& spans) {
  std::map<std::string, double> total;
  for (const obs::TraceEvent& span : spans) total[span.name] += span.dur_us;
  return total;
}

std::vector<double> ArrivalSchedule(uint64_t seed, size_t count,
                                    double duration_seconds) {
  Rng rng(Mix(seed, 0x5C4EDULL));
  std::vector<double> offsets(count);
  const double slot = duration_seconds / static_cast<double>(count);
  for (size_t i = 0; i < count; ++i) {
    offsets[i] = (static_cast<double>(i) + rng.Uniform()) * slot;
  }
  return offsets;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

double HostProbeMs() {
  static volatile double sink = 0.0;
  std::vector<double> times;
  for (int pass = 0; pass < 5; ++pass) {
    Stopwatch watch;
    Rng rng(17);
    std::vector<double> values(1 << 17);
    for (double& v : values) v = rng.Uniform();
    std::sort(values.begin(), values.end());
    constexpr size_t n = 96;
    std::vector<double> c(n * n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t k = 0; k < n; ++k) {
        const double a = values[i * n + k];
        for (size_t j = 0; j < n; ++j) c[i * n + j] += a * values[k * n + j];
      }
    }
    sink = sink + c[n + 1] + values[values.size() / 2];
    times.push_back(watch.ElapsedMillis());
  }
  return Quantile(times, 0.5);
}

}  // namespace kgpip::perfbench
