#ifndef KGPIP_UTIL_STOPWATCH_H_
#define KGPIP_UTIL_STOPWATCH_H_

#include <chrono>

namespace kgpip {

/// Wall-clock stopwatch used for budget accounting and benchmark reporting.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A wall-clock deadline; `Expired()` turns true after `seconds` elapse.
/// A non-positive limit means "no deadline".
class Deadline {
 public:
  explicit Deadline(double seconds) : limit_seconds_(seconds) {}

  bool Expired() const {
    return limit_seconds_ > 0.0 && watch_.ElapsedSeconds() >= limit_seconds_;
  }

  double limit_seconds() const { return limit_seconds_; }
  double ElapsedSeconds() const { return watch_.ElapsedSeconds(); }

 private:
  double limit_seconds_;
  Stopwatch watch_;
};

}  // namespace kgpip

#endif  // KGPIP_UTIL_STOPWATCH_H_
