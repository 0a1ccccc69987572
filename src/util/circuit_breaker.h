#ifndef KGPIP_UTIL_CIRCUIT_BREAKER_H_
#define KGPIP_UTIL_CIRCUIT_BREAKER_H_

#include <algorithm>

#include "util/stopwatch.h"

namespace kgpip::util {

/// Consecutive-failure circuit breaker for one circuit, with a half-open
/// cooldown. `threshold` consecutive failures open the circuit; while it
/// is open, Admit refuses until `cooldown_seconds` have passed, then lets
/// one probe through half-open, so that a single further failure opens
/// it again. hpo::TrialGuard keeps one per skeleton with a cooldown that
/// never elapses; serve::Server keeps one per tenant. Not thread-safe:
/// callers hold their own lock.
class CircuitBreaker {
 public:
  /// A `threshold` <= 0 never opens the circuit.
  CircuitBreaker(int threshold, double cooldown_seconds)
      : threshold_(threshold), cooldown_seconds_(cooldown_seconds) {}

  /// Whether a request may run now. An open circuit refuses until its
  /// cooldown has elapsed; the first call after that closes it with the
  /// streak one short of the threshold, and sets `*half_open`.
  bool Admit(bool* half_open = nullptr) {
    if (!open_) return true;
    if (opened_.ElapsedSeconds() < cooldown_seconds_) return false;
    open_ = false;
    consecutive_failures_ = std::max(0, threshold_ - 1);
    if (half_open != nullptr) *half_open = true;
    return true;
  }

  /// Records one failure; returns true when it opened the circuit (the
  /// transition, not merely "is open"). Failures of requests admitted
  /// before the circuit opened still extend the streak.
  bool RecordFailure() {
    ++consecutive_failures_;
    if (open_ || threshold_ <= 0 || consecutive_failures_ < threshold_) {
      return false;
    }
    open_ = true;
    opened_.Reset();
    return true;
  }

  void RecordSuccess() { consecutive_failures_ = 0; }

  bool open() const { return open_; }
  int consecutive_failures() const { return consecutive_failures_; }
  /// Seconds since the circuit opened; 0 while it is closed.
  double open_seconds() const {
    return open_ ? opened_.ElapsedSeconds() : 0.0;
  }

 private:
  int threshold_;
  double cooldown_seconds_;
  int consecutive_failures_ = 0;
  bool open_ = false;
  Stopwatch opened_;
};

}  // namespace kgpip::util

#endif  // KGPIP_UTIL_CIRCUIT_BREAKER_H_
