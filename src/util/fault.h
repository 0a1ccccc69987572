#ifndef KGPIP_UTIL_FAULT_H_
#define KGPIP_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "util/mutex.h"
#include "util/status.h"

namespace kgpip::util {

/// Deterministic fault-injection configuration. Rates are probabilities
/// in [0, 1]. Every injection decision is a pure function of
/// (config seed, site, key, per-site-and-key call index). The trial guard
/// keys its draws by the trial's guard group (the skeleton for KGpip,
/// the learner for the baselines), and one group's trials run one after
/// another, so a run with a fixed seed sees the identical fault sequence
/// regardless of wall clock or of how concurrent skeleton searches
/// interleave — CI can assert on exact degradation behaviour.
struct FaultConfig {
  uint64_t seed = 0;
  /// P(an Evaluate call fails with kInternal) — a *permanent* trial
  /// failure; retrying re-rolls with the next call index.
  double evaluator_error_rate = 0.0;
  /// P(an Evaluate call fails with kResourceExhausted) — the transient
  /// flavour, expected to clear under retry-with-backoff.
  double resource_exhausted_rate = 0.0;
  /// P(an Evaluate call yields a NaN score instead of a real one).
  double nan_score_rate = 0.0;
  /// Learners whose every trial fails with kInternal — the
  /// "always-invalid skeleton" that must trip the circuit breaker.
  std::set<std::string> fail_learners;
  /// Flip one bit in every `corrupt_byte_stride`-th payload byte of a
  /// saved artifact (0 = off).
  int corrupt_byte_stride = 0;
};

/// Counters of faults actually injected, for test assertions.
struct FaultCounters {
  int evaluator_errors = 0;
  int resource_exhausted = 0;
  int nan_scores = 0;
  int corrupted_bytes = 0;
};

/// The process-wide fault injector. Production code consults
/// `FaultInjector::Active()` at its fault sites; when no `ScopedFaultInjection`
/// is live the pointer is null and every site is a no-op branch.
///
/// Thread-safety: the active injector is published through an atomic
/// pointer and all decision state (per-site call indices, counters) is
/// mutex-guarded, so fault sites inside `ThreadPool` lanes — `ParallelFor`
/// bodies, serve workers — observe the scope installed by the submitting
/// thread and draw from one shared, coherent call sequence. Per
/// (site, key) the sequence of decisions is still the fixed function of
/// the seed. Callers that draw one key from several threads at once get
/// call indices in racing order: the multiset of decisions stays fixed,
/// but not which caller gets which.
class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config) : config_(std::move(config)) {}

  /// Null when no injection scope is active (the production default).
  static FaultInjector* Active();

  /// Fault decision for one Evaluate attempt of `learner`, with the
  /// random draws keyed by `key`; `fail_learners` matches `learner`.
  /// Returns the injected error status, or nullopt to let the real
  /// evaluation run.
  std::optional<Status> EvaluatorFault(const std::string& learner,
                                       const std::string& key);

  /// True if this attempt's score should be replaced with NaN.
  bool InjectNanScore(const std::string& key);

  /// Corrupts artifact bytes in place per `corrupt_byte_stride`.
  void CorruptArtifact(std::string* payload);

  const FaultConfig& config() const { return config_; }
  /// Snapshot of the counters (copied under the lock so a reader racing
  /// pool-lane injections sees a coherent set).
  FaultCounters counters() const {
    MutexLock lock(mu_);
    return counters_;
  }

 private:
  /// Deterministic Bernoulli draw for (site, key, call index).
  bool Roll(int site, const std::string& key, double rate)
      KGPIP_REQUIRES(mu_);

  FaultConfig config_;
  mutable Mutex mu_{LockRank::kFault, "fault"};
  FaultCounters counters_ KGPIP_GUARDED_BY(mu_);
  /// Per-(site, key) call indices; the only mutable decision state.
  std::map<std::pair<int, std::string>, uint64_t> calls_
      KGPIP_GUARDED_BY(mu_);
};

/// RAII installation of a fault injector. Scopes may not nest (the inner
/// scope would silently mask the outer one); nesting aborts via KGPIP_CHECK.
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(FaultConfig config);
  ~ScopedFaultInjection();

  ScopedFaultInjection(const ScopedFaultInjection&) = delete;
  ScopedFaultInjection& operator=(const ScopedFaultInjection&) = delete;

  FaultInjector& injector() { return injector_; }

 private:
  FaultInjector injector_;
};

}  // namespace kgpip::util

#endif  // KGPIP_UTIL_FAULT_H_
