#ifndef KGPIP_HPO_TRIAL_GUARD_H_
#define KGPIP_HPO_TRIAL_GUARD_H_

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "hpo/evaluator.h"
#include "obs/stage_profile.h"
#include "util/circuit_breaker.h"
#include "util/json.h"

namespace kgpip::hpo {

/// Why a guarded trial produced no usable score.
enum class TrialFailure {
  kNone = 0,       // trial succeeded
  kError,          // evaluator returned a non-OK status (after retries)
  kNanScore,       // score was NaN/Inf and was quarantined
  kCircuitOpen,    // the skeleton's circuit breaker is open; not evaluated
};

/// Outcome of one guarded evaluation.
struct GuardedTrial {
  bool ok() const { return failure == TrialFailure::kNone; }
  double score = -1e18;  // meaningful only when ok()
  TrialFailure failure = TrialFailure::kNone;
  StatusCode code = StatusCode::kOk;  // taxonomy bucket for failures
  int retries = 0;       // transient-failure retries spent on this trial
};

/// Per-skeleton (or per-learner) slice of a run's failure accounting.
struct SkeletonReport {
  std::string key;  // skeleton spec string or learner name
  int trials = 0;
  int failures = 0;
  int retries = 0;
  int nan_quarantined = 0;
  bool abandoned = false;         // circuit breaker tripped
  int redistributed_trials = 0;   // budget released to surviving skeletons
  double best_score = -1e18;
};

/// Structured account of why (and how much) a run degraded, attached to
/// `automl::AutoMlResult`. The failure accounting is wall-clock-free so a
/// fixed seed yields identical counts; `stage_profile` is the one timed
/// exception (clear it before byte-comparing reports across runs).
struct RunReport {
  std::vector<SkeletonReport> skeletons;
  /// Failure taxonomy over terminal (post-retry) trial failures.
  std::map<StatusCode, int> failures_by_code;
  int total_trials = 0;
  int total_failures = 0;
  int total_retries = 0;
  int quarantined_scores = 0;
  int circuit_breaker_trips = 0;
  /// Candidates the PipelineLinter rejected before any budget was
  /// allocated to them (they never appear in `skeletons` and consume no
  /// trials), with a per-lint-code breakdown.
  int lint_rejected = 0;
  std::map<std::string, int> lint_rejected_by_code;
  double simulated_backoff_seconds = 0.0;
  /// Degradation ladder flags (see DESIGN.md "Failure semantics").
  bool fallback_portfolio = false;   // skeleton prediction failed
  bool last_resort_pass = false;     // search yielded nothing; defaults run
  bool returned_best_so_far = false; // budget expired before all skeletons
  /// Serving provenance: true when the result was answered from the
  /// daemon's content-hash cache instead of a fresh search, so a cached
  /// answer stays auditable (see DESIGN.md "Serving & multi-tenancy").
  bool cache_hit = false;
  /// Overload degradation rung the daemon served this request at:
  /// 0 = full fit, 1 = the same fit at half the trial budget,
  /// 2 = zero-shot: the fallback portfolio's top-1 skeleton (no HPO).
  int degradation_level = 0;
  std::string notes;
  /// Where `Kgpip::Fit` spent its wall-clock budget, stage by stage
  /// (predict_skeletons, hpo_search, ...). Empty outside full Fit runs.
  obs::StageProfile stage_profile;

  SkeletonReport* FindOrAdd(const std::string& key);
  const SkeletonReport* Find(const std::string& key) const;

  Json ToJson() const;
  /// One-line human summary for logs and the bench harness.
  std::string Summary() const;
};

/// Wraps a `TrialEvaluator` with the fault-tolerance policy: NaN/Inf
/// score quarantine, bounded retry-with-backoff on transient failures,
/// and a per-group circuit breaker. It never times a trial out: a
/// running fit's only deadline is its `Budget`'s wall clock, which the
/// search checks before each trial (DESIGN.md §6). All failure
/// accounting lands in the embedded `RunReport`. Groups are arbitrary
/// strings — KGpip uses the skeleton spec, the host-optimizer baselines
/// use the learner name. Not thread-safe: searches that run side by side
/// each take their own guard over the shared evaluator, and their
/// reports are merged afterwards (`MergeReport`).
class TrialGuard {
 public:
  /// Retries per trial on transient codes (kInternal/kResourceExhausted).
  static constexpr int kMaxRetries = 2;
  /// Simulated backoff recorded (not slept) for the first retry; it
  /// doubles each attempt. Keeping it virtual keeps guarded runs
  /// deterministic.
  static constexpr double kRetryBackoffSeconds = 0.05;
  /// Consecutive failures (per group) that open the circuit breaker and
  /// abandon the skeleton.
  static constexpr int kCircuitBreakerThreshold = 3;

  explicit TrialGuard(const TrialEvaluator* evaluator)
      : evaluator_(evaluator) {}

  /// Evaluates `spec` under the guard. Never propagates an error: every
  /// outcome is a `GuardedTrial`. A trial against an open circuit returns
  /// kCircuitOpen without touching the evaluator (and without counting a
  /// trial).
  GuardedTrial Evaluate(const ml::PipelineSpec& spec, uint64_t seed,
                        const std::string& group);

  /// True once `group` has been abandoned by the circuit breaker.
  bool CircuitOpen(const std::string& group) const {
    auto it = breakers_.find(group);
    return it != breakers_.end() && it->second.open();
  }

  /// Records budget trials an abandoned group released back to the pool.
  void NoteRedistribution(const std::string& group, int trials);

  /// Adds `other`'s report to this guard's, giving the report one guard
  /// would have built running this guard's trials and then `other`'s:
  /// counts add up and group entries keep first-seen order. Breakers are
  /// not merged.
  void MergeReport(const TrialGuard& other);

  const TrialEvaluator& evaluator() const { return *evaluator_; }
  RunReport& report() { return report_; }
  /// Moves the accumulated report out (the guard keeps running state).
  RunReport TakeReport() { return std::move(report_); }

 private:
  /// An abandoned group stays abandoned for the rest of the run: its
  /// breaker's half-open cooldown never elapses.
  static constexpr double kNeverCoolsDown =
      std::numeric_limits<double>::infinity();

  const TrialEvaluator* evaluator_;
  RunReport report_;
  /// Simulated backoff in units of `kRetryBackoffSeconds` (a retry after
  /// attempt a adds 2^a). The sum is exact, so merged reports give the
  /// same seconds in any order.
  double backoff_units_ = 0.0;
  std::map<std::string, util::CircuitBreaker> breakers_;  // per group
};

}  // namespace kgpip::hpo

#endif  // KGPIP_HPO_TRIAL_GUARD_H_
