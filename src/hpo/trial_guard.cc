#include "hpo/trial_guard.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace kgpip::hpo {

SkeletonReport* RunReport::FindOrAdd(const std::string& key) {
  for (SkeletonReport& s : skeletons) {
    if (s.key == key) return &s;
  }
  skeletons.push_back(SkeletonReport{});
  skeletons.back().key = key;
  return &skeletons.back();
}

const SkeletonReport* RunReport::Find(const std::string& key) const {
  for (const SkeletonReport& s : skeletons) {
    if (s.key == key) return &s;
  }
  return nullptr;
}

Json RunReport::ToJson() const {
  Json out = Json::Object();
  Json groups = Json::Array();
  for (const SkeletonReport& s : skeletons) {
    Json g = Json::Object();
    g.Set("key", s.key);
    g.Set("trials", s.trials);
    g.Set("failures", s.failures);
    g.Set("retries", s.retries);
    g.Set("nan_quarantined", s.nan_quarantined);
    g.Set("abandoned", s.abandoned);
    g.Set("redistributed_trials", s.redistributed_trials);
    g.Set("best_score", s.best_score);
    groups.Append(std::move(g));
  }
  out.Set("skeletons", std::move(groups));
  Json taxonomy = Json::Object();
  for (const auto& [code, count] : failures_by_code) {
    taxonomy.Set(StatusCodeName(code), count);
  }
  out.Set("failures_by_code", std::move(taxonomy));
  out.Set("total_trials", total_trials);
  out.Set("total_failures", total_failures);
  out.Set("total_retries", total_retries);
  out.Set("quarantined_scores", quarantined_scores);
  out.Set("circuit_breaker_trips", circuit_breaker_trips);
  out.Set("lint_rejected", lint_rejected);
  Json lint_codes = Json::Object();
  for (const auto& [code, count] : lint_rejected_by_code) {
    lint_codes.Set(code, count);
  }
  out.Set("lint_rejected_by_code", std::move(lint_codes));
  out.Set("simulated_backoff_seconds", simulated_backoff_seconds);
  out.Set("fallback_portfolio", fallback_portfolio);
  out.Set("last_resort_pass", last_resort_pass);
  out.Set("returned_best_so_far", returned_best_so_far);
  out.Set("cache_hit", cache_hit);
  out.Set("degradation_level", degradation_level);
  out.Set("notes", notes);
  if (!stage_profile.empty()) {
    out.Set("stage_profile", stage_profile.ToJson());
  }
  return out;
}

std::string RunReport::Summary() const {
  std::string out = StrFormat(
      "trials=%d failures=%d retries=%d nan=%d breaker=%d lint_rejected=%d",
      total_trials, total_failures, total_retries, quarantined_scores,
      circuit_breaker_trips, lint_rejected);
  if (fallback_portfolio) out += " fallback_portfolio";
  if (last_resort_pass) out += " last_resort";
  if (returned_best_so_far) out += " best_so_far";
  if (cache_hit) out += " cache_hit";
  if (degradation_level > 0) {
    out += StrFormat(" degraded=%d", degradation_level);
  }
  return out;
}

GuardedTrial TrialGuard::Evaluate(const ml::PipelineSpec& spec,
                                  uint64_t seed, const std::string& group) {
  GuardedTrial out;
  util::CircuitBreaker& breaker =
      breakers_
          .try_emplace(group, kCircuitBreakerThreshold, kNeverCoolsDown)
          .first->second;
  if (!breaker.Admit()) {
    out.failure = TrialFailure::kCircuitOpen;
    out.code = StatusCode::kFailedPrecondition;
    return out;
  }

  SkeletonReport* sr = report_.FindOrAdd(group);
  ++sr->trials;
  ++report_.total_trials;

  // Mirror the report's accounting into the global metrics registry so a
  // live metrics snapshot shows guard activity mid-run.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  static obs::Counter* trials = metrics.GetCounter("hpo.trials");
  static obs::Counter* failures = metrics.GetCounter("hpo.trial_failures");
  static obs::Counter* retries = metrics.GetCounter("hpo.trial_retries");
  static obs::Counter* quarantined =
      metrics.GetCounter("hpo.quarantined_scores");
  static obs::Counter* breaker_trips =
      metrics.GetCounter("hpo.circuit_breaker_trips");
  static obs::Histogram* trial_seconds =
      metrics.GetHistogram("hpo.trial_seconds");
  trials->Increment();

  obs::TraceSpan trial_span("hpo.trial");
  // Lets a trace split trial time by learner and skeleton (the trials of
  // one Fit's skeletons interleave); no string copy untraced.
  if (trial_span.active()) {
    trial_span.SetAttr("learner", spec.learner);
    trial_span.SetAttr("skeleton", group);
  }
  util::FaultInjector* inject = util::FaultInjector::Active();
  Stopwatch watch;
  struct RecordOnExit {
    obs::Histogram* hist;
    Stopwatch* watch;
    ~RecordOnExit() { hist->Record(watch->ElapsedSeconds()); }
  } record{trial_seconds, &watch};
  Status error;
  for (int attempt = 0;; ++attempt) {
    // Each attempt re-seeds so a retry is not a bit-identical rerun.
    uint64_t attempt_seed =
        seed + static_cast<uint64_t>(attempt) * 0x9E3779B9ULL;
    Result<double> score = inject != nullptr
                               ? [&]() -> Result<double> {
                                   if (auto fault = inject->EvaluatorFault(
                                           spec.learner, group)) {
                                     return *fault;
                                   }
                                   return evaluator_->Evaluate(spec,
                                                               attempt_seed);
                                 }()
                               : evaluator_->Evaluate(spec, attempt_seed);

    if (score.ok()) {
      double value = *score;
      if (inject != nullptr && inject->InjectNanScore(group)) {
        value = std::nan("");
      }
      // NaN/Inf quarantine: a non-finite score must never reach the
      // searcher's comparisons or the incumbent. Not transient, so no
      // retry.
      if (!std::isfinite(value)) {
        out.failure = TrialFailure::kNanScore;
        out.code = StatusCode::kOutOfRange;
        ++sr->nan_quarantined;
        ++report_.quarantined_scores;
        quarantined->Increment();
        break;
      }
      out.score = value;
      out.failure = TrialFailure::kNone;
      out.code = StatusCode::kOk;
      break;
    }

    error = score.status();
    const bool transient = error.code() == StatusCode::kInternal ||
                           error.code() == StatusCode::kResourceExhausted;
    if (transient && out.retries < kMaxRetries) {
      ++out.retries;
      ++sr->retries;
      ++report_.total_retries;
      retries->Increment();
      backoff_units_ += std::ldexp(1.0, attempt);
      report_.simulated_backoff_seconds =
          kRetryBackoffSeconds * backoff_units_;
      continue;
    }
    out.failure = TrialFailure::kError;
    out.code = error.code();
    break;
  }

  if (out.ok()) {
    breaker.RecordSuccess();
    if (out.score > sr->best_score) sr->best_score = out.score;
    return out;
  }

  ++sr->failures;
  ++report_.total_failures;
  ++report_.failures_by_code[out.code];
  failures->Increment();
  if (breaker.RecordFailure()) {
    sr->abandoned = true;
    ++report_.circuit_breaker_trips;
    breaker_trips->Increment();
  }
  return out;
}

void TrialGuard::NoteRedistribution(const std::string& group, int trials) {
  if (trials <= 0) return;
  report_.FindOrAdd(group)->redistributed_trials += trials;
}

void TrialGuard::MergeReport(const TrialGuard& other) {
  const RunReport& part = other.report_;
  for (const SkeletonReport& from : part.skeletons) {
    SkeletonReport* into = report_.FindOrAdd(from.key);
    into->trials += from.trials;
    into->failures += from.failures;
    into->retries += from.retries;
    into->nan_quarantined += from.nan_quarantined;
    into->abandoned = into->abandoned || from.abandoned;
    into->redistributed_trials += from.redistributed_trials;
    into->best_score = std::max(into->best_score, from.best_score);
  }
  for (const auto& [code, count] : part.failures_by_code) {
    report_.failures_by_code[code] += count;
  }
  report_.total_trials += part.total_trials;
  report_.total_failures += part.total_failures;
  report_.total_retries += part.total_retries;
  report_.quarantined_scores += part.quarantined_scores;
  report_.circuit_breaker_trips += part.circuit_breaker_trips;
  if (other.backoff_units_ > 0.0) {
    backoff_units_ += other.backoff_units_;
    report_.simulated_backoff_seconds = kRetryBackoffSeconds * backoff_units_;
  }
}

}  // namespace kgpip::hpo
