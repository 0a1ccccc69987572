#include "util/fault.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace kgpip::util {

namespace {

/// Published atomically: pool-lane fault sites read it while the scope's
/// owning thread installs/clears it.
std::atomic<FaultInjector*> g_active{nullptr};

/// Site identifiers feeding the decision hash; stable across runs.
enum Site {
  kSiteEvaluatorError = 1,
  kSiteResourceExhausted = 2,
  kSiteNanScore = 3,
};

/// SplitMix64 finalizer — turns a structured key into white bits.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultInjector* FaultInjector::Active() {
  return g_active.load(std::memory_order_acquire);
}

bool FaultInjector::Roll(int site, const std::string& key, double rate) {
  if (rate <= 0.0) return false;
  uint64_t index = calls_[{site, key}]++;
  uint64_t h = Mix(config_.seed ^ Mix(static_cast<uint64_t>(site)) ^
                   Fnv1a64(key) ^ Mix(index * 0x2545F4914F6CDD1DULL));
  double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

std::optional<Status> FaultInjector::EvaluatorFault(
    const std::string& learner, const std::string& key) {
  MutexLock lock(mu_);
  if (config_.fail_learners.count(learner) > 0) {
    ++counters_.evaluator_errors;
    return Status::Internal("injected: learner '" + learner +
                            "' always fails");
  }
  if (Roll(kSiteEvaluatorError, key, config_.evaluator_error_rate)) {
    ++counters_.evaluator_errors;
    return Status::Internal("injected evaluator error for '" + learner +
                            "'");
  }
  if (Roll(kSiteResourceExhausted, key, config_.resource_exhausted_rate)) {
    ++counters_.resource_exhausted;
    return Status::ResourceExhausted("injected transient exhaustion for '" +
                                     learner + "'");
  }
  return std::nullopt;
}

bool FaultInjector::InjectNanScore(const std::string& key) {
  MutexLock lock(mu_);
  if (Roll(kSiteNanScore, key, config_.nan_score_rate)) {
    ++counters_.nan_scores;
    return true;
  }
  return false;
}

void FaultInjector::CorruptArtifact(std::string* payload) {
  MutexLock lock(mu_);
  if (config_.corrupt_byte_stride <= 0 || payload->empty()) return;
  for (size_t i = 0; i < payload->size();
       i += static_cast<size_t>(config_.corrupt_byte_stride)) {
    (*payload)[i] = static_cast<char>((*payload)[i] ^ 0x20);
    ++counters_.corrupted_bytes;
  }
}

ScopedFaultInjection::ScopedFaultInjection(FaultConfig config)
    : injector_(std::move(config)) {
  KGPIP_CHECK(g_active.load(std::memory_order_acquire) == nullptr)
      << "nested ScopedFaultInjection scopes are not supported";
  g_active.store(&injector_, std::memory_order_release);
}

ScopedFaultInjection::~ScopedFaultInjection() {
  g_active.store(nullptr, std::memory_order_release);
}

}  // namespace kgpip::util
