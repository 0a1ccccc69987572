#include "serve/soak_harness.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/string_util.h"

namespace kgpip::serve {

namespace {

/// Deterministic per-tenant splitmix64 stream for request shaping.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  std::sort(sorted->begin(), sorted->end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted->size()));
  idx = std::min(idx, sorted->size() - 1);
  return (*sorted)[idx];
}

}  // namespace

std::string SoakSummary::ToString() const {
  return StrFormat(
      "submitted=%lld ok=%lld shed=%lld failed=%lld cache_hits=%lld "
      "degraded=%lld stuck=%lld p50=%.3fs p99=%.3fs max=%.3fs",
      static_cast<long long>(submitted), static_cast<long long>(ok),
      static_cast<long long>(shed), static_cast<long long>(failed),
      static_cast<long long>(cache_hits), static_cast<long long>(degraded),
      static_cast<long long>(stuck), p50_latency_seconds,
      p99_latency_seconds, max_latency_seconds);
}

SoakHarness::SoakHarness(Server* server, SoakOptions options)
    : server_(server), options_(options) {}

Result<SoakSummary> SoakHarness::Run() {
  // One shared dataset pool: identical specs generate identical tables,
  // so tenants repeatedly hitting the same digest exercise the cache.
  std::vector<Table> pool;
  const int num_datasets = std::max(1, options_.num_datasets);
  pool.reserve(static_cast<size_t>(num_datasets));
  for (int i = 0; i < num_datasets; ++i) {
    DatasetSpec spec;
    spec.name = StrFormat("soak_ds_%d", i);
    spec.rows = 120;
    spec.num_numeric = 5;
    spec.num_categorical = 1;
    spec.family = static_cast<ConceptFamily>(i % 5);
    spec.seed = options_.seed + static_cast<uint64_t>(i);
    pool.push_back(GenerateDataset(spec));
  }
  Table poison("soak_poison");  // no target column: every fit must fail
  {
    DatasetSpec spec;
    spec.name = "soak_poison";
    spec.rows = 40;
    spec.num_numeric = 3;
    spec.seed = options_.seed + 977;
    poison = GenerateDataset(spec);
    poison.set_target_name("");
  }

  std::unique_ptr<util::ScopedFaultInjection> faults;
  if (options_.inject_faults) {
    faults = std::make_unique<util::ScopedFaultInjection>(
        options_.fault_config);
  }

  const double wait_budget_seconds = options_.request_deadline_seconds +
                                     server_->options().grace_seconds + 2.0;
  // kClient: tenant threads hold it only around summary bookkeeping and
  // never while calling into the server, but Submit() does take the
  // server's locks, so the harness lock ranks above everything in-daemon.
  // Audited for lost wakeups: tenant threads block on a std::future, not
  // on this mutex, and every wait_for carries deadline + grace — no
  // wait here depends on a notify racing a predicate.
  util::Mutex mu(util::LockRank::kClient, "soak.summary");
  SoakSummary summary;
  std::vector<double> latencies;

  std::vector<std::thread> tenants;
  tenants.reserve(static_cast<size_t>(std::max(1, options_.num_tenants)));
  for (int t = 0; t < std::max(1, options_.num_tenants); ++t) {
    tenants.emplace_back([&, t] {
      uint64_t rng = Mix(options_.seed ^ (0x5151ULL * (t + 1)));
      const std::string tenant = StrFormat("tenant-%d", t);
      Deadline run_deadline(options_.duration_seconds);
      while (!run_deadline.Expired()) {
        rng = Mix(rng);
        const bool poisoned =
            options_.poison_fraction > 0.0 &&
            static_cast<double>(rng % 1000) / 1000.0 <
                options_.poison_fraction;
        FitRequest request;
        request.tenant = tenant;
        request.table =
            poisoned ? poison : pool[static_cast<size_t>(rng) % pool.size()];
        request.task = TaskType::kBinaryClassification;
        request.max_trials = options_.max_trials;
        request.deadline_seconds = options_.request_deadline_seconds;
        request.seed = rng;

        std::future<ServeResponse> future =
            server_->Submit(std::move(request));
        {
          util::MutexLock lock(mu);
          ++summary.submitted;
        }
        const auto wait = std::chrono::duration<double>(wait_budget_seconds);
        if (future.wait_for(wait) != std::future_status::ready) {
          // Contract violation: the request neither completed nor was
          // shed/cancelled inside deadline + grace. Leave the future
          // unread (the promise may still fire) and record the breach.
          util::MutexLock lock(mu);
          ++summary.stuck;
          continue;
        }
        ServeResponse response = future.get();
        {
          util::MutexLock lock(mu);
          if (response.status.ok()) {
            ++summary.ok;
            if (response.cache_hit) ++summary.cache_hits;
            if (response.degradation_level > 0) ++summary.degraded;
          } else if (response.status.code() ==
                     StatusCode::kResourceExhausted) {
            ++summary.shed;
          } else {
            ++summary.failed;
          }
          latencies.push_back(response.latency_seconds);
        }
      }
    });
  }
  for (std::thread& tenant : tenants) tenant.join();
  faults.reset();

  summary.p50_latency_seconds = Percentile(&latencies, 0.50);
  summary.p99_latency_seconds = Percentile(&latencies, 0.99);
  summary.max_latency_seconds =
      latencies.empty() ? 0.0
                        : *std::max_element(latencies.begin(),
                                            latencies.end());

  if (summary.stuck > 0) {
    return Status::Internal(StrFormat(
        "soak contract violated: %lld request(s) stuck past deadline + "
        "grace (%s)",
        static_cast<long long>(summary.stuck),
        summary.ToString().c_str()));
  }
  if (summary.max_latency_seconds > wait_budget_seconds) {
    return Status::Internal(StrFormat(
        "soak contract violated: max latency %.3fs exceeds deadline + "
        "grace %.3fs (%s)",
        summary.max_latency_seconds, wait_budget_seconds,
        summary.ToString().c_str()));
  }
  return summary;
}

}  // namespace kgpip::serve
