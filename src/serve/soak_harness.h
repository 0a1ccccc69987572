#ifndef KGPIP_SERVE_SOAK_HARNESS_H_
#define KGPIP_SERVE_SOAK_HARNESS_H_

#include <cstdint>
#include <string>

#include "serve/server.h"
#include "util/fault.h"

namespace kgpip::serve {

/// Chaos-soak configuration. The defaults finish in a few seconds so the
/// harness can run inside ctest; CI's chaos job stretches
/// `duration_seconds` (KGPIP_SOAK_SECONDS) to a real soak.
struct SoakOptions {
  int num_tenants = 4;
  double duration_seconds = 5.0;
  /// Distinct synthetic datasets shared by all tenants. Small pools mean
  /// many repeated digests, i.e. heavy cache traffic.
  int num_datasets = 3;
  double request_deadline_seconds = 10.0;
  int max_trials = 4;
  /// Fraction of requests submitted with a broken table (no target
  /// column) so server-side failures and tenant breakers get exercised.
  double poison_fraction = 0.0;
  /// Installs a ScopedFaultInjection around the run (must not already be
  /// inside one — scopes do not nest).
  bool inject_faults = false;
  util::FaultConfig fault_config;
  uint64_t seed = 42;
};

/// What the soak observed. The robustness contract under test:
/// `stuck == 0` (every accepted request produced a definite Status within
/// deadline + grace) and `indefinite == 0` (no response ever carried a
/// default-constructed / meaningless status).
struct SoakSummary {
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t shed = 0;          // kResourceExhausted refusals and cancels
  int64_t failed = 0;        // other error statuses
  int64_t cache_hits = 0;
  int64_t degraded = 0;      // served at rung >= 1
  int64_t stuck = 0;         // future not ready within deadline + grace
  double p50_latency_seconds = 0.0;
  double p99_latency_seconds = 0.0;
  double max_latency_seconds = 0.0;

  std::string ToString() const;
};

/// Drives N synthetic tenants against a running Server for a fixed wall
/// clock, mixing repeated datasets (cache hits), fresh fits, optional
/// poison requests, and optional injected faults — then audits that the
/// daemon's robustness contract held.
class SoakHarness {
 public:
  SoakHarness(Server* server, SoakOptions options);

  /// Runs the soak. Fails (kInternal) iff the contract was violated:
  /// a stuck request, or a latency past deadline + grace.
  Result<SoakSummary> Run();

 private:
  Server* server_;
  SoakOptions options_;
};

}  // namespace kgpip::serve

#endif  // KGPIP_SERVE_SOAK_HARNESS_H_
