#ifndef KGPIP_SERVE_AUDIT_LOG_H_
#define KGPIP_SERVE_AUDIT_LOG_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"

namespace kgpip::serve {

/// The wide event: one record summarizing a finished request's whole
/// life. The server emits exactly one per submitted request — the emit
/// site is fused with the promise-resolution winner (Server::Respond),
/// which is already exactly-once across the worker/watchdog/shed races.
struct AuditRecord {
  uint64_t request_id = 0;
  std::string tenant;
  /// Content digest of the request table (0 when the request was refused
  /// before the table was hashed — never happens today; Submit digests
  /// up front precisely so refusals are attributable to a dataset).
  uint64_t table_digest = 0;
  int64_t queue_wait_micros = 0;
  int64_t run_micros = 0;
  int64_t total_micros = 0;
  /// Degradation rung the request was served at (0 full fit, 1 half the
  /// trial budget, 2 zero-shot).
  int degradation_level = 0;
  /// "result" when the result cache answered, else "none".
  std::string cache_tier = "none";
  /// Tenant breaker/bucket state observed at admission, under the server
  /// lock: was this a half-open probe, and how many tokens remained
  /// after paying for admission (-1 = bucket disabled).
  bool breaker_half_open = false;
  double bucket_tokens = -1.0;
  /// Trial retries spent (hpo::RunReport::total_retries); 0 for refusals
  /// and cache hits.
  int retries = 0;
  StatusCode outcome = StatusCode::kOk;
  /// Status message for non-OK outcomes ("" for OK).
  std::string detail;

  Json ToJson() const;
};

/// Append-only wide-event sink: one JSON line per record (JSONL), built
/// fully in memory and handed to the OS as a single O_APPEND write, so a
/// crash can tear at most the final line and concurrent appenders never
/// interleave. The file rotates to `<path>.1` when it would exceed
/// `max_bytes` (one generation is enough: the audit trail is a flight
/// recorder, not an archive). A bounded in-memory ring keeps the most
/// recent records, each stamped with its steady-clock append time, for
/// statusz without touching disk: its tail and its windows (per-tenant
/// latency, shed and cache-hit rates) are both read from the ring.
///
/// With an empty path the ring still works — tests and memory-only
/// deployments get tail inspection for free.
class AuditLog {
 public:
  struct Options {
    std::string path;             // empty = in-memory ring only
    size_t max_bytes = 8u << 20;  // rotate threshold
    size_t ring_capacity = 256;   // tail entries kept in memory
  };

  explicit AuditLog(Options options);
  ~AuditLog();

  AuditLog(const AuditLog&) = delete;
  AuditLog& operator=(const AuditLog&) = delete;

  /// Appends one record (single write + flush) and keeps it in the ring.
  /// Errors are counted and logged once, never surfaced to the request
  /// path: the daemon does not fail requests because its flight recorder
  /// did.
  void Append(AuditRecord record);

  /// Most recent `n` records as their file lines' JSON, oldest first.
  std::vector<Json> Tail(size_t n) const;

  /// Ring records appended within the last `seconds`, oldest first. The
  /// ring's capacity bounds how far back this reaches.
  std::vector<AuditRecord> Recent(double seconds) const;

  int64_t records_written() const;
  int64_t write_errors() const;
  const Options& options() const { return options_; }

 private:
  void OpenLocked() KGPIP_REQUIRES(mu_);
  /// Writes the "type":"header" metadata line (serving environment:
  /// dispatched SIMD level) at the top of a fresh file. Not a wide
  /// event: excluded from the ring and records_written.
  void WriteHeaderLocked() KGPIP_REQUIRES(mu_);
  void RotateLocked() KGPIP_REQUIRES(mu_);

  Options options_;
  mutable util::Mutex mu_{util::LockRank::kServeAudit, "serve.audit"};
  std::FILE* file_ KGPIP_GUARDED_BY(mu_) = nullptr;
  size_t bytes_ KGPIP_GUARDED_BY(mu_) = 0;
  int64_t written_ KGPIP_GUARDED_BY(mu_) = 0;
  int64_t errors_ KGPIP_GUARDED_BY(mu_) = 0;
  bool error_logged_ KGPIP_GUARDED_BY(mu_) = false;
  struct RingEntry {
    std::chrono::steady_clock::time_point appended;
    AuditRecord record;
  };
  /// Stamped under mu_, so ring order is append-time order.
  std::deque<RingEntry> ring_ KGPIP_GUARDED_BY(mu_);
};

}  // namespace kgpip::serve

#endif  // KGPIP_SERVE_AUDIT_LOG_H_
