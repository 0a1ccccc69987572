#ifndef KGPIP_SERVE_SERVER_H_
#define KGPIP_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automl/system.h"
#include "core/kgpip.h"
#include "data/table.h"
#include "hpo/trial_guard.h"
#include "serve/audit_log.h"
#include "serve/cache.h"
#include "util/cancel.h"
#include "util/circuit_breaker.h"
#include "util/mutex.h"
#include "util/stopwatch.h"

namespace kgpip::serve {

/// Daemon configuration. Every knob has a `KGPIP_SERVE_*` environment
/// override (see FromEnv) so the deployed binary is tuned without a
/// rebuild.
struct ServeOptions {
  /// Worker threads executing requests. Heavy per-request math still
  /// fans out on the shared util::ThreadPool, so this bounds *request*
  /// concurrency, not core usage.       env: KGPIP_SERVE_WORKERS
  int num_workers = 2;
  /// Queued-request bound; admissions past it are shed with
  /// kResourceExhausted.               env: KGPIP_SERVE_QUEUE_DEPTH
  size_t max_queue_depth = 16;
  /// Deadline applied to requests that do not carry one. The env value
  /// is ignored unless it is greater than 0.
  ///                                   env: KGPIP_SERVE_DEADLINE_SECONDS
  double default_deadline_seconds = 30.0;
  /// Extra wall-clock a request may run past its deadline before the
  /// soak harness calls it stuck: a started trial and the final refit
  /// still finish after the budget runs out.
  ///                                   env: KGPIP_SERVE_GRACE_SECONDS
  double grace_seconds = 5.0;
  /// Per-tenant token bucket: sustained admissions/second and burst
  /// capacity. <= 0 rate disables the bucket.
  ///                                   env: KGPIP_SERVE_TENANT_RATE
  double tenant_tokens_per_second = 0.0;
  ///                                   env: KGPIP_SERVE_TENANT_BURST
  double tenant_burst_tokens = 8.0;
  /// Consecutive request failures that open a tenant's circuit breaker;
  /// <= 0 disables breaking.           env: KGPIP_SERVE_BREAKER_THRESHOLD
  int breaker_threshold = 5;
  /// Seconds an open tenant breaker sheds before the next request is let
  /// through as a half-open probe.     env: KGPIP_SERVE_BREAKER_COOLDOWN
  double breaker_cooldown_seconds = 2.0;
  /// Queue depth (sampled at dequeue) at which the degradation ladder
  /// steps down one rung; 2x this depth steps down two.
  ///                                   env: KGPIP_SERVE_DEGRADE_DEPTH
  size_t degrade_queue_depth = 8;
  /// Trial cap per request (requests may ask for less, never more).
  ///                                   env: KGPIP_SERVE_MAX_TRIALS
  int max_trials = 12;
  /// On-disk cache directory; empty = memory-only.
  ///                                   env: KGPIP_SERVE_CACHE_DIR
  std::string cache_dir;
  size_t cache_memory_entries = 256;  // env: KGPIP_SERVE_CACHE_ENTRIES
  /// Wide-event audit log (one JSON line per finished request); empty
  /// path keeps the in-memory tail ring only.
  ///                                   env: KGPIP_SERVE_AUDIT_LOG
  std::string audit_log_path;
  /// Size at which the audit file rotates to `<path>.1`.
  ///                                   env: KGPIP_SERVE_AUDIT_MAX_BYTES
  size_t audit_max_bytes = 8u << 20;
  /// Recent audit records kept in memory for statusz: its audit tail
  /// and its windows, which therefore span at most this many requests.
  ///                                   env: KGPIP_SERVE_AUDIT_RING
  size_t audit_ring_entries = 256;
  /// Horizon of statusz's windows (per-tenant latency percentiles and
  /// SLO burn, shed and cache-hit rates): the audit ring's records
  /// appended in the last window_seconds, not process lifetime.
  ///                                   env: KGPIP_SERVE_WINDOW_SECONDS
  double window_seconds = 60.0;
  /// Latency target for statusz's per-tenant SLO burn: the share of a
  /// tenant's windowed requests slower than this.
  ///                                   env: KGPIP_SERVE_SLO_TARGET
  double slo_target_seconds = 5.0;

  /// Defaults overlaid with any KGPIP_SERVE_* environment variables.
  static ServeOptions FromEnv();
};

/// One fit request. The table is copied in (requests outlive the
/// submitting scope once queued).
struct FitRequest {
  std::string tenant = "default";
  Table table;
  TaskType task = TaskType::kBinaryClassification;
  /// Trial budget; clamped to ServeOptions::max_trials.
  int max_trials = 8;
  /// Wall-clock deadline; <= 0 uses ServeOptions::default_deadline_seconds.
  double deadline_seconds = 0.0;
  uint64_t seed = 1;
};

/// Terminal outcome of a request. Exactly one is delivered per accepted
/// submission — the daemon never drops a request silently.
struct ServeResponse {
  Status status;
  /// Valid only when status.ok().
  automl::AutoMlResult result;
  /// True when the answer came from the result cache (skeleton
  /// prediction and HPO skipped; only the final refit ran).
  bool cache_hit = false;
  /// Degradation rung served at (mirrors result.report.degradation_level).
  int degradation_level = 0;
  double latency_seconds = 0.0;
  /// Process-unique id assigned at Submit — the correlation key across
  /// trace spans, log records, and the audit line for this request.
  uint64_t request_id = 0;

  ServeResponse() : status(Status::Ok()) {}
};

/// Long-lived serving daemon over one trained (const, thread-safe) Kgpip
/// instance. Every fit it runs is one core::Kgpip::Fit call; the daemon
/// decides only when, at what budget, and whether a cached answer or
/// the zero-shot rung serves instead. Robustness model:
///
///   * Admission control: bounded queue + per-tenant token buckets +
///     per-tenant circuit breakers. Overload is shed *at the door* with
///     kResourceExhausted; a draining server refuses with
///     kFailedPrecondition.
///   * Deadlines: each request carries one. A watchdog thread fails
///     still-queued expired requests directly. A running request's
///     remaining time is its Fit budget's wall clock, which the search
///     checks before every trial; nothing else times it out. Its
///     CancelToken is Stop's lever: Fit's search checks it before each
///     skeleton slice and continuation.
///   * Degradation ladder, sampled from queue depth at dequeue:
///     rung 0 full fit, rung 1 the same fit at half the trial budget,
///     rung 2 zero-shot: the fallback portfolio's top-1 skeleton,
///     finalized without search.
///   * Crash-safe caching: completed rung-0 results keyed by dataset
///     content digest in an ArtifactCache; a repeated fit of an
///     identical table is a cache hit that skips skeleton prediction
///     and HPO. Corrupt entries are evicted and rebuilt.
///
/// Lifecycle: construct -> Start() -> Submit()* -> BeginDrain() ->
/// AwaitDrained() -> Stop(). Stop() without a drain refuses queued
/// requests and cancels in-flight ones. The destructor calls Stop().
class Server {
 public:
  Server(const core::Kgpip* model, ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns workers + watchdog. Fails if the model is not trained.
  Status Start();

  /// Admits or sheds `request`. The returned future always becomes ready
  /// with a definite ServeResponse — immediately (shed/drain refusals
  /// carry the rejection status) or when the request completes, expires
  /// in the queue, is refused by Stop, or fails.
  std::future<ServeResponse> Submit(FitRequest request);

  /// Stops admitting (new Submits get kFailedPrecondition) while letting
  /// queued + running requests finish. SIGTERM handler entry point.
  void BeginDrain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Blocks until the queue and all in-flight requests are done, or
  /// `timeout_seconds` elapse. Returns true when fully drained.
  bool AwaitDrained(double timeout_seconds);

  /// Stops admission, cancels every in-flight request, joins workers +
  /// watchdog. Workers take no further request once Stop begins, so
  /// every request still queued is failed with kFailedPrecondition,
  /// never run and never left unresolved. Idempotent.
  void Stop();

  size_t queue_depth() const;
  size_t inflight() const;
  const ArtifactCache& cache() const { return cache_; }
  ArtifactCache& mutable_cache() { return cache_; }
  const AuditLog& audit_log() const { return audit_; }
  const ServeOptions& options() const { return options_; }

  /// Live introspection snapshot — the daemon's statusz. Safe to call
  /// from any thread at any time, including mid-soak: the server lock is
  /// held only while copying queue/in-flight/tenant state, then each
  /// subsystem (cache, audit ring, pool, lock-rank info) is sampled in
  /// rank order with it released. "windows" is computed from the audit
  /// ring's records of the last `window_seconds`: per tenant
  /// "latency_seconds.<tenant>" {count, nearest-rank p50/p90/p99, max,
  /// slo_burn}, plus "records", "shed_rate" and "cache_hit_rate".
  ///
  /// {"queue": [{id,tenant,age_seconds,deadline_seconds}...],
  ///  "inflight": [{id,tenant,stage,elapsed_seconds,cancelled}...],
  ///  "tenants": {name: {tokens,breaker_open,consecutive_failures}...},
  ///  "cache": {...}, "audit": {...tail...}, "windows": {...},
  ///  "counters": {...}, "pool": {...}, "locks": {...}, "options": {...}}
  Json DebugStatus() const;
  /// The same snapshot rendered for a terminal / SIGUSR1 dump.
  std::string DebugStatusText() const;

  /// The result cache's key (exposed for tests and repair tooling).
  static std::string ResultCacheKey(uint64_t digest, TaskType task,
                                    int max_trials);

 private:
  enum class RequestState { kQueued, kRunning, kDone };

  struct Pending {
    FitRequest request;
    std::promise<ServeResponse> promise;
    /// Guards the one-shot promise across worker/watchdog races.
    std::atomic<bool> responded{false};
    std::atomic<RequestState> state{RequestState::kQueued};
    util::CancelToken cancel;
    Stopwatch admitted;
    double deadline_seconds = 0.0;
    /// Process-unique request id, assigned in Submit before admission so
    /// even refusals are attributable.
    uint64_t id = 0;
    /// Table content digest, computed once in Submit and reused by the
    /// cache probe (the request is immutable after admission).
    uint64_t digest = 0;
    /// Admission-time tenant state (written once under mu_ before the
    /// request is published; read only after it finished).
    bool breaker_half_open = false;
    double bucket_tokens = -1.0;  // post-admission balance; -1 = no bucket
    /// Execution checkpoints for statusz ("queued", "cache_probe",
    /// "fit", ...). Static strings only; updated lock-free by the worker,
    /// read by DebugStatus.
    std::atomic<const char*> stage{"queued"};
    /// Microseconds spent queued (set at dequeue; -1 = never dequeued).
    std::atomic<int64_t> queue_wait_micros{-1};
  };

  struct TenantState {
    explicit TenantState(const ServeOptions& options)
        : breaker(options.breaker_threshold,
                  options.breaker_cooldown_seconds) {}
    double tokens = 0.0;
    bool bucket_started = false;
    Stopwatch since_refill;
    util::CircuitBreaker breaker;
  };

  /// Fulfils the promise exactly once; later calls are no-ops. The
  /// winning call also emits the request's wide-event audit line —
  /// fusing it with the promise race is what makes "exactly one audit
  /// line per submitted request" hold across worker/watchdog/shed/stop
  /// outcomes. Must be called with mu_ released (the audit lock ranks
  /// below it).
  void Respond(const std::shared_ptr<Pending>& pending,
               ServeResponse response) KGPIP_EXCLUDES(mu_);

  void WorkerLoop(int worker_index);
  void WatchdogLoop();

  /// Admission check under `mu_`; returns a shed/refusal status or OK.
  /// Stamps the admission-time breaker/bucket observations into
  /// `pending` for the audit line.
  Status AdmitLocked(Pending& pending) KGPIP_REQUIRES(mu_);
  /// `tenant`'s state, created on first use.
  TenantState& TenantLocked(const std::string& tenant) KGPIP_REQUIRES(mu_);
  void RecordOutcomeForTenant(const std::string& tenant, bool ok)
      KGPIP_EXCLUDES(mu_);

  /// Executes one request end to end (cache probe, degradation ladder,
  /// Kgpip::Fit, cache fill). Never throws; always returns a definite
  /// response.
  ServeResponse Execute(Pending& pending, int degradation_level);

  /// Rung 2: the fallback portfolio's top-1 skeleton with default
  /// params, refit once, no HPO.
  ServeResponse ZeroShot(Pending& pending);

  const core::Kgpip* model_;
  ServeOptions options_;
  ArtifactCache cache_;
  AuditLog audit_;
  std::atomic<uint64_t> next_request_id_{1};

  /// The daemon's outermost lock (LockRank::kServeServer): admission
  /// queue, tenant state, in-flight set, lifecycle flags. Request
  /// execution (cache, model, pool) always runs with it released.
  mutable util::Mutex mu_{util::LockRank::kServeServer, "serve.server"};
  util::CondVar cv_;
  util::CondVar drained_cv_;
  std::deque<std::shared_ptr<Pending>> queue_ KGPIP_GUARDED_BY(mu_);
  std::vector<std::shared_ptr<Pending>> inflight_ KGPIP_GUARDED_BY(mu_);
  std::map<std::string, TenantState> tenants_ KGPIP_GUARDED_BY(mu_);
  std::vector<std::thread> workers_ KGPIP_GUARDED_BY(mu_);
  std::thread watchdog_ KGPIP_GUARDED_BY(mu_);
  /// Atomics, not mu_-guarded: read on hot admission/worker paths, but
  /// every store happens WITH mu_ held so a cv waiter between its
  /// predicate check and its block (which owns mu_) can never miss the
  /// transition (see BeginDrain/Stop).
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  bool started_ KGPIP_GUARDED_BY(mu_) = false;
};

/// Serializes a pipeline spec for cache entries (numeric and string
/// hyper-parameters kept apart so the round trip is lossless).
Json SpecToJson(const ml::PipelineSpec& spec);
Result<ml::PipelineSpec> SpecFromJson(const Json& json);

}  // namespace kgpip::serve

#endif  // KGPIP_SERVE_SERVER_H_
