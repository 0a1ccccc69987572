#include "serve/server.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include "nn/simd_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/request_context.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip::serve {

namespace {

// The three Env readers below run once, from FromEnv() at daemon startup
// before any worker thread exists, and the environment is never mutated.
double EnvDouble(const char* name, double fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- startup-time getenv, see above.
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  double value = 0.0;
  return ParseDouble(raw, &value) ? value : fallback;
}

int64_t EnvInt(const char* name, int64_t fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- startup-time getenv, see above.
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  int64_t value = 0;
  return ParseInt64(raw, &value) ? value : fallback;
}

std::string EnvStr(const char* name, std::string fallback) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- startup-time getenv, see above.
  const char* raw = std::getenv(name);
  return raw == nullptr ? fallback : std::string(raw);
}

obs::Counter* ServeCounter(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name);
}

// How often the watchdog scans the queue for expired deadlines.
constexpr double kWatchdogPeriodSeconds = 0.02;

// Nearest-rank percentile of an ascending, non-empty sample: the value
// at 1-based rank ceil(percent * n / 100), computed in integers.
int64_t NearestRank(const std::vector<int64_t>& sorted, int percent) {
  const size_t n = sorted.size();
  const size_t rank =
      std::max<size_t>(1, (static_cast<size_t>(percent) * n + 99) / 100);
  return sorted[rank - 1];
}

double MicrosToSeconds(int64_t micros) {
  return static_cast<double>(micros) / 1e6;
}

// statusz "windows" over `records` (the audit ring's recent records):
// per-tenant exact latency percentiles, max and SLO burn (share of
// requests slower than `slo_target_seconds`), plus the share of records
// shed with kResourceExhausted and the share served by the result cache.
Json WindowsJson(const std::vector<AuditRecord>& records,
                 double slo_target_seconds) {
  std::map<std::string, std::vector<int64_t>> micros_by_tenant;
  int64_t sheds = 0;
  int64_t hits = 0;
  for (const AuditRecord& record : records) {
    micros_by_tenant[record.tenant].push_back(record.total_micros);
    if (record.outcome == StatusCode::kResourceExhausted) ++sheds;
    if (record.cache_tier == "result") ++hits;
  }
  Json windows = Json::Object();
  const double slo_micros = slo_target_seconds * 1e6;
  for (auto& [tenant, micros] : micros_by_tenant) {
    std::sort(micros.begin(), micros.end());
    const auto slow =
        std::count_if(micros.begin(), micros.end(), [slo_micros](int64_t m) {
          return static_cast<double>(m) > slo_micros;
        });
    Json w = Json::Object();
    w.Set("count", static_cast<int64_t>(micros.size()));
    w.Set("p50", MicrosToSeconds(NearestRank(micros, 50)));
    w.Set("p90", MicrosToSeconds(NearestRank(micros, 90)));
    w.Set("p99", MicrosToSeconds(NearestRank(micros, 99)));
    w.Set("max", MicrosToSeconds(micros.back()));
    w.Set("slo_burn", static_cast<double>(slow) /
                          static_cast<double>(micros.size()));
    windows.Set("latency_seconds." + tenant, std::move(w));
  }
  const double denom =
      records.empty() ? 1.0 : static_cast<double>(records.size());
  windows.Set("records", static_cast<int64_t>(records.size()));
  windows.Set("shed_rate", static_cast<double>(sheds) / denom);
  windows.Set("cache_hit_rate", static_cast<double>(hits) / denom);
  return windows;
}

}  // namespace

ServeOptions ServeOptions::FromEnv() {
  ServeOptions o;
  o.num_workers = static_cast<int>(
      EnvInt("KGPIP_SERVE_WORKERS", o.num_workers));
  o.max_queue_depth = static_cast<size_t>(std::max<int64_t>(
      1, EnvInt("KGPIP_SERVE_QUEUE_DEPTH",
                static_cast<int64_t>(o.max_queue_depth))));
  // A deadline that is not positive (0, negative, nan) would refuse
  // every request; like an unparsable value, it keeps the default.
  const double deadline =
      EnvDouble("KGPIP_SERVE_DEADLINE_SECONDS", o.default_deadline_seconds);
  if (deadline > 0.0) o.default_deadline_seconds = deadline;
  o.grace_seconds = EnvDouble("KGPIP_SERVE_GRACE_SECONDS", o.grace_seconds);
  o.tenant_tokens_per_second =
      EnvDouble("KGPIP_SERVE_TENANT_RATE", o.tenant_tokens_per_second);
  o.tenant_burst_tokens =
      EnvDouble("KGPIP_SERVE_TENANT_BURST", o.tenant_burst_tokens);
  o.breaker_threshold = static_cast<int>(
      EnvInt("KGPIP_SERVE_BREAKER_THRESHOLD", o.breaker_threshold));
  o.breaker_cooldown_seconds =
      EnvDouble("KGPIP_SERVE_BREAKER_COOLDOWN", o.breaker_cooldown_seconds);
  o.degrade_queue_depth = static_cast<size_t>(std::max<int64_t>(
      1, EnvInt("KGPIP_SERVE_DEGRADE_DEPTH",
                static_cast<int64_t>(o.degrade_queue_depth))));
  o.max_trials =
      static_cast<int>(EnvInt("KGPIP_SERVE_MAX_TRIALS", o.max_trials));
  o.cache_dir = EnvStr("KGPIP_SERVE_CACHE_DIR", o.cache_dir);
  o.cache_memory_entries = static_cast<size_t>(std::max<int64_t>(
      1, EnvInt("KGPIP_SERVE_CACHE_ENTRIES",
                static_cast<int64_t>(o.cache_memory_entries))));
  o.audit_log_path = EnvStr("KGPIP_SERVE_AUDIT_LOG", o.audit_log_path);
  o.audit_max_bytes = static_cast<size_t>(std::max<int64_t>(
      1024, EnvInt("KGPIP_SERVE_AUDIT_MAX_BYTES",
                   static_cast<int64_t>(o.audit_max_bytes))));
  o.audit_ring_entries = static_cast<size_t>(std::max<int64_t>(
      1, EnvInt("KGPIP_SERVE_AUDIT_RING",
                static_cast<int64_t>(o.audit_ring_entries))));
  o.window_seconds =
      std::max(0.1, EnvDouble("KGPIP_SERVE_WINDOW_SECONDS", o.window_seconds));
  o.slo_target_seconds =
      std::max(0.0, EnvDouble("KGPIP_SERVE_SLO_TARGET", o.slo_target_seconds));
  return o;
}

Json SpecToJson(const ml::PipelineSpec& spec) {
  Json out = Json::Object();
  Json pre = Json::Array();
  for (const std::string& p : spec.preprocessors) pre.Append(p);
  out.Set("preprocessors", std::move(pre));
  out.Set("learner", spec.learner);
  Json num = Json::Object();
  for (const auto& [k, v] : spec.params.numeric()) num.Set(k, v);
  out.Set("params_num", std::move(num));
  Json str = Json::Object();
  for (const auto& [k, v] : spec.params.strings()) str.Set(k, v);
  out.Set("params_str", std::move(str));
  return out;
}

Result<ml::PipelineSpec> SpecFromJson(const Json& json) {
  if (!json.is_object() || !json.Get("learner").is_string()) {
    return Status::ParseError("pipeline spec JSON lacks a learner");
  }
  ml::PipelineSpec spec;
  spec.learner = json.Get("learner").AsString();
  for (const Json& p : json.Get("preprocessors").items()) {
    if (!p.is_string()) {
      return Status::ParseError("non-string preprocessor in spec JSON");
    }
    spec.preprocessors.push_back(p.AsString());
  }
  for (const auto& [k, v] : json.Get("params_num").members()) {
    if (!v.is_number()) {
      return Status::ParseError("non-numeric hyper-parameter '" + k + "'");
    }
    spec.params.SetNum(k, v.AsDouble());
  }
  for (const auto& [k, v] : json.Get("params_str").members()) {
    if (!v.is_string()) {
      return Status::ParseError("non-string hyper-parameter '" + k + "'");
    }
    spec.params.SetStr(k, v.AsString());
  }
  return spec;
}

std::string Server::ResultCacheKey(uint64_t digest, TaskType task,
                                   int max_trials) {
  return StrFormat("result-%016llx-%s-t%d",
                   static_cast<unsigned long long>(digest),
                   TaskTypeName(task), max_trials);
}

Server::Server(const core::Kgpip* model, ServeOptions options)
    : model_(model),
      options_(options),
      cache_(ArtifactCache::Options{options.cache_dir,
                                    options.cache_memory_entries}),
      audit_(AuditLog::Options{options.audit_log_path,
                               options.audit_max_bytes,
                               options.audit_ring_entries}) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (model_ == nullptr || !model_->trained()) {
    return Status::FailedPrecondition(
        "kgpip-serve needs a trained model (Train or LoadFile first)");
  }
  util::MutexLock lock(mu_);
  if (started_) return Status::FailedPrecondition("server already started");
  started_ = true;
  const int workers = std::max(1, options_.num_workers);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
  watchdog_ = std::thread([this] { WatchdogLoop(); });
  return Status::Ok();
}

void Server::Respond(const std::shared_ptr<Pending>& pending,
                     ServeResponse response) {
  // Worker and watchdog can race to resolve one request; first wins.
  if (pending->responded.exchange(true, std::memory_order_acq_rel)) return;
  response.latency_seconds = pending->admitted.ElapsedSeconds();
  response.request_id = pending->id;
  pending->state.store(RequestState::kDone, std::memory_order_release);

  // The winner writes the request's audit record BEFORE resolving the
  // promise, so a caller that observes its future ready also observes
  // its own audit record. No server lock is held here; the audit lock
  // (rank 95) is a leaf from this path.
  const int64_t total_micros =
      static_cast<int64_t>(response.latency_seconds * 1e6);
  const int64_t queued_micros =
      pending->queue_wait_micros.load(std::memory_order_acquire);

  AuditRecord record;
  record.request_id = pending->id;
  record.tenant = pending->request.tenant;
  record.table_digest = pending->digest;
  // A request that never reached a worker spent its whole life queued.
  record.queue_wait_micros = queued_micros >= 0 ? queued_micros : total_micros;
  record.run_micros = std::max<int64_t>(0, total_micros -
                                               record.queue_wait_micros);
  record.total_micros = total_micros;
  record.degradation_level = response.degradation_level;
  record.cache_tier = response.cache_hit ? "result" : "none";
  record.breaker_half_open = pending->breaker_half_open;
  record.bucket_tokens = pending->bucket_tokens;
  record.retries = response.status.ok() ? response.result.report.total_retries
                                        : 0;
  record.outcome = response.status.code();
  if (!response.status.ok()) record.detail = response.status.message();
  audit_.Append(std::move(record));

  pending->promise.set_value(std::move(response));
}

Status Server::AdmitLocked(Pending& pending) {
  const FitRequest& request = pending.request;
  if (draining_.load(std::memory_order_acquire) ||
      stopping_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server is draining; not admitting");
  }
  TenantState& tenant = TenantLocked(request.tenant);

  // After the cooldown the breaker admits one half-open probe; one more
  // failure re-opens it immediately.
  if (!tenant.breaker.Admit(&pending.breaker_half_open)) {
    return Status::ResourceExhausted(
        "tenant '" + request.tenant +
        "' circuit breaker is open (cooling down)");
  }

  if (options_.tenant_tokens_per_second > 0.0) {
    if (!tenant.bucket_started) {
      tenant.bucket_started = true;
      tenant.tokens = options_.tenant_burst_tokens;
      tenant.since_refill.Reset();
    }
    tenant.tokens = std::min(
        options_.tenant_burst_tokens,
        tenant.tokens + tenant.since_refill.ElapsedSeconds() *
                            options_.tenant_tokens_per_second);
    tenant.since_refill.Reset();
    if (tenant.tokens < 1.0) {
      pending.bucket_tokens = tenant.tokens;
      return Status::ResourceExhausted(
          "tenant '" + request.tenant + "' is over its request budget");
    }
    tenant.tokens -= 1.0;
    pending.bucket_tokens = tenant.tokens;  // balance after paying admission
  }

  if (queue_.size() >= options_.max_queue_depth) {
    return Status::ResourceExhausted(StrFormat(
        "request queue is full (%d queued); load shed",
        static_cast<int>(queue_.size())));
  }
  return Status::Ok();
}

std::future<ServeResponse> Server::Submit(FitRequest request) {
  static obs::Counter* submitted = ServeCounter("serve.requests");
  static obs::Counter* sheds = ServeCounter("serve.sheds");
  static obs::Gauge* depth =
      obs::MetricsRegistry::Global().GetGauge("serve.queue_depth");
  submitted->Increment();

  auto pending = std::make_shared<Pending>();
  pending->deadline_seconds = request.deadline_seconds > 0.0
                                  ? request.deadline_seconds
                                  : options_.default_deadline_seconds;
  pending->request = std::move(request);
  pending->id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  // Digest up front (outside mu_): the audit line attributes even a
  // refusal to a dataset, and the cache probes in Execute reuse it.
  pending->digest = TableDigest(pending->request.table);
  std::future<ServeResponse> future = pending->promise.get_future();

  Status admitted;
  {
    util::MutexLock lock(mu_);
    admitted = AdmitLocked(*pending);
    if (admitted.ok()) {
      queue_.push_back(pending);
      depth->Set(static_cast<double>(queue_.size()));
    }
  }
  if (!admitted.ok()) {
    if (admitted.code() == StatusCode::kResourceExhausted) {
      sheds->Increment();
    }
    ServeResponse refused;
    refused.status = admitted;
    Respond(pending, std::move(refused));
    return future;
  }
  cv_.NotifyOne();
  return future;
}

void Server::WorkerLoop(int worker_index) {
  static obs::Counter* ok_count = ServeCounter("serve.responses_ok");
  static obs::Counter* failed = ServeCounter("serve.responses_error");
  static obs::Counter* degraded = ServeCounter("serve.degraded_requests");
  static obs::Gauge* depth =
      obs::MetricsRegistry::Global().GetGauge("serve.queue_depth");
  (void)worker_index;

  for (;;) {
    std::shared_ptr<Pending> pending;
    int rung = 0;
    {
      util::MutexLock lock(mu_);
      // Thread-safety analysis cannot see that Wait runs the predicate
      // with mu_ held (the lock lives inside CondVar), so the lambda is
      // exempted rather than the loop.
      cv_.Wait(mu_, [this]() KGPIP_NO_THREAD_SAFETY_ANALYSIS {
        return !queue_.empty() || stopping_.load(std::memory_order_acquire) ||
               draining_.load(std::memory_order_acquire);
      });
      // Stop leaves whatever is queued to its own refusal loop; a drain
      // runs the queue dry first.
      if (stopping_.load(std::memory_order_acquire) || queue_.empty()) {
        return;
      }
      pending = queue_.front();
      queue_.pop_front();
      depth->Set(static_cast<double>(queue_.size()));
      // The queue depth *behind* this request decides the degradation
      // rung: a deep backlog means every queued caller is burning its
      // deadline, so each request gets a cheaper treatment.
      if (queue_.size() >= 2 * options_.degrade_queue_depth) {
        rung = 2;
      } else if (queue_.size() >= options_.degrade_queue_depth) {
        rung = 1;
      }
      if (pending->state.load(std::memory_order_acquire) ==
          RequestState::kDone) {
        continue;  // watchdog already failed it while queued
      }
      pending->state.store(RequestState::kRunning, std::memory_order_release);
      inflight_.push_back(pending);
    }
    pending->queue_wait_micros.store(
        static_cast<int64_t>(pending->admitted.ElapsedSeconds() * 1e6),
        std::memory_order_release);

    // Everything this request does from here — spans, log records, pool
    // chunks fanned out inside Fit — carries its id/tenant.
    util::ScopedRequestContext request_scope(pending->id,
                                             pending->request.tenant);
    ServeResponse response;
    if (pending->cancel.cancelled() ||
        pending->admitted.ElapsedSeconds() >= pending->deadline_seconds) {
      response.status = Status::ResourceExhausted(
          "deadline expired before the request left the queue");
    } else {
      response = Execute(*pending, rung);
    }
    if (rung > 0 && response.status.ok() && !response.cache_hit) {
      degraded->Increment();
    }
    const bool succeeded = response.status.ok();
    (succeeded ? ok_count : failed)->Increment();
    const std::string tenant = pending->request.tenant;
    const double latency = pending->admitted.ElapsedSeconds();
    // Breaker state must advance before the caller's future resolves:
    // a client that observes failure N and immediately resubmits has to
    // hit an already-open breaker, not a stale one.
    RecordOutcomeForTenant(tenant, succeeded);
    Respond(pending, std::move(response));

    obs::MetricsRegistry::Global()
        .GetHistogram("serve.latency_seconds." + tenant)
        ->Record(latency);
    {
      util::MutexLock lock(mu_);
      inflight_.erase(std::remove(inflight_.begin(), inflight_.end(), pending),
                      inflight_.end());
      if (queue_.empty() && inflight_.empty()) drained_cv_.NotifyAll();
    }
  }
}

Server::TenantState& Server::TenantLocked(const std::string& tenant) {
  return tenants_.try_emplace(tenant, options_).first->second;
}

void Server::RecordOutcomeForTenant(const std::string& tenant, bool ok) {
  static obs::Counter* trips = ServeCounter("serve.breaker_trips");
  util::MutexLock lock(mu_);
  util::CircuitBreaker& breaker = TenantLocked(tenant).breaker;
  if (ok) {
    breaker.RecordSuccess();
    return;
  }
  if (breaker.RecordFailure()) {
    trips->Increment();
    KGPIP_LOG(Warning) << "serve: circuit breaker opened for tenant '"
                       << tenant << "' after "
                       << breaker.consecutive_failures()
                       << " consecutive failures";
  }
}

void Server::WatchdogLoop() {
  static obs::Counter* cancels = ServeCounter("serve.deadline_cancels");
  const auto period = std::chrono::duration<double>(kWatchdogPeriodSeconds);
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(period);
    // Only queued requests: a running one is bounded by its Fit budget's
    // wall clock, which ends at the request's deadline.
    std::vector<std::shared_ptr<Pending>> expired_queued;
    {
      util::MutexLock lock(mu_);
      for (const auto& pending : queue_) {
        if (pending->state.load(std::memory_order_acquire) ==
                RequestState::kQueued &&
            pending->admitted.ElapsedSeconds() >= pending->deadline_seconds) {
          expired_queued.push_back(pending);
        }
      }
    }
    for (const auto& pending : expired_queued) {
      // Fail still-queued expired requests directly — they must not wait
      // for a worker to notice them.
      ServeResponse response;
      response.status = Status::ResourceExhausted(
          "deadline exceeded while queued");
      cancels->Increment();
      Respond(pending, std::move(response));
    }
  }
}

ServeResponse Server::ZeroShot(Pending& pending) {
  KGPIP_TRACE_SPAN("serve.zero_shot");
  static obs::Counter* zero_shots = ServeCounter("serve.zero_shot_fits");
  zero_shots->Increment();
  pending.stage.store("zero_shot", std::memory_order_release);
  const FitRequest& req = pending.request;
  ServeResponse response;
  response.degradation_level = 2;

  // No skeleton prediction, no HPO: the static fallback portfolio's top-1.
  const std::vector<gen::ScoredSkeleton> portfolio =
      core::FallbackPortfolio(req.task, 1);
  if (portfolio.empty()) {
    response.status = Status::Internal("no zero-shot skeleton available");
    return response;
  }

  automl::AutoMlResult result;
  result.best_spec = portfolio.front().spec;
  result.report.degradation_level = 2;
  result.report.notes =
      "zero-shot: overload degradation served the fallback portfolio's "
      "top-1 skeleton with default hyper-parameters (no HPO)";
  Status finalized = automl::FinalizeResult(result.best_spec, req.table,
                                            req.task, req.seed, &result);
  if (!finalized.ok()) {
    response.status = finalized;
    return response;
  }
  response.result = std::move(result);
  return response;
}

ServeResponse Server::Execute(Pending& pending, int degradation_level) {
  KGPIP_TRACE_SPAN("serve.request");
  static obs::Counter* cache_hits = ServeCounter("serve.cache_hits");

  const FitRequest& req = pending.request;
  ServeResponse response;
  response.degradation_level = degradation_level;

  const int trials = std::min(std::max(1, req.max_trials),
                              std::max(1, options_.max_trials));
  const std::string result_key =
      ResultCacheKey(pending.digest, req.task, trials);
  pending.stage.store("cache_probe", std::memory_order_release);

  // A completed result for this exact table content skips skeleton
  // prediction and the whole search — only the final refit runs.
  {
    Result<Json> entry = cache_.Get(result_key);
    if (entry.ok()) {
      Result<ml::PipelineSpec> spec = SpecFromJson(entry->Get("spec"));
      if (spec.ok()) {
        automl::AutoMlResult result;
        result.best_spec = *spec;
        result.validation_score = entry->Get("validation_score").AsDouble();
        result.trials = static_cast<int>(entry->Get("trials").AsInt());
        result.report.cache_hit = true;
        result.report.notes = "served from content-hash cache";
        Status finalized = automl::FinalizeResult(
            result.best_spec, req.table, req.task, req.seed, &result);
        if (finalized.ok()) {
          cache_hits->Increment();
          response.cache_hit = true;
          response.degradation_level = 0;
          response.result = std::move(result);
          return response;
        }
      }
      // Entry parsed as JSON but is semantically unusable (e.g. written
      // by an older artifact generation): heal by eviction + rebuild.
      cache_.Evict(result_key);
    }
  }

  if (degradation_level >= 2) return ZeroShot(pending);

  // Deadline propagation: the remaining request time is the Fit budget's
  // wall clock, the running fit's only deadline; its search checks it
  // before every trial. The cancel token is Stop's lever.
  const double remaining = std::max(
      0.1, pending.deadline_seconds - pending.admitted.ElapsedSeconds());
  // Rung 1 is the same fit at half the trial budget.
  const int fit_trials =
      degradation_level == 1 ? std::max(1, trials / 2) : trials;

  pending.stage.store("fit", std::memory_order_release);
  Result<automl::AutoMlResult> fitted = [&]() {
    KGPIP_TRACE_SPAN("serve.fit");
    return model_->Fit(req.table, req.task, hpo::Budget(fit_trials, remaining),
                       req.seed, &pending.cancel);
  }();
  if (!fitted.ok()) {
    response.status = fitted.status();
    return response;
  }
  fitted->report.degradation_level = degradation_level;

  // Only a full-budget answer that Stop did not cut short may seed the
  // result cache. The budget's wall clock ends at or after the request
  // deadline, so a Fit that returns before it was not stopped by time
  // either.
  if (degradation_level == 0 && !pending.cancel.cancelled() &&
      pending.admitted.ElapsedSeconds() < pending.deadline_seconds) {
    Json entry = Json::Object();
    entry.Set("spec", SpecToJson(fitted->best_spec));
    entry.Set("validation_score", fitted->validation_score);
    entry.Set("trials", fitted->trials);
    cache_.Put(result_key, entry);
  }
  response.result = std::move(*fitted);
  return response;
}

size_t Server::queue_depth() const {
  util::MutexLock lock(mu_);
  return queue_.size();
}

size_t Server::inflight() const {
  util::MutexLock lock(mu_);
  return inflight_.size();
}

Json Server::DebugStatus() const {
  // Phase 1: copy queue/in-flight/tenant state under mu_ into plain
  // structs, then release. Every later sample (cache, audit, metrics)
  // takes only locks that rank BELOW kServeServer, so this is safe to
  // call concurrently with a soak under the rank checker.
  struct QueueEntry {
    uint64_t id;
    std::string tenant;
    double age_seconds;
    double deadline_seconds;
  };
  struct FlightEntry {
    uint64_t id;
    std::string tenant;
    const char* stage;
    double elapsed_seconds;
    double deadline_seconds;
    bool cancelled;
  };
  struct TenantEntry {
    std::string name;
    double tokens;
    bool bucket_started;
    int consecutive_failures;
    bool breaker_open;
    double breaker_open_seconds;
  };
  std::vector<QueueEntry> queued;
  std::vector<FlightEntry> running;
  std::vector<TenantEntry> tenants;
  bool draining = false;
  bool stopping = false;
  {
    util::MutexLock lock(mu_);
    queued.reserve(queue_.size());
    for (const auto& pending : queue_) {
      queued.push_back({pending->id, pending->request.tenant,
                        pending->admitted.ElapsedSeconds(),
                        pending->deadline_seconds});
    }
    running.reserve(inflight_.size());
    for (const auto& pending : inflight_) {
      running.push_back({pending->id, pending->request.tenant,
                         pending->stage.load(std::memory_order_acquire),
                         pending->admitted.ElapsedSeconds(),
                         pending->deadline_seconds,
                         pending->cancel.cancelled()});
    }
    tenants.reserve(tenants_.size());
    for (const auto& [name, state] : tenants_) {
      tenants.push_back({name, state.tokens, state.bucket_started,
                         state.breaker.consecutive_failures(),
                         state.breaker.open(),
                         state.breaker.open_seconds()});
    }
    draining = draining_.load(std::memory_order_acquire);
    stopping = stopping_.load(std::memory_order_acquire);
  }

  Json out = Json::Object();
  out.Set("draining", draining);
  out.Set("stopping", stopping);
  // Which SIMD kernel tier every decode in this process dispatches to
  // (also exported as the nn.isa_level gauge and stamped into the audit
  // log's header line).
  out.Set("isa_level", nn::simd::IsaName(nn::simd::ActiveIsa()));

  Json queue = Json::Array();
  for (const QueueEntry& entry : queued) {
    Json e = Json::Object();
    e.Set("id", static_cast<int64_t>(entry.id));
    e.Set("tenant", entry.tenant);
    e.Set("age_seconds", entry.age_seconds);
    e.Set("deadline_seconds", entry.deadline_seconds);
    queue.Append(std::move(e));
  }
  out.Set("queue", std::move(queue));

  Json inflight = Json::Array();
  for (const FlightEntry& entry : running) {
    Json e = Json::Object();
    e.Set("id", static_cast<int64_t>(entry.id));
    e.Set("tenant", entry.tenant);
    e.Set("stage", entry.stage);
    e.Set("elapsed_seconds", entry.elapsed_seconds);
    e.Set("deadline_seconds", entry.deadline_seconds);
    e.Set("cancelled", entry.cancelled);
    inflight.Append(std::move(e));
  }
  out.Set("inflight", std::move(inflight));

  Json tenant_states = Json::Object();
  for (const TenantEntry& entry : tenants) {
    Json t = Json::Object();
    t.Set("tokens", entry.tokens);
    t.Set("bucket_started", entry.bucket_started);
    t.Set("consecutive_failures", entry.consecutive_failures);
    t.Set("breaker_open", entry.breaker_open);
    if (entry.breaker_open) {
      t.Set("breaker_open_seconds", entry.breaker_open_seconds);
    }
    tenant_states.Set(entry.name, std::move(t));
  }
  out.Set("tenants", std::move(tenant_states));

  {
    const ArtifactCache::Stats stats = cache_.stats();
    Json c = Json::Object();
    c.Set("hits", stats.hits);
    c.Set("misses", stats.misses);
    c.Set("writes", stats.writes);
    c.Set("corrupt_evictions", stats.corrupt_evictions);
    c.Set("dir", options_.cache_dir.empty() ? "memory-only"
                                            : options_.cache_dir);
    out.Set("cache", std::move(c));
  }

  {
    Json a = Json::Object();
    a.Set("records_written", audit_.records_written());
    a.Set("write_errors", audit_.write_errors());
    a.Set("path", options_.audit_log_path.empty() ? "ring-only"
                                                  : options_.audit_log_path);
    Json tail = Json::Array();
    for (Json& record : audit_.Tail(8)) tail.Append(std::move(record));
    a.Set("tail", std::move(tail));
    out.Set("audit", std::move(a));
  }
  out.Set("windows", WindowsJson(audit_.Recent(options_.window_seconds),
                                 options_.slo_target_seconds));

  // Metrics (registry lock rank 30, below any lock this thread still
  // holds, i.e. none).
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  {
    // Size and traffic of the similarity index behind skeleton
    // prediction (the size gauge is set when the model trains or loads;
    // counters accumulate per query).
    Json e = Json::Object();
    e.Set("size",
          static_cast<int64_t>(metrics.GetGauge("embed.index.size")->value()));
    e.Set("candidates_scanned",
          metrics.GetCounter("embed.index.candidates_scanned")->value());
    e.Set("search_allocs",
          metrics.GetCounter("embed.index.search_allocs")->value());
    out.Set("embed_index", std::move(e));
  }
  {
    Json counters = Json::Object();
    for (const char* name :
         {"serve.requests", "serve.sheds", "serve.responses_ok",
          "serve.responses_error", "serve.degraded_requests",
          "serve.cache_hits", "serve.zero_shot_fits", "serve.deadline_cancels",
          "serve.breaker_trips", "obs.trace.dropped_spans"}) {
      counters.Set(name, metrics.GetCounter(name)->value());
    }
    out.Set("counters", std::move(counters));
  }
  {
    Json pool = Json::Object();
    pool.Set("planned_threads", util::ThreadPool::PlannedThreads());
    pool.Set("tasks_executed",
             metrics.GetCounter("pool.tasks_executed")->value());
    pool.Set("parallel_fors",
             metrics.GetCounter("pool.parallel_fors")->value());
    out.Set("pool", std::move(pool));
  }
  {
    Json locks = Json::Object();
    locks.Set("rank_checking_compiled", util::LockRankCheckingCompiled());
    locks.Set("rank_checking_enabled", util::LockRankCheckingEnabled());
    out.Set("locks", std::move(locks));
  }
  {
    Json opts = Json::Object();
    opts.Set("num_workers", options_.num_workers);
    opts.Set("max_queue_depth", options_.max_queue_depth);
    opts.Set("default_deadline_seconds", options_.default_deadline_seconds);
    opts.Set("degrade_queue_depth", options_.degrade_queue_depth);
    opts.Set("window_seconds", options_.window_seconds);
    opts.Set("slo_target_seconds", options_.slo_target_seconds);
    out.Set("options", std::move(opts));
  }
  return out;
}

std::string Server::DebugStatusText() const {
  const Json status = DebugStatus();
  std::string text;
  text += StrFormat("kgpip-serve statusz  draining=%d stopping=%d\n",
                    status.Get("draining").AsBool() ? 1 : 0,
                    status.Get("stopping").AsBool() ? 1 : 0);
  const Json& queue = status.Get("queue");
  text += StrFormat("queue (%d):\n", static_cast<int>(queue.size()));
  for (const Json& e : queue.items()) {
    text += StrFormat("  #%lld %s  age %.2fs / deadline %.1fs\n",
                      static_cast<long long>(e.Get("id").AsInt()),
                      e.Get("tenant").AsString().c_str(),
                      e.Get("age_seconds").AsDouble(),
                      e.Get("deadline_seconds").AsDouble());
  }
  const Json& inflight = status.Get("inflight");
  text += StrFormat("inflight (%d):\n", static_cast<int>(inflight.size()));
  for (const Json& e : inflight.items()) {
    text += StrFormat("  #%lld %s  stage=%s  %.2fs / %.1fs%s\n",
                      static_cast<long long>(e.Get("id").AsInt()),
                      e.Get("tenant").AsString().c_str(),
                      e.Get("stage").AsString().c_str(),
                      e.Get("elapsed_seconds").AsDouble(),
                      e.Get("deadline_seconds").AsDouble(),
                      e.Get("cancelled").AsBool() ? "  CANCELLED" : "");
  }
  text += "tenants:\n";
  for (const auto& [name, t] : status.Get("tenants").members()) {
    text += StrFormat(
        "  %s  tokens=%.1f  consecutive_failures=%lld  breaker=%s\n",
        name.c_str(), t.Get("tokens").AsDouble(),
        static_cast<long long>(t.Get("consecutive_failures").AsInt()),
        t.Get("breaker_open").AsBool() ? "OPEN" : "closed");
  }
  const Json& cache = status.Get("cache");
  text += StrFormat("cache: %lld hits / %lld misses / %lld writes (%s)\n",
                    static_cast<long long>(cache.Get("hits").AsInt()),
                    static_cast<long long>(cache.Get("misses").AsInt()),
                    static_cast<long long>(cache.Get("writes").AsInt()),
                    cache.Get("dir").AsString().c_str());
  const Json& audit = status.Get("audit");
  text += StrFormat("audit: %lld records (%lld errors) -> %s\n",
                    static_cast<long long>(
                        audit.Get("records_written").AsInt()),
                    static_cast<long long>(audit.Get("write_errors").AsInt()),
                    audit.Get("path").AsString().c_str());
  const Json& windows = status.Get("windows");
  text += StrFormat(
      "windows: records=%lld shed_rate=%.3f cache_hit_rate=%.3f\n",
      static_cast<long long>(windows.Get("records").AsInt()),
      windows.Get("shed_rate").AsDouble(),
      windows.Get("cache_hit_rate").AsDouble());
  for (const auto& [name, w] : windows.members()) {
    if (!w.is_object()) continue;
    text += StrFormat("  %s  n=%lld p50=%.3fs p99=%.3fs\n", name.c_str(),
                      static_cast<long long>(w.Get("count").AsInt()),
                      w.Get("p50").AsDouble(), w.Get("p99").AsDouble());
  }
  return text;
}

void Server::BeginDrain() {
  {
    // The store must land under mu_: a worker evaluates its wait
    // predicate with mu_ held, so holding mu_ here forces this store to
    // sequence either before that evaluation (predicate sees draining)
    // or after the worker has blocked (the notify below wakes it).
    // Storing without the lock left a window — predicate false, store +
    // notify, then block — that lost the wakeup and hung the drain.
    util::MutexLock lock(mu_);
    draining_.store(true, std::memory_order_release);
  }
  cv_.NotifyAll();
}

bool Server::AwaitDrained(double timeout_seconds) {
  util::MutexLock lock(mu_);
  // Predicate runs with mu_ held inside WaitFor; analysis can't see
  // through the CondVar, so the lambda is exempted.
  return drained_cv_.WaitFor(
      mu_, timeout_seconds, [this]() KGPIP_NO_THREAD_SAFETY_ANALYSIS {
        return queue_.empty() && inflight_.empty();
      });
}

void Server::Stop() {
  std::vector<std::thread> workers;
  std::thread watchdog;
  {
    util::MutexLock lock(mu_);
    if (!started_) return;
    // Same lost-wakeup discipline as BeginDrain: the stores workers wait
    // on must happen under mu_ or a worker can block right past them and
    // the joins below deadlock.
    draining_.store(true, std::memory_order_release);
    stopping_.store(true, std::memory_order_release);
    // Running fits stop at their next cancel check and return what they
    // have; workers then exit without taking another request.
    for (const auto& pending : inflight_) pending->cancel.Cancel();
    // Swap the handles out so the joins run without mu_ (a worker's last
    // act is to reacquire mu_ to deregister from inflight_).
    workers.swap(workers_);
    watchdog.swap(watchdog_);
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
  if (watchdog.joinable()) watchdog.join();

  // Workers are gone; everything still queued gets a definite refusal.
  std::deque<std::shared_ptr<Pending>> leftover;
  {
    util::MutexLock lock(mu_);
    leftover.swap(queue_);
    started_ = false;
  }
  drained_cv_.NotifyAll();
  for (const auto& pending : leftover) {
    ServeResponse response;
    response.status =
        Status::FailedPrecondition("server stopped before execution");
    Respond(pending, std::move(response));
  }
}

}  // namespace kgpip::serve
