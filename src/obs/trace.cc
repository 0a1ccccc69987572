#include "obs/trace.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "obs/metrics.h"
#include "util/file_io.h"
#include "util/request_context.h"
#include "util/string_util.h"

namespace kgpip::obs {

namespace internal_trace {
std::atomic<bool> g_enabled{false};
}  // namespace internal_trace

namespace {

/// Dense per-thread id for trace tracks (std::thread::id is opaque).
int ThisThreadTid() {
  static std::atomic<int> next_tid{1};
  thread_local const int tid = next_tid.fetch_add(1);
  return tid;
}

int& ThisThreadDepth() {
  thread_local int depth = 0;
  return depth;
}

void ExportAtExit();

/// Reads KGPIP_TRACE once at static-init time so every binary linking
/// the library honors the toggle without code changes.
struct TraceEnvInit {
  TraceEnvInit() {
    // NOLINTNEXTLINE(concurrency-mt-unsafe) -- static-init-time getenv,
    // before any thread exists; the environment is never mutated.
    const char* path = std::getenv("KGPIP_TRACE");
    if (path != nullptr && *path != '\0') {
      Tracer::Global().EnableWithExportPath(path);
    }
  }
};
TraceEnvInit g_trace_env_init;

void ExportAtExit() {
  Tracer& tracer = Tracer::Global();
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- atexit-time getenv; worker
  // threads are joined before exit and the environment is read-only.
  const char* path = std::getenv("KGPIP_TRACE");
  if (path == nullptr || *path == '\0') return;
  Status status = tracer.WriteChromeTrace(path);
  if (!status.ok()) {
    std::fprintf(stderr, "[obs] KGPIP_TRACE export failed: %s\n",
                 status.ToString().c_str());
  }
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::EnableWithExportPath(std::string path) {
  {
    util::MutexLock lock(mu_);
    export_path_ = std::move(path);
  }
  Enable();
  static const bool registered = [] {
    std::atexit(ExportAtExit);
    return true;
  }();
  (void)registered;
}

double Tracer::NowMicros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

void Tracer::Record(TraceEvent event) {
  // Resolve the drop counter BEFORE taking mu_: GetCounter locks the
  // metrics registry (rank kObsMetrics, above kObsTrace), so fetching it
  // under mu_ would be an out-of-order acquisition.
  static Counter* dropped_spans =
      MetricsRegistry::Global().GetCounter("obs.trace.dropped_spans");
  util::MutexLock lock(mu_);
  if (events_.size() >= capacity_) {
    ++dropped_;
    dropped_spans->Increment();
    return;
  }
  events_.push_back(std::move(event));
}

std::vector<TraceEvent> Tracer::Snapshot() const {
  util::MutexLock lock(mu_);
  return events_;
}

size_t Tracer::num_events() const {
  util::MutexLock lock(mu_);
  return events_.size();
}

size_t Tracer::dropped_events() const {
  util::MutexLock lock(mu_);
  return dropped_;
}

void Tracer::Clear() {
  util::MutexLock lock(mu_);
  events_.clear();
  dropped_ = 0;
}

void Tracer::set_capacity(size_t capacity) {
  util::MutexLock lock(mu_);
  capacity_ = capacity;
}

Json Tracer::ToChromeJson() const {
  util::MutexLock lock(mu_);
  // One virtual process per request (first-appearance order keeps pids
  // stable across exports of the same buffer); pid 1 holds everything
  // recorded outside a request context.
  constexpr int kProcessPid = 1;
  std::map<uint64_t, int> request_pids;
  Json trace_events = Json::Array();
  {
    Json process_meta = Json::Object();
    process_meta.Set("name", "process_name");
    process_meta.Set("ph", "M");
    process_meta.Set("pid", kProcessPid);
    Json meta_args = Json::Object();
    meta_args.Set("name", "kgpip");
    process_meta.Set("args", std::move(meta_args));
    trace_events.Append(std::move(process_meta));
  }
  for (const TraceEvent& event : events_) {
    int pid = kProcessPid;
    if (event.request_id != 0) {
      auto [it, inserted] = request_pids.emplace(
          event.request_id,
          kProcessPid + 1 + static_cast<int>(request_pids.size()));
      pid = it->second;
      if (inserted) {
        Json meta = Json::Object();
        meta.Set("name", "process_name");
        meta.Set("ph", "M");
        meta.Set("pid", pid);
        Json meta_args = Json::Object();
        meta_args.Set("name",
                      StrFormat("request %llu [%s]",
                                static_cast<unsigned long long>(
                                    event.request_id),
                                event.tenant.c_str()));
        meta.Set("args", std::move(meta_args));
        trace_events.Append(std::move(meta));
      }
    }
    Json e = Json::Object();
    e.Set("name", event.name);
    e.Set("cat", "kgpip");
    e.Set("ph", "X");
    e.Set("ts", event.start_us);
    e.Set("dur", event.dur_us);
    e.Set("pid", pid);
    e.Set("tid", event.tid);
    Json args = Json::Object();
    args.Set("depth", event.depth);
    if (event.request_id != 0) {
      args.Set("request_id", static_cast<int64_t>(event.request_id));
      args.Set("tenant", event.tenant);
    }
    for (const auto& [key, value] : event.args) {
      args.Set(key, value);
    }
    e.Set("args", std::move(args));
    trace_events.Append(std::move(e));
  }
  Json out = Json::Object();
  out.Set("displayTimeUnit", "ms");
  out.Set("traceEvents", std::move(trace_events));
  // Always present (0 = complete capture) so consumers can assert on it.
  out.Set("kgpipDroppedEvents", static_cast<int64_t>(dropped_));
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  return util::WriteFileAtomic(path, ToChromeJson().Dump() + "\n");
}

void TraceSpan::Begin(std::string name) {
  active_ = true;
  name_ = std::move(name);
  depth_ = ++ThisThreadDepth();
  // Captured at Begin: the span belongs to whatever request the thread
  // was working for when it opened, even if a pool chunk swaps the
  // thread's context before the destructor runs.
  const util::RequestContext& ctx = util::CurrentRequestContext();
  request_id_ = ctx.request_id;
  if (ctx.active()) tenant_ = ctx.tenant;
  start_us_ = Tracer::NowMicros();
}

void TraceSpan::End() {
  const double end_us = Tracer::NowMicros();
  TraceEvent event;
  event.name = std::move(name_);
  event.start_us = start_us_;
  event.dur_us = end_us - start_us_;
  event.tid = ThisThreadTid();
  event.depth = depth_;
  event.request_id = request_id_;
  event.tenant = std::move(tenant_);
  event.args = std::move(args_);
  --ThisThreadDepth();
  Tracer::Global().Record(std::move(event));
}

void TraceSpan::SetAttr(const std::string& key, std::string value) {
  if (!active_) return;
  args_.emplace_back(key, std::move(value));
}

void TraceSpan::SetAttr(const std::string& key, double value) {
  if (!active_) return;
  args_.emplace_back(key, StrFormat("%g", value));
}

void TraceSpan::SetAttr(const std::string& key, int64_t value) {
  if (!active_) return;
  args_.emplace_back(key, StrFormat("%lld", (long long)value));
}

}  // namespace kgpip::obs
