#ifndef KGPIP_OBS_TRACE_H_
#define KGPIP_OBS_TRACE_H_

#include <atomic>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/mutex.h"
#include "util/status.h"

namespace kgpip::obs {

namespace internal_trace {
/// Process-wide tracing toggle; read with a single relaxed load so a
/// disabled span is one predictable branch (the overhead contract in
/// DESIGN.md "Observability").
extern std::atomic<bool> g_enabled;
}  // namespace internal_trace

/// One completed span. Timestamps are microseconds since the process
/// trace epoch (first span or explicit Tracer use), matching the Chrome
/// trace-event "X" (complete-event) encoding.
struct TraceEvent {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;    // per-process dense thread id, assigned on first span
  int depth = 0;  // nesting depth within the thread (1 = top level)
  /// Serve-request identity captured from util::CurrentRequestContext()
  /// when the span began; 0 / empty outside any request. The Chrome
  /// export groups spans into one virtual process per request on these.
  uint64_t request_id = 0;
  std::string tenant;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Process-wide collector of trace spans. Enabled explicitly or by the
/// `KGPIP_TRACE=<path>` environment variable, which also registers an
/// atexit hook exporting Chrome trace-event JSON to `<path>` (load it in
/// chrome://tracing or Perfetto).
class Tracer {
 public:
  static Tracer& Global();

  static bool enabled() {
    return internal_trace::g_enabled.load(std::memory_order_relaxed);
  }

  void Enable() {
    internal_trace::g_enabled.store(true, std::memory_order_relaxed);
  }
  void Disable() {
    internal_trace::g_enabled.store(false, std::memory_order_relaxed);
  }

  /// Enables tracing and exports to `path` at process exit (the
  /// KGPIP_TRACE env path, or an explicit programmatic sink).
  void EnableWithExportPath(std::string path);

  /// Appends a completed span (called by ~TraceSpan). Keeps at most
  /// `capacity()` events; later events are counted as dropped.
  void Record(TraceEvent event);

  /// Microseconds since the trace epoch.
  static double NowMicros();

  std::vector<TraceEvent> Snapshot() const;
  size_t num_events() const;
  size_t dropped_events() const;
  void Clear();

  void set_capacity(size_t capacity);

  /// {"displayTimeUnit": "ms", "traceEvents": [{"name", "cat", "ph": "X",
  ///  "ts", "dur", "pid", "tid", "args"}, ...],
  ///  "kgpipDroppedEvents": <n>} — the footer is always present so a
  /// consumer can assert completeness without guessing.
  ///
  /// Spans that carry a request context are grouped into one virtual
  /// process per request (named via "M" process_name metadata events,
  /// e.g. "request 42 [tenant-1]"); context-free spans stay on pid 1
  /// ("kgpip"). Perfetto/chrome://tracing then shows each request's spans
  /// as one collapsible track group even when workers interleave.
  Json ToChromeJson() const;
  /// ToChromeJson() replaced atomically at `path` (the KGPIP_TRACE
  /// export at exit).
  Status WriteChromeTrace(const std::string& path) const;

 private:
  Tracer() = default;

  mutable util::Mutex mu_{util::LockRank::kObsTrace, "obs.trace"};
  std::vector<TraceEvent> events_ KGPIP_GUARDED_BY(mu_);
  size_t capacity_ KGPIP_GUARDED_BY(mu_) = 1u << 20;
  size_t dropped_ KGPIP_GUARDED_BY(mu_) = 0;
  std::string export_path_ KGPIP_GUARDED_BY(mu_);
};

/// RAII span. When tracing is disabled the constructor is a relaxed
/// atomic load plus one branch — no string is built, no clock is read.
/// Spans nest per thread; nesting is recorded both as the `depth`
/// attribute and by timestamp containment (how Chrome/Perfetto stack
/// "X" events on a track).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (!Tracer::enabled()) return;
    Begin(std::string(name));
  }
  /// For dynamic names; callers on hot paths should only build the
  /// string under a `Tracer::enabled()` check of their own.
  explicit TraceSpan(std::string name) {
    if (!Tracer::enabled()) return;
    Begin(std::move(name));
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (active_) End();
  }

  /// Attaches a key/value to the span (no-ops when inactive).
  void SetAttr(const std::string& key, std::string value);
  void SetAttr(const std::string& key, double value);
  void SetAttr(const std::string& key, int64_t value);

  bool active() const { return active_; }

 private:
  void Begin(std::string name);
  void End();

  bool active_ = false;
  std::string name_;
  double start_us_ = 0.0;
  int depth_ = 0;
  uint64_t request_id_ = 0;
  std::string tenant_;
  std::vector<std::pair<std::string, std::string>> args_;
};

#define KGPIP_OBS_CONCAT_INNER(a, b) a##b
#define KGPIP_OBS_CONCAT(a, b) KGPIP_OBS_CONCAT_INNER(a, b)

/// KGPIP_TRACE_SPAN("subsystem.verb"); — times the enclosing scope.
#define KGPIP_TRACE_SPAN(name) \
  ::kgpip::obs::TraceSpan KGPIP_OBS_CONCAT(kgpip_trace_span_, __LINE__)(name)

}  // namespace kgpip::obs

#endif  // KGPIP_OBS_TRACE_H_
