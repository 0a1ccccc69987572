// kgpip-serve: a long-lived AutoML serving daemon. Loads trained KGpip
// artifacts once, then executes concurrent Fit requests from multiple
// tenants with admission control, deadlines, a crash-safe content-hash
// cache, and graceful SIGTERM drain.
//
//   $ ./build/examples/kgpip_serve [artifact.kgpip]
//
// Without an artifact path it trains a small model in-process first
// (KGPIP_SERVE_ARTIFACT also names a file to load). All serving knobs
// come from KGPIP_SERVE_* environment variables — see ServeOptions or
// the README quickstart. The demo workload drives synthetic tenants
// against the daemon until SIGTERM/SIGINT, then drains and prints the
// soak audit + cache statistics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/kgpip.h"
#include "data/benchmark_registry.h"
#include "serve/server.h"
#include "serve/soak_harness.h"
#include "util/file_io.h"
#include "util/json.h"
#include "util/string_util.h"

using namespace kgpip;  // NOLINT — example brevity

namespace {

std::atomic<bool> g_shutdown{false};
std::atomic<int> g_statusz_requests{0};

void HandleSignal(int) { g_shutdown.store(true); }

// SIGUSR1 = "show me what you are doing right now". The handler only
// bumps a counter; a poller thread does the actual DebugStatus dump
// (signal handlers must not take locks).
void HandleStatuszSignal(int) {
  g_statusz_requests.fetch_add(1, std::memory_order_relaxed);
}

// Replaces the statusz JSON atomically so a reader polling the path
// never sees a torn document.
void WriteStatuszFile(const std::string& path, const Json& status) {
  Status written = util::WriteFileAtomic(path, status.Dump(2) + "\n");
  if (!written.ok()) {
    std::fprintf(stderr, "kgpip-serve: cannot write statusz: %s\n",
                 written.ToString().c_str());
  }
}

double EnvSeconds(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  double value = 0.0;
  return ParseDouble(raw, &value) ? value : fallback;
}

int EnvInt(const char* name, int fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  int64_t value = 0;
  return ParseInt64(raw, &value) ? static_cast<int>(value) : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  // 1. Load artifacts once; every request afterwards reuses them.
  core::Kgpip model;
  const char* artifact =
      argc > 1 ? argv[1] : std::getenv("KGPIP_SERVE_ARTIFACT");
  if (artifact != nullptr) {
    Status loaded = model.LoadFile(artifact);
    if (!loaded.ok()) {
      std::fprintf(stderr, "kgpip-serve: cannot load '%s': %s\n", artifact,
                   loaded.ToString().c_str());
      return 1;
    }
    std::printf("kgpip-serve: loaded artifacts from %s\n", artifact);
  } else {
    std::printf(
        "kgpip-serve: no artifact given; training a demo model...\n");
    BenchmarkRegistry registry;
    std::vector<DatasetSpec> corpus = registry.TrainingSpecs();
    corpus.resize(16);
    codegraph::CorpusOptions corpus_options;
    corpus_options.pipelines_per_dataset = 6;
    Status trained = model.Train(corpus, corpus_options, /*seed=*/7);
    if (!trained.ok()) {
      std::fprintf(stderr, "kgpip-serve: training failed: %s\n",
                   trained.ToString().c_str());
      return 1;
    }
  }

  // 2. Start the daemon. Knobs come from the environment so deploys are
  //    tuned without a rebuild.
  serve::ServeOptions options = serve::ServeOptions::FromEnv();
  serve::Server server(&model, options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "kgpip-serve: start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  // 3. Signals, installed BEFORE the readiness line is printed so an
  //    operator (or CI) reacting to it can immediately signal us:
  //    SIGTERM/SIGINT begin a drain; SIGUSR1 requests a statusz dump.
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGUSR1, HandleStatuszSignal);

  // Statusz poller: on each SIGUSR1 it prints DebugStatusText to stderr
  // and, when KGPIP_SERVE_STATUSZ names a file, atomically rewrites that
  // file with the full DebugStatus JSON.
  const char* statusz_env = std::getenv("KGPIP_SERVE_STATUSZ");
  const std::string statusz_path = statusz_env != nullptr ? statusz_env : "";
  std::atomic<bool> statusz_done{false};
  std::thread statusz_poller([&server, &statusz_path, &statusz_done] {
    int seen = 0;
    while (!statusz_done.load(std::memory_order_acquire)) {
      const int requested = g_statusz_requests.load(std::memory_order_relaxed);
      if (requested != seen) {
        seen = requested;
        const Json status = server.DebugStatus();
        std::fprintf(stderr, "%s", server.DebugStatusText().c_str());
        if (!statusz_path.empty()) {
          WriteStatuszFile(statusz_path, status);
          std::fprintf(stderr, "kgpip-serve: statusz written to %s\n",
                       statusz_path.c_str());
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  std::printf(
      "kgpip-serve: up (%d workers, queue depth %zu, deadline %.1fs, "
      "cache %s)\n",
      options.num_workers, options.max_queue_depth,
      options.default_deadline_seconds,
      options.cache_dir.empty() ? "memory-only" : options.cache_dir.c_str());
  std::fflush(stdout);

  // 4. Demo workload: synthetic tenants in soak rounds until a signal
  //    arrives (KGPIP_SOAK_SECONDS bounds each round; KGPIP_SOAK_ROUNDS
  //    > 0 exits cleanly after that many rounds, for CI; a non-empty
  //    KGPIP_SOAK_FAULTS turns on chaos-mode fault injection).
  serve::SoakOptions soak;
  soak.num_tenants = 4;
  soak.duration_seconds = EnvSeconds("KGPIP_SOAK_SECONDS", 5.0);
  soak.request_deadline_seconds =
      std::min(options.default_deadline_seconds, 10.0);
  if (std::getenv("KGPIP_SOAK_FAULTS") != nullptr) {
    soak.inject_faults = true;
    soak.poison_fraction = 0.05;
    soak.fault_config.seed = 17;
    soak.fault_config.evaluator_error_rate = 0.1;
    soak.fault_config.nan_score_rate = 0.05;
    soak.fault_config.resource_exhausted_rate = 0.05;
    std::printf("kgpip-serve: chaos mode on (injected faults + poison)\n");
  }
  const int max_rounds = EnvInt("KGPIP_SOAK_ROUNDS", 0);
  int round = 0;
  while (!g_shutdown.load() && (max_rounds <= 0 || round < max_rounds)) {
    serve::SoakHarness harness(&server, soak);
    auto summary = harness.Run();
    if (!summary.ok()) {
      std::fprintf(stderr, "kgpip-serve: soak round %d FAILED: %s\n", round,
                   summary.status().ToString().c_str());
      std::fprintf(stderr, "kgpip-serve: statusz at failure:\n%s",
                   server.DebugStatusText().c_str());
      statusz_done.store(true, std::memory_order_release);
      statusz_poller.join();
      server.Stop();
      return 1;
    }
    std::printf("kgpip-serve: round %d  %s\n", round,
                summary->ToString().c_str());
    ++round;
  }

  // 5. Drain and report.
  std::printf("kgpip-serve: %s, draining...\n",
              g_shutdown.load() ? "signal received" : "soak rounds done");
  server.BeginDrain();
  const bool drained = server.AwaitDrained(
      options.default_deadline_seconds + options.grace_seconds);
  if (!drained) {
    // The single most useful artifact for a stuck drain: what was still
    // queued/in flight, at which stage, and for how long.
    std::fprintf(stderr,
                 "kgpip-serve: drain timed out; statusz at timeout:\n%s",
                 server.DebugStatusText().c_str());
  }
  statusz_done.store(true, std::memory_order_release);
  statusz_poller.join();
  server.Stop();
  const serve::ArtifactCache::Stats cache = server.cache().stats();
  std::printf(
      "kgpip-serve: %s (cache: %lld hits, %lld misses, %lld writes, "
      "%lld corrupt evictions)\n",
      drained ? "drained cleanly" : "drain timed out; forced stop",
      static_cast<long long>(cache.hits),
      static_cast<long long>(cache.misses),
      static_cast<long long>(cache.writes),
      static_cast<long long>(cache.corrupt_evictions));
  return drained ? 0 : 2;
}
