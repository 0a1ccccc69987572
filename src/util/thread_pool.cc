#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/request_context.h"
#include "util/stopwatch.h"

namespace kgpip::util {

namespace {

/// True while the current thread is executing a pool task; nested
/// ParallelFor calls detect this and run inline (see header).
thread_local bool t_in_task = false;

int EnvThreads() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- read-only getenv; the
  // process never mutates its environment after startup.
  const char* env = std::getenv("KGPIP_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  long parsed = std::strtol(env, &end, 10);
  if (end == env || parsed < 0 || parsed > 1024) {
    KGPIP_LOG(Warning) << "ignoring invalid KGPIP_THREADS='" << env << "'";
    return 0;
  }
  return static_cast<int>(parsed);
}

/// How long an idle worker, and a submitter waiting for its loop's last
/// chunks, spin on their atomics before parking on a condvar. Generator
/// training submits a loop every few hundred microseconds, and a spin
/// that outlasts the gap between two loops spares both sides a futex
/// wake.
constexpr std::chrono::microseconds kSpinBeforePark{400};

/// Spins until `done()` holds or kSpinBeforePark passes; returns done().
template <typename Pred>
bool SpinUntil(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinBeforePark;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return true;
}

int ResolveThreads(int requested) {
  if (requested <= 0) {
    unsigned hw = std::thread::hardware_concurrency();
    requested = hw == 0 ? 1 : static_cast<int>(hw);
  }
  return requested < 1 ? 1 : requested;
}

}  // namespace

/// One parallel loop in flight. Items are pre-split into `num_chunks`
/// contiguous chunks, claimed in ascending index order. Completion and
/// exception state live here so concurrent loops (from different
/// threads) never share state.
struct ForLoop {
  size_t num_chunks = 0;
  size_t chunk_items = 0;  // n / num_chunks
  size_t long_chunks = 0;  // n % num_chunks chunks hold one item more
  const std::function<void(size_t)>* body = nullptr;
  /// The submitting thread's request context, re-installed on every lane
  /// that runs one of this loop's chunks: spans/logs emitted inside the
  /// body carry the ids of the request that submitted the loop, even when
  /// a worker runs chunks of concurrent requests' loops in turn.
  RequestContext ctx;
  /// Chunks not yet finished. A claimed chunk still counts, so a lane
  /// holding one keeps the submitter (and this loop) waiting.
  std::atomic<size_t> chunks_left{0};
  Mutex mu{LockRank::kPoolLoop, "pool.loop"};
  CondVar done_cv;
  /// Lowest item index whose body threw, and its exception. Picking the
  /// minimum makes the surfaced error independent of scheduling.
  size_t first_error_item KGPIP_GUARDED_BY(mu) =
      std::numeric_limits<size_t>::max();
  std::exception_ptr first_error KGPIP_GUARDED_BY(mu);

  /// Chunk c is items [Begin(c), Begin(c + 1)).
  size_t Begin(size_t c) const {
    return c * chunk_items + std::min(c, long_chunks);
  }
};

/// A loop in the pool's FIFO and the next of its chunks to claim. The
/// loop leaves the FIFO when its last chunk is claimed.
struct QueuedLoop {
  ForLoop* loop = nullptr;
  size_t next_chunk = 0;
};

/// A contiguous [begin, end) slice of one loop's items.
struct Chunk {
  ForLoop* loop = nullptr;
  size_t begin = 0;
  size_t end = 0;
};

struct ThreadPool::Impl {
  std::vector<std::thread> threads;
  Mutex wake_mu{LockRank::kPoolWake, "pool.wake"};
  CondVar wake_cv;
  /// Loops with unclaimed chunks, oldest first.
  std::deque<QueuedLoop> loops KGPIP_GUARDED_BY(wake_mu);
  std::atomic<bool> shutdown{false};
  /// Bumped on every submission, so a spinning worker sees new work
  /// without taking wake_mu.
  std::atomic<uint64_t> epoch{0};

  obs::Counter* tasks_executed;
  obs::Counter* parallel_fors;
  obs::Histogram* task_seconds;

  Impl() {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    tasks_executed = metrics.GetCounter("pool.tasks_executed");
    parallel_fors = metrics.GetCounter("pool.parallel_fors");
    task_seconds = metrics.GetHistogram("pool.task_seconds");
  }

  /// Claims the next chunk of `own`, or of the oldest loop when `own` is
  /// null. Returns false when there is none.
  bool Claim(const ForLoop* own, Chunk* out) {
    MutexLock lock(wake_mu);
    auto it = loops.begin();
    if (own != nullptr) {
      while (it != loops.end() && it->loop != own) ++it;
    }
    if (it == loops.end()) return false;
    ForLoop* loop = it->loop;
    const size_t c = it->next_chunk++;
    *out = Chunk{loop, loop->Begin(c), loop->Begin(c + 1)};
    if (it->next_chunk == loop->num_chunks) loops.erase(it);
    return true;
  }

  void RunChunk(const Chunk& chunk) {
    Stopwatch watch;
    ForLoop* loop = chunk.loop;
    // Run the chunk under the loop's request context, restoring this
    // lane's own context afterwards (its next chunk may belong to a
    // different request's loop).
    RequestContext saved = ExchangeRequestContext(loop->ctx);
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      try {
        (*loop->body)(i);
      } catch (...) {
        MutexLock lock(loop->mu);
        if (i < loop->first_error_item) {
          loop->first_error_item = i;
          loop->first_error = std::current_exception();
        }
      }
    }
    ExchangeRequestContext(std::move(saved));
    tasks_executed->Increment();
    task_seconds->Record(watch.ElapsedSeconds());
    // Decrement + notify under the loop mutex: the waiter also inspects
    // chunks_left under it, so the ForLoop cannot be destroyed between
    // our decrement and the notify (no use-after-free window).
    MutexLock lock(loop->mu);
    if (loop->chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      loop->done_cv.NotifyAll();
    }
  }

  void WorkerMain() {
    t_in_task = true;
    while (true) {
      // Read the epoch before looking for work: a loop queued after the
      // look bumps it, and the spin below sees that.
      const uint64_t seen_epoch = epoch.load(std::memory_order_acquire);
      Chunk chunk;
      if (Claim(nullptr, &chunk)) {
        RunChunk(chunk);
        continue;
      }
      // Spin before parking: a loop submitted meanwhile is picked up
      // without a wake.
      if (SpinUntil([&] {
            return shutdown.load(std::memory_order_acquire) ||
                   epoch.load(std::memory_order_acquire) != seen_epoch;
          })) {
        if (shutdown.load(std::memory_order_acquire)) return;
        continue;
      }
      // Park until a loop is queued. Submissions and shutdown are
      // published under wake_mu, so neither can land between this check
      // and the block (no lost wakeup); spurious wakeups re-check.
      MutexLock lock(wake_mu);
      while (!shutdown.load(std::memory_order_acquire) && loops.empty()) {
        wake_cv.Wait(wake_mu);
      }
      if (shutdown.load(std::memory_order_acquire)) return;
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : impl_(new Impl()) {
  // The submitting thread is a lane too; spawn one fewer worker.
  num_workers_ = ResolveThreads(num_threads) - 1;
  for (int w = 0; w < num_workers_; ++w) {
    impl_->threads.emplace_back([this] { impl_->WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(impl_->wake_mu);
    impl_->shutdown.store(true, std::memory_order_release);
  }
  impl_->wake_cv.NotifyAll();
  for (std::thread& t : impl_->threads) t.join();
  delete impl_;
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t item)>& body) {
  if (n == 0) return;
  const size_t workers = static_cast<size_t>(num_workers_);
  // Inline paths: single-lane pool, trivially small loops, or a nested
  // call from inside a pool task (running inline on the worker keeps the
  // pool deadlock-free and the nesting deterministic).
  if (workers == 0 || n == 1 || t_in_task) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  KGPIP_TRACE_SPAN("pool.parallel_for");
  impl_->parallel_fors->Increment();

  ForLoop loop;
  loop.body = &body;
  loop.ctx = CurrentRequestContext();
  // ~4 chunks per lane: few enough claims, and enough slack for a lane
  // that finishes early to take more of a loop with skewed item costs.
  loop.num_chunks = std::min(n, (workers + 1) * 4);
  loop.chunk_items = n / loop.num_chunks;
  loop.long_chunks = n % loop.num_chunks;
  loop.chunks_left.store(loop.num_chunks, std::memory_order_release);
  {
    MutexLock lock(impl_->wake_mu);
    impl_->loops.push_back(QueuedLoop{&loop, 0});
    impl_->epoch.fetch_add(1, std::memory_order_acq_rel);
  }
  impl_->wake_cv.NotifyAll();

  // The submitting thread claims chunks of its own loop only, so it
  // never runs another caller's items while it waits for its own.
  t_in_task = true;
  Chunk chunk;
  while (impl_->Claim(&loop, &chunk)) impl_->RunChunk(chunk);
  t_in_task = false;
  // Spin while the other lanes finish their chunks, then take loop.mu
  // even if the spin saw zero: the last RunChunk notifies under it, so
  // the loop outlives that notify.
  SpinUntil([&] {
    return loop.chunks_left.load(std::memory_order_acquire) == 0;
  });
  std::exception_ptr first_error;
  {
    MutexLock lock(loop.mu);
    while (loop.chunks_left.load(std::memory_order_acquire) > 0) {
      loop.done_cv.Wait(loop.mu);
    }
    // Copy the error out under the lock (it is mu-guarded state).
    first_error = loop.first_error;
  }
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

Mutex g_pool_mu{LockRank::kPoolRegistry, "pool.registry"};
ThreadPool* g_pool KGPIP_GUARDED_BY(g_pool_mu) = nullptr;
int g_configured_threads KGPIP_GUARDED_BY(g_pool_mu) =
    0;  // 0 = use KGPIP_THREADS / hardware

}  // namespace

ThreadPool& ThreadPool::Global() {
  MutexLock lock(g_pool_mu);
  if (g_pool == nullptr) {
    int threads = g_configured_threads > 0 ? g_configured_threads
                                           : EnvThreads();
    g_pool = new ThreadPool(threads);
  }
  return *g_pool;
}

int ThreadPool::PlannedThreads() {
  MutexLock lock(g_pool_mu);
  if (g_pool != nullptr) return g_pool->num_lanes();
  int threads = g_configured_threads > 0 ? g_configured_threads
                                         : EnvThreads();
  return ResolveThreads(threads);
}

void ThreadPool::Configure(int num_threads) {
  KGPIP_CHECK(!t_in_task)
      << "ThreadPool::Configure called from inside a pool task";
  MutexLock lock(g_pool_mu);
  g_configured_threads = num_threads;
  delete g_pool;  // joins workers; pool.registry > pool.wake in the table
  g_pool = nullptr;
}

std::vector<Rng> ForkRngs(Rng* parent, size_t n) {
  std::vector<Rng> forks;
  forks.reserve(n);
  for (size_t i = 0; i < n; ++i) forks.push_back(parent->Fork());
  return forks;
}

}  // namespace kgpip::util
