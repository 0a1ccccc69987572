#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
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

/// One parallel loop in flight. Items are pre-split into contiguous
/// chunks; a chunk is the unit of stealing. Completion and exception
/// state live here so concurrent loops (from different threads) never
/// share state.
struct ForLoop {
  size_t n = 0;
  const std::function<void(size_t)>* body = nullptr;
  /// The submitting thread's request context, re-installed on every lane
  /// that runs one of this loop's chunks: spans/logs emitted inside the
  /// body carry the ids of the request that submitted the loop, even when
  /// a worker interleaves chunks from concurrent requests.
  RequestContext ctx;
  std::atomic<size_t> chunks_left{0};
  Mutex mu{LockRank::kPoolLoop, "pool.loop"};
  CondVar done_cv;
  /// Lowest item index whose body threw, and its exception. Picking the
  /// minimum makes the surfaced error independent of scheduling.
  size_t first_error_item KGPIP_GUARDED_BY(mu) =
      std::numeric_limits<size_t>::max();
  std::exception_ptr first_error KGPIP_GUARDED_BY(mu);
};

/// A contiguous [begin, end) slice of one loop's items.
struct Chunk {
  ForLoop* loop = nullptr;
  size_t begin = 0;
  size_t end = 0;
};

/// Chase–Lev-layout deque: the owning worker pushes and pops at the
/// bottom (LIFO, cache-warm), thieves take from the top (FIFO, the
/// biggest remaining slices first). Guarded by a mutex instead of the
/// lock-free protocol — chunks are coarse, and this keeps the pool
/// trivially TSan-clean.
struct StealDeque {
  Mutex mu{LockRank::kPoolDeque, "pool.deque"};
  std::deque<Chunk> chunks KGPIP_GUARDED_BY(mu);

  void PushBottom(Chunk c) {
    MutexLock lock(mu);
    chunks.push_back(c);
  }
  bool PopBottom(Chunk* out) {
    MutexLock lock(mu);
    if (chunks.empty()) return false;
    *out = chunks.back();
    chunks.pop_back();
    return true;
  }
  bool StealTop(Chunk* out) {
    MutexLock lock(mu);
    if (chunks.empty()) return false;
    *out = chunks.front();
    chunks.pop_front();
    return true;
  }
};

struct ThreadPool::Impl {
  std::vector<std::thread> threads;
  /// One deque per lane: workers 0..W-1 plus the caller lane W.
  std::vector<std::unique_ptr<StealDeque>> deques;
  Mutex wake_mu{LockRank::kPoolWake, "pool.wake"};
  CondVar wake_cv;
  std::atomic<bool> shutdown{false};
  /// Bumped on every submission so sleeping workers re-scan the deques.
  std::atomic<uint64_t> epoch{0};

  obs::Counter* tasks_executed;
  obs::Counter* steals;
  obs::Counter* parallel_fors;
  obs::Gauge* queue_depth;
  obs::Histogram* task_seconds;

  Impl() {
    obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
    tasks_executed = metrics.GetCounter("pool.tasks_executed");
    steals = metrics.GetCounter("pool.steals");
    parallel_fors = metrics.GetCounter("pool.parallel_fors");
    queue_depth = metrics.GetGauge("pool.queue_depth");
    task_seconds = metrics.GetHistogram("pool.task_seconds");
  }

  void RunChunk(const Chunk& chunk) {
    Stopwatch watch;
    ForLoop* loop = chunk.loop;
    // Run the chunk under the loop's request context, restoring this
    // lane's own context afterwards (a steal may execute a chunk for a
    // different request than the one the lane last worked).
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

  /// Pops from the lane's own deque, then sweeps the others starting at
  /// the next lane (a fixed scan order keeps contention spread without a
  /// per-thread RNG; results never depend on who wins a steal).
  bool FindWork(size_t lane, Chunk* out) {
    if (deques[lane]->PopBottom(out)) return true;
    for (size_t off = 1; off < deques.size(); ++off) {
      size_t victim = (lane + off) % deques.size();
      if (deques[victim]->StealTop(out)) {
        steals->Increment();
        return true;
      }
    }
    return false;
  }

  void WorkerMain(size_t lane) {
    t_in_task = true;
    uint64_t seen_epoch = 0;
    while (true) {
      Chunk chunk;
      if (FindWork(lane, &chunk)) {
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
        seen_epoch = epoch.load(std::memory_order_acquire);
        continue;
      }
      MutexLock lock(wake_mu);
      if (shutdown.load(std::memory_order_acquire)) return;
      if (epoch.load(std::memory_order_acquire) != seen_epoch) {
        seen_epoch = epoch.load(std::memory_order_acquire);
        continue;  // new work arrived while we were scanning
      }
      // Predicate-based wait: shutdown/epoch publications happen under
      // wake_mu (see ParallelFor and ~ThreadPool), so a store cannot
      // land between this predicate check and the block — no lost
      // wakeup — and spurious wakeups simply re-check.
      wake_cv.Wait(wake_mu, [&] {
        return shutdown.load(std::memory_order_acquire) ||
               epoch.load(std::memory_order_acquire) != seen_epoch;
      });
      seen_epoch = epoch.load(std::memory_order_acquire);
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : impl_(new Impl()) {
  const int lanes = ResolveThreads(num_threads);
  // Lane `num_workers_` is the submitting thread; spawn one fewer worker.
  num_workers_ = lanes - 1;
  for (int i = 0; i < lanes; ++i) {
    impl_->deques.push_back(std::make_unique<StealDeque>());
  }
  for (int w = 0; w < num_workers_; ++w) {
    impl_->threads.emplace_back(
        [this, w] { impl_->WorkerMain(static_cast<size_t>(w)); });
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
  loop.n = n;
  loop.body = &body;
  loop.ctx = CurrentRequestContext();
  // ~4 chunks per lane bounds steal traffic while leaving enough slack
  // for stealing to rebalance skewed item costs.
  const size_t lanes = workers + 1;
  size_t num_chunks = std::min(n, lanes * 4);
  const size_t base = n / num_chunks;
  const size_t extra = n % num_chunks;
  loop.chunks_left.store(num_chunks, std::memory_order_release);
  impl_->queue_depth->Set(static_cast<double>(num_chunks));

  // Deal chunks round-robin across every lane's deque (submitter
  // included), then wake the workers.
  size_t begin = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t len = base + (c < extra ? 1 : 0);
    Chunk chunk{&loop, begin, begin + len};
    begin += len;
    impl_->deques[c % lanes]->PushBottom(chunk);
  }
  {
    MutexLock lock(impl_->wake_mu);
    impl_->epoch.fetch_add(1, std::memory_order_acq_rel);
  }
  impl_->wake_cv.NotifyAll();

  // The submitting thread works lane `workers` until the loop drains.
  t_in_task = true;
  Chunk chunk;
  while (loop.chunks_left.load(std::memory_order_acquire) > 0 &&
         impl_->FindWork(workers, &chunk)) {
    impl_->RunChunk(chunk);
  }
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
    loop.done_cv.Wait(loop.mu, [&] {
      return loop.chunks_left.load(std::memory_order_acquire) == 0;
    });
    // Copy the error out under the lock (it is mu-guarded state).
    first_error = loop.first_error;
  }
  impl_->queue_depth->Set(0.0);
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
