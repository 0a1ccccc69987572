#ifndef KGPIP_UTIL_THREAD_POOL_H_
#define KGPIP_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "util/rng.h"

namespace kgpip::util {

/// In-process parallel runtime for the corpus/embedding/training hot
/// paths. Design goals, in priority order:
///
///   1. **Determinism.** Parallel results must be bit-identical at any
///      thread count. The pool itself never reorders *outputs*: work is
///      identified by item index, `ParallelMap` writes results into an
///      index-addressed vector, and callers reduce left-to-right. RNG
///      state is split *before* dispatch via `ForkRngs` (sequential
///      `Rng::Fork` calls on the calling thread), so stream assignment
///      is a function of the item index alone.
///   2. **One loop queue.** The pool keeps one FIFO of loops in flight
///      under its wake mutex. A loop is cut into ~4 contiguous chunks per
///      lane, claimed in ascending index order; an idle worker claims the
///      next chunk of the oldest loop, and a lane that finishes early
///      takes more of a loop whose item costs are skewed. The thread that
///      submitted a loop claims only that loop's chunks, so it never runs
///      another caller's items while it waits for its own.
///   3. **Inline degeneration.** `KGPIP_THREADS=1` (or a single-core
///      machine) spawns no threads at all: every helper runs the loop
///      body inline on the calling thread. Nested `ParallelFor` calls
///      from inside a worker also run inline, which keeps composed
///      parallel code (e.g. forest fits inside parallel CV folds)
///      deadlock-free.
///   4. **Spin, then park.** An idle worker, and a submitter waiting for
///      its loop's last chunks, spin on the pool's atomics for a bounded
///      time before blocking on a condvar, so back-to-back loops (one
///      per generator training batch) pay no futex wake. Nothing spins
///      at one lane, and an idle pool parks within the bound.
///
/// Instrumentation: `pool.tasks_executed` (chunks run) and
/// `pool.parallel_fors` counters and a `pool.task_seconds` histogram in
/// the global obs::MetricsRegistry, plus `pool.parallel_for` trace spans.
class ThreadPool {
 public:
  /// The process-wide pool. Lazily constructed on first use with
  /// `KGPIP_THREADS` threads (unset or 0 = hardware concurrency).
  static ThreadPool& Global();

  /// Threads the *global* pool would be created with right now: the
  /// `KGPIP_THREADS` override, a `Configure` call, or the hardware
  /// concurrency. Does not force pool construction.
  static int PlannedThreads();

  /// Reconfigures the global pool's thread count (tests and benches;
  /// production uses the env var). Joins existing workers first. Must
  /// not be called from inside a pool task.
  static void Configure(int num_threads);

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes: worker threads + the calling thread.
  int num_lanes() const { return num_workers_ + 1; }
  int num_worker_threads() const { return num_workers_; }

  /// Runs body(i) for every i in [0, n), blocking until all items
  /// finish. Chunks start in index order, but which lane runs an item is
  /// not deterministic, and a worker may run items of other callers'
  /// loops before and after: per-item state belongs to the item index,
  /// never to the thread. If bodies throw, the exception of the lowest
  /// item index is rethrown after the loop drains (so the choice of
  /// surfaced error is deterministic too).
  void ParallelFor(size_t n, const std::function<void(size_t item)>& body);

  /// Order-preserving map: out[i] = fn(i). Results land by index, so the
  /// output is independent of scheduling.
  template <typename T>
  std::vector<T> ParallelMap(size_t n,
                             const std::function<T(size_t item)>& fn) {
    std::vector<T> out(n);
    ParallelFor(n, [&](size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Impl;
  Impl* impl_;  // manually managed; opaque to keep <thread> out of headers
  int num_workers_ = 0;
};

/// Splits `parent` into `n` statistically independent child generators by
/// consuming from it sequentially (n forks) on the calling thread. The
/// i-th child depends only on the parent state and i — never on which
/// worker later consumes it — so handing fork i to item i keeps parallel
/// randomness deterministic at any thread count.
std::vector<Rng> ForkRngs(Rng* parent, size_t n);

}  // namespace kgpip::util

#endif  // KGPIP_UTIL_THREAD_POOL_H_
