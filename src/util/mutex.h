#ifndef KGPIP_UTIL_MUTEX_H_
#define KGPIP_UTIL_MUTEX_H_

#include <condition_variable>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "util/ts_annotations.h"

namespace kgpip::util {

/// The process-wide lock-rank table — THE documented lock order for the
/// whole codebase (DESIGN.md "Concurrency correctness & lock discipline"
/// points here). A thread may only acquire a mutex whose rank is
/// STRICTLY LOWER than every rank it already holds, so any cycle between
/// two threads requires an out-of-order acquisition that the runtime
/// checker catches on the very first occurrence — no unlucky
/// interleaving needed.
///
/// Ranks are spaced by 10 so a future layer slots in without renumbering
/// the table. Higher rank = outermost (acquired first). Notes record the
/// nestings that actually happen today.
enum class LockRank : int {
  /// Test/bench client bookkeeping (soak-harness summary). Never held
  /// while calling into the server.
  kClient = 110,
  /// serve::Server::mu_ — admission queue, tenants, in-flight set. The
  /// outermost lock of the serving daemon; request execution (cache,
  /// model, pool) runs with it released.
  kServeServer = 100,
  /// serve::AuditLog::mu_ — audit file + tail ring. Below the server
  /// lock so a status snapshot may read the tail while holding mu_;
  /// Append itself always runs with the server lock released.
  kServeAudit = 95,
  /// serve::ArtifactCache::mu_ — memory-tier LRU + stats. Held only
  /// around map/list surgery; disk I/O happens outside it.
  kServeCache = 90,
  /// util::ThreadPool global-singleton registry. Held across pool
  /// construction/destruction, which joins workers and (in the
  /// destructor path) takes the pool wake lock — hence above kPoolWake.
  kPoolRegistry = 80,
  /// util::ThreadPool wake lock: the FIFO of loops in flight (every
  /// chunk claim) and the sleep/wake handshake.
  kPoolWake = 70,
  /// One ParallelFor's completion lock (error slot + done notify).
  kPoolLoop = 65,
  /// gen::GraphGenerator decoder and training-tape free lists.
  kGenEngines = 50,
  /// util::FaultInjector decision state. Taken from pool lanes and serve
  /// workers with no other kgpip lock held.
  kFault = 40,
  /// obs::MetricsRegistry name->metric map. Leaf-ish: metric updates
  /// themselves are lock-free; only find-or-create locks.
  kObsMetrics = 30,
  /// obs::Tracer span buffer.
  kObsTrace = 20,
  /// Reserved for logging. Today logging is lock-free (atomic threshold,
  /// single fwrite per record); the rank documents where a sink lock
  /// would sit: innermost, because any subsystem logs while holding its
  /// own locks.
  kLogging = 10,
  /// Locks that never nest around anything.
  kLeaf = 0,
};

/// Human-readable name of a rank (the enum constant without the prefix).
const char* LockRankName(LockRank rank);

/// True when the rank checker is compiled into this binary. Builds that
/// want the absolute-zero-overhead mutex (no per-acquire branch) compile
/// with -DKGPIP_NO_LOCK_RANK (CMake: -DKGPIP_LOCK_RANK=OFF).
constexpr bool LockRankCheckingCompiled() {
#ifdef KGPIP_NO_LOCK_RANK
  return false;
#else
  return true;
#endif
}

/// Runtime toggle. Defaults from the KGPIP_CHECK_LOCKS environment
/// variable (any value other than empty/"0" enables), resolved once at
/// first lock. Tests flip it programmatically; the explicit setter wins
/// over the environment. Always false when checking is compiled out.
bool LockRankCheckingEnabled();
void SetLockRankCheckingEnabled(bool enabled);

/// Called on an out-of-order acquisition with both lock names and ranks.
/// The default handler prints the full per-thread held stack and aborts;
/// tests install a recording handler instead (the handler returns and
/// the acquisition proceeds, so a test can observe the violation without
/// dying).
using LockRankViolationHandler = void (*)(const char* acquiring,
                                          int acquiring_rank,
                                          const char* held, int held_rank);
void SetLockRankViolationHandler(LockRankViolationHandler handler);

/// Names of the locks the calling thread currently holds (outermost
/// first). Empty when checking is off. Test/debug introspection only.
std::vector<std::string> HeldLockNamesForTest();

/// Annotated mutex: a std::mutex the Clang thread-safety analysis can
/// reason about, plus an optional runtime lock-rank deadlock check.
///
///   * Static: the KGPIP_CAPABILITY attribute makes `KGPIP_GUARDED_BY`
///     fields and `KGPIP_REQUIRES` functions checkable by
///     `clang++ -Wthread-safety` (the CI thread-safety job).
///   * Runtime: a ranked mutex (the two-argument constructor) verifies on
///     every Lock that its rank is strictly below every rank the thread
///     already holds — see LockRank. Checking costs one relaxed atomic
///     load + branch per acquire when disabled, and is compiled out
///     entirely under KGPIP_NO_LOCK_RANK.
///
/// Default-constructed mutexes are UNRANKED: exempt from the rank check
/// (they still participate in the static analysis). Use that only for
/// function-local or test-local locks that never nest with the ranked
/// core; every long-lived mutex in src/ must carry a rank from the table.
class KGPIP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() noexcept : rank_(kUnranked), name_("unranked") {}
  Mutex(LockRank rank, const char* name) noexcept
      : rank_(static_cast<int>(rank)), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() KGPIP_ACQUIRE() {
#ifndef KGPIP_NO_LOCK_RANK
    // Check BEFORE blocking: an out-of-order acquire is reported even
    // when it would have deadlocked right here.
    RankCheckBeforeAcquire();
#endif
    mu_.lock();
#ifndef KGPIP_NO_LOCK_RANK
    RankPushAfterAcquire();
#endif
  }

  void Unlock() KGPIP_RELEASE() {
#ifndef KGPIP_NO_LOCK_RANK
    RankPopBeforeRelease();
#endif
    mu_.unlock();
  }

  /// Non-blocking acquire. A failed TryLock cannot deadlock, so rank
  /// order is not enforced on it — but a successful one still pushes
  /// onto the held stack so later Lock calls are checked against it.
  bool TryLock() KGPIP_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#ifndef KGPIP_NO_LOCK_RANK
    RankPushAfterAcquire();
#endif
    return true;
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

  static constexpr int kUnranked = -1;

 private:
  friend class CondVar;

  void RankCheckBeforeAcquire();
  void RankPushAfterAcquire();
  void RankPopBeforeRelease();

  std::mutex mu_;
  int rank_;
  const char* name_;
};

/// RAII lock (std::lock_guard shape) over util::Mutex. The
/// KGPIP_SCOPED_CAPABILITY attribute tells the static analysis the
/// constructor acquires and the destructor releases.
class KGPIP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) KGPIP_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() KGPIP_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to util::Mutex (abseil-shaped API: waits
/// take the Mutex, which the caller must hold — the KGPIP_REQUIRES
/// annotation makes that statically checked). Predicate overloads keep
/// the standard library's spurious-wakeup-safe re-check loop.
///
/// Rank bookkeeping across a wait: the wait releases and reacquires the
/// underlying std::mutex directly, leaving the mutex on the thread's
/// held-rank stack. That is the intended semantics — the predicate (and
/// everything after the wake) runs with the lock held, so acquisitions
/// from inside it are checked against the mutex's rank exactly as if the
/// lock had never been dropped; while blocked, the thread acquires
/// nothing, so the stale stack entry can't cause a false positive.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) KGPIP_REQUIRES(mu) {
    RawRef raw(mu);
    cv_.wait(raw);
  }

  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) KGPIP_REQUIRES(mu) {
    RawRef raw(mu);
    cv_.wait(raw, std::move(pred));
  }

  /// Returns false on timeout (like std::cv_status::timeout).
  bool WaitFor(Mutex& mu, double seconds) KGPIP_REQUIRES(mu) {
    RawRef raw(mu);
    return cv_.wait_for(raw, std::chrono::duration<double>(seconds)) ==
           std::cv_status::no_timeout;
  }

  /// Returns the final predicate value (true = condition met, possibly
  /// exactly at the deadline; false = timed out with it still false).
  template <typename Pred>
  bool WaitFor(Mutex& mu, double seconds, Pred pred) KGPIP_REQUIRES(mu) {
    RawRef raw(mu);
    return cv_.wait_for(raw, std::chrono::duration<double>(seconds),
                        std::move(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  /// BasicLockable view of the raw std::mutex inside a util::Mutex, used
  /// only by waits: lock/unlock bypass rank bookkeeping (see the class
  /// comment for why the held stack deliberately keeps the entry).
  class RawRef {
   public:
    explicit RawRef(Mutex& mu) : mu_(mu.mu_) {}
    void lock() { mu_.lock(); }
    void unlock() { mu_.unlock(); }

   private:
    std::mutex& mu_;
  };

  std::condition_variable_any cv_;
};

}  // namespace kgpip::util

#endif  // KGPIP_UTIL_MUTEX_H_
