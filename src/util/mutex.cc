#include "util/mutex.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace kgpip::util {

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kClient:
      return "client";
    case LockRank::kServeServer:
      return "serve.server";
    case LockRank::kServeAudit:
      return "serve.audit";
    case LockRank::kServeCache:
      return "serve.cache";
    case LockRank::kPoolRegistry:
      return "pool.registry";
    case LockRank::kPoolWake:
      return "pool.wake";
    case LockRank::kPoolLoop:
      return "pool.loop";
    case LockRank::kGenEngines:
      return "gen.engines";
    case LockRank::kFault:
      return "fault";
    case LockRank::kObsMetrics:
      return "obs.metrics";
    case LockRank::kObsTrace:
      return "obs.trace";
    case LockRank::kLogging:
      return "logging";
    case LockRank::kLeaf:
      return "leaf";
  }
  return "?";
}

#ifndef KGPIP_NO_LOCK_RANK

namespace {

/// One acquired ranked mutex on the calling thread's stack.
struct HeldLock {
  const Mutex* mu;
  int rank;
  const char* name;
};

/// Per-thread acquisition stack, outermost first. Enforced ordering
/// keeps it strictly descending by rank, so the minimum held rank is
/// always the back entry.
thread_local std::vector<HeldLock> t_held;

/// -1 = unresolved (consult KGPIP_CHECK_LOCKS on first use), 0 = off,
/// 1 = on. Racing resolvers compute the same value, so a relaxed
/// publish is enough.
std::atomic<int> g_checks_state{-1};

void DefaultViolationHandler(const char* acquiring, int acquiring_rank,
                             const char* held, int held_rank) {
  // fprintf, not KGPIP_LOG: a deadlock-order violation must print even
  // when the log threshold would drop it, and must not re-enter any
  // subsystem that itself takes locks.
  std::fprintf(stderr,
               "[FATAL] lock-rank violation: acquiring '%s' (rank %d) "
               "while holding '%s' (rank %d); acquisition order must be "
               "strictly descending in rank (see util/mutex.h)\n",
               acquiring, acquiring_rank, held, held_rank);
  std::fprintf(stderr, "        held stack (outermost first):\n");
  for (const HeldLock& entry : t_held) {
    std::fprintf(stderr, "          '%s' (rank %d)\n", entry.name,
                 entry.rank);
  }
  std::fflush(stderr);
  std::abort();
}

std::atomic<LockRankViolationHandler> g_handler{&DefaultViolationHandler};

}  // namespace

bool LockRankCheckingEnabled() {
  int state = g_checks_state.load(std::memory_order_relaxed);
  if (state >= 0) return state == 1;
  // NOLINTNEXTLINE(concurrency-mt-unsafe) -- getenv is read-only here and
  // the process never calls setenv after startup; racing first readers
  // all observe the same environment.
  const char* env = std::getenv("KGPIP_CHECK_LOCKS");
  const bool enabled =
      env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  g_checks_state.store(enabled ? 1 : 0, std::memory_order_relaxed);
  return enabled;
}

void SetLockRankCheckingEnabled(bool enabled) {
  g_checks_state.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void SetLockRankViolationHandler(LockRankViolationHandler handler) {
  g_handler.store(handler != nullptr ? handler : &DefaultViolationHandler,
                  std::memory_order_relaxed);
}

std::vector<std::string> HeldLockNamesForTest() {
  std::vector<std::string> names;
  names.reserve(t_held.size());
  for (const HeldLock& entry : t_held) names.emplace_back(entry.name);
  return names;
}

void Mutex::RankCheckBeforeAcquire() {
  if (rank_ == kUnranked) return;
  if (!LockRankCheckingEnabled()) return;
  if (t_held.empty()) return;
  // Enforced ordering keeps the stack descending, so comparing against
  // the innermost (minimum) held rank checks against all of them. Equal
  // ranks are violations too: two same-rank locks acquired in opposite
  // orders on two threads is the classic AB/BA deadlock.
  const HeldLock& innermost = t_held.back();
  if (rank_ >= innermost.rank) {
    g_handler.load(std::memory_order_relaxed)(name_, rank_, innermost.name,
                                              innermost.rank);
  }
}

void Mutex::RankPushAfterAcquire() {
  if (rank_ == kUnranked) return;
  if (!LockRankCheckingEnabled()) return;
  t_held.push_back(HeldLock{this, rank_, name_});
}

void Mutex::RankPopBeforeRelease() {
  if (rank_ == kUnranked) return;
  if (!LockRankCheckingEnabled()) return;
  // Search from the innermost end: releases are almost always LIFO. A
  // missing entry is tolerated (checking was enabled mid-flight, or the
  // lock predates the first enable) rather than flagged.
  for (size_t i = t_held.size(); i > 0; --i) {
    if (t_held[i - 1].mu == this) {
      t_held.erase(t_held.begin() + static_cast<long>(i - 1));
      return;
    }
  }
}

#else  // KGPIP_NO_LOCK_RANK

bool LockRankCheckingEnabled() { return false; }
void SetLockRankCheckingEnabled(bool /*enabled*/) {}
void SetLockRankViolationHandler(LockRankViolationHandler /*handler*/) {}
std::vector<std::string> HeldLockNamesForTest() { return {}; }

#endif  // KGPIP_NO_LOCK_RANK

}  // namespace kgpip::util
