// Thread pool: determinism at any thread count, exception propagation,
// RNG forking, nesting, stress coverage, bounded spinning (loops during
// and after the spin, an idle pool parks), and outside submitters that
// run only their own loops.
#include "util/thread_pool.h"

#include <sys/resource.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace kgpip::util {
namespace {

/// Runs `fn` under a global pool of each size in `sizes`, returning one
/// result per size. Restores the default (env/hardware) pool afterwards.
template <typename T>
std::vector<T> WithPoolSizes(const std::vector<int>& sizes,
                             const std::function<T()>& fn) {
  std::vector<T> results;
  for (int threads : sizes) {
    ThreadPool::Configure(threads);
    results.push_back(fn());
  }
  ThreadPool::Configure(0);
  return results;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool::Configure(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    ThreadPool::Global().ParallelFor(
        kN, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                   << " threads";
    }
  }
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, ParallelMapPreservesOrder) {
  auto squares = [] {
    return ThreadPool::Global().ParallelMap<int>(
        256, [](size_t i) { return static_cast<int>(i * i); });
  };
  auto results = WithPoolSizes<std::vector<int>>({1, 3, 8}, squares);
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), 256u);
    for (size_t i = 0; i < r.size(); ++i) {
      ASSERT_EQ(r[i], static_cast<int>(i * i));
    }
  }
}

TEST(ThreadPoolTest, LowestIndexExceptionWins) {
  ThreadPool::Configure(4);
  try {
    ThreadPool::Global().ParallelFor(400, [](size_t i) {
      if (i % 7 == 3) {  // first thrower is index 3
        throw std::runtime_error("item " + std::to_string(i));
      }
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 3");
  }
  // The pool survives an exceptional loop.
  int sum = 0;
  std::atomic<int> atomic_sum{0};
  ThreadPool::Global().ParallelFor(
      100, [&](size_t i) { atomic_sum += static_cast<int>(i); });
  sum = atomic_sum.load();
  EXPECT_EQ(sum, 4950);
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromInlinePool) {
  ThreadPool::Configure(1);
  EXPECT_THROW(ThreadPool::Global().ParallelFor(
                   10, [](size_t) { throw std::logic_error("inline"); }),
               std::logic_error);
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool::Configure(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  ThreadPool::Global().ParallelFor(64, [&](size_t outer) {
    ThreadPool::Global().ParallelFor(64, [&](size_t inner) {
      hits[outer * 64 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, ForkRngsIsIndependentOfThreadCount) {
  auto draw = [] {
    Rng parent(99);
    std::vector<Rng> forks = ForkRngs(&parent, 16);
    return ThreadPool::Global().ParallelMap<uint64_t>(
        16, [&](size_t i) { return forks[i].Next(); });
  };
  auto streams = WithPoolSizes<std::vector<uint64_t>>({1, 4}, draw);
  ASSERT_EQ(streams[0], streams[1]);
  // Forked streams are distinct from each other.
  std::set<uint64_t> distinct(streams[0].begin(), streams[0].end());
  EXPECT_EQ(distinct.size(), streams[0].size());
}

TEST(ThreadPoolTest, StressManySmallLoops) {
  ThreadPool::Configure(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> total{0};
    size_t n = static_cast<size_t>(1 + (round % 67));
    ThreadPool::Global().ParallelFor(
        n, [&](size_t i) { total += static_cast<int64_t>(i) + 1; });
    ASSERT_EQ(total.load(),
              static_cast<int64_t>(n) * static_cast<int64_t>(n + 1) / 2);
  }
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, StressUnevenItemCostsStillCoverAllItems) {
  ThreadPool::Configure(4);
  constexpr size_t kN = 300;
  std::vector<double> out(kN, -1.0);
  ThreadPool::Global().ParallelFor(kN, [&](size_t i) {
    // Skewed costs: early indices do ~100x the work of late ones, so
    // the lanes that draw cheap chunks claim most of the loop.
    double acc = 0.0;
    size_t spins = (i < 30) ? 20000 : 200;
    for (size_t s = 0; s < spins; ++s) {
      acc += std::sqrt(static_cast<double>(s + i));
    }
    out[i] = acc;
  });
  for (size_t i = 0; i < kN; ++i) ASSERT_GE(out[i], 0.0) << i;
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, EmptyAndSingleItemLoops) {
  ThreadPool::Configure(3);
  int calls = 0;
  ThreadPool::Global().ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ThreadPool::Global().ParallelFor(1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, PlannedThreadsHonoursConfigure) {
  ThreadPool::Configure(5);
  EXPECT_EQ(ThreadPool::PlannedThreads(), 5);
  EXPECT_EQ(ThreadPool::Global().num_lanes(), 5);
  EXPECT_EQ(ThreadPool::Global().num_worker_threads(), 4);
  ThreadPool::Configure(1);
  EXPECT_EQ(ThreadPool::Global().num_worker_threads(), 0);
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, PoolMetricsAreRecorded) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter* fors = metrics.GetCounter("pool.parallel_fors");
  obs::Counter* tasks = metrics.GetCounter("pool.tasks_executed");
  const int64_t fors_before = fors->value();
  const int64_t tasks_before = tasks->value();
  ThreadPool::Configure(4);
  ThreadPool::Global().ParallelFor(500, [](size_t) {});
  EXPECT_GT(fors->value(), fors_before);
  EXPECT_GT(tasks->value(), tasks_before);
  ThreadPool::Configure(0);
}

/// CPU seconds (user + system) this process has used so far.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Spins for `micros` microseconds of wall time.
void SpinFor(int micros) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(micros);
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Runs `rounds` tiny loops back to back on the global pool, each
/// followed by a serial gap of 0 to 1000 µs (some shorter than the
/// pool's spin, some longer), and checks every index ran exactly once.
void RunTinyLoopsWithGaps(int rounds) {
  const int gaps_us[] = {0, 20, 150, 350, 450, 1000};
  for (int round = 0; round < rounds; ++round) {
    const size_t n = static_cast<size_t>(1 + round % 9);
    std::vector<std::atomic<int>> hits(n);
    ThreadPool::Global().ParallelFor(
        n, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of round " << round;
    }
    SpinFor(gaps_us[round % 6]);
  }
}

TEST(ThreadPoolTest, IdlePoolParksAfterABurst) {
  // Idle lanes spin only for a bounded time before parking: after a
  // burst of loops, a 200 ms idle window costs far less CPU than 200 ms.
  ThreadPool::Configure(2);
  for (int round = 0; round < 300; ++round) {
    std::atomic<int64_t> total{0};
    ThreadPool::Global().ParallelFor(
        64, [&](size_t i) { total += static_cast<int64_t>(i); });
    ASSERT_EQ(total.load(), 64 * 63 / 2);
  }
  const double before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double idle_cpu = ProcessCpuSeconds() - before;
  EXPECT_LT(idle_cpu, 0.04) << "idle pool used " << idle_cpu * 1e3
                            << " ms of CPU in a 200 ms window";
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, BackToBackTinyLoopsWithSerialGapsCoverEveryIndex) {
  // Loops that land while the lanes still spin, and loops that find
  // them parked, each run every index exactly once.
  for (int threads : {2, 4}) {
    ThreadPool::Configure(threads);
    RunTinyLoopsWithGaps(300);
    if (HasFatalFailure()) break;
  }
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, LoopsFromTwoOutsideSubmittersCoverEveryIndex) {
  // Two threads outside the pool submit loops at once; each loop's
  // submitter spins on its own loop and the workers serve both.
  ThreadPool::Configure(2);
  ThreadPool::Global();  // built before the submitters race for it
  std::thread other([] { RunTinyLoopsWithGaps(200); });
  RunTinyLoopsWithGaps(200);
  other.join();
  ThreadPool::Configure(0);
}

TEST(ThreadPoolTest, ASubmitterRunsOnlyItsOwnLoops) {
  // Two threads outside a 2-lane pool each submit 300 loops of 8 items
  // at once. A submitter waits for its loop by running that loop's
  // chunks, never the other caller's, so no item of one submitter's
  // loops runs on the other submitter's thread.
  ThreadPool::Configure(2);
  ThreadPool::Global();  // built before the submitters race for it
  constexpr size_t kLoops = 300;
  constexpr size_t kItems = 8;
  std::vector<std::thread::id> ran_a(kLoops * kItems);
  std::vector<std::thread::id> ran_b(kLoops * kItems);
  const auto submit = [](std::vector<std::thread::id>* ran) {
    for (size_t loop = 0; loop < kLoops; ++loop) {
      ThreadPool::Global().ParallelFor(kItems, [&](size_t i) {
        SpinFor((loop + i) % 3 == 0 ? 200 : 50);
        (*ran)[loop * kItems + i] = std::this_thread::get_id();
      });
    }
  };
  std::thread a(submit, &ran_a);
  std::thread b(submit, &ran_b);
  const std::thread::id id_a = a.get_id();
  const std::thread::id id_b = b.get_id();
  a.join();
  b.join();
  size_t a_on_b = 0;
  size_t b_on_a = 0;
  for (size_t k = 0; k < kLoops * kItems; ++k) {
    a_on_b += ran_a[k] == id_b ? 1 : 0;
    b_on_a += ran_b[k] == id_a ? 1 : 0;
  }
  EXPECT_EQ(a_on_b, 0u) << "of " << kLoops * kItems << " items";
  EXPECT_EQ(b_on_a, 0u) << "of " << kLoops * kItems << " items";
  ThreadPool::Configure(0);
}

}  // namespace
}  // namespace kgpip::util
