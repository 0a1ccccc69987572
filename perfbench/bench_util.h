#ifndef KGPIP_PERFBENCH_BENCH_UTIL_H_
#define KGPIP_PERFBENCH_BENCH_UTIL_H_

// Helpers of the end-to-end benchmark that carry no KGpip logic of their
// own: percentiles, self-time attribution over trace spans, and the
// open-loop arrival schedule. Kept apart from the workloads so
// perfbench_util_test can pin them down.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace kgpip::perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of `values`, the rule of
/// numpy's default and Python's statistics.quantiles(method="inclusive").
/// 0 for empty input.
double Quantile(std::vector<double> values, double q);

/// Interquartile mean: the mean of the middle half of `values` (sorted
/// ranks floor(n/4) .. n - floor(n/4)); 0 for empty input. Like the
/// median it ignores a slow quarter, but it moves smoothly when the
/// samples have two modes, where the median jumps from one to the other.
double InterquartileMean(std::vector<double> values);

/// The percentile rule for tail latencies: the highest of 90, 75 and 50
/// that leaves at least ten samples above it in `n` samples; 0 when even
/// the median does not (then report the maximum). p99 is left out on
/// purpose: for calls of a millisecond it measured the host's scheduling
/// jitter, which varied fourfold between runs.
double TailPercentile(size_t n);

/// 64-bit mix of two values (SplitMix64 finalizer); derives per-item
/// seeds from the workload seed.
uint64_t Mix(uint64_t a, uint64_t b);

/// Self time per span name, in microseconds. A span's parent is the
/// innermost span on the same thread (`tid`) that is open when it
/// starts, which is how Chrome and Perfetto stack "X" events. Self time
/// is a span's duration minus the part of it its direct children cover
/// (a child sticking out of its parent only counts inside it), summed
/// over spans of the same name.
std::map<std::string, double> SelfTimesMicros(
    const std::vector<obs::TraceEvent>& spans);

/// Total duration per span name, in microseconds.
std::map<std::string, double> TotalTimesMicros(
    const std::vector<obs::TraceEvent>& spans);

/// Open-loop arrival schedule: `count` arrival offsets (seconds, sorted)
/// at rate `count / duration_seconds`, one drawn uniformly inside each of
/// `count` equal slots of [0, duration_seconds) — a seeded, jittered
/// constant rate. Every seed offers the same load; only the spacing
/// varies, and never by more than two slots. A Poisson schedule of the
/// same rate queues whole bursts in some seeds and none in others: at
/// 100 requests it moved the serve latency IQM by 0.56 of its median
/// between seeds. Same seed, same schedule.
std::vector<double> ArrivalSchedule(uint64_t seed, size_t count,
                                    double duration_seconds);

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double PeakRssMib();

/// Milliseconds a fixed CPU kernel takes on this host right now (sorting
/// and a small dense matrix product, none of it library code): the
/// median of five passes. Stamped on every result at the start and end
/// of the run, so runs on a host whose speed drifts can be told apart.
double HostProbeMs();

}  // namespace kgpip::perfbench

#endif  // KGPIP_PERFBENCH_BENCH_UTIL_H_
