// Unit tests of the benchmark's own helpers. Dependency-free (no
// GoogleTest) so the benchmark package builds wherever the library does.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace kgpip::perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol;
}

void TestQuantile() {
  std::vector<double> v = {5, 1, 4, 2, 3};
  Check(Near(Quantile(v, 0.5), 3.0), "median of 1..5 is 3");
  Check(Near(Quantile(v, 0.0), 1.0), "q=0 is the minimum");
  Check(Near(Quantile(v, 1.0), 5.0), "q=1 is the maximum");
  Check(Near(Quantile(v, 0.25), 2.0), "q=0.25 interpolates to 2");
  Check(Near(Quantile({1.0, 2.0}, 0.5), 1.5), "median of two interpolates");
  Check(Quantile({}, 0.5) == 0.0, "empty input gives 0");
}

void TestInterquartileMean() {
  // Eight samples: the middle half is ranks 2..5 of the sorted values.
  Check(Near(InterquartileMean({100, 1, 2, 3, 4, 5, 6, 7}), 4.5),
        "the middle half of 1..7,100 is 3..6");
  Check(Near(InterquartileMean({4, 2}), 3.0), "below four samples: the mean");
  Check(Near(InterquartileMean({9}), 9.0), "one sample is its own IQM");
  Check(InterquartileMean({}) == 0.0, "empty input gives 0");
  // Two modes split near the middle: one sample crossing from the low
  // mode to the high one moves the median by the whole gap, the IQM by
  // a fraction of it.
  std::vector<double> a = {1, 1, 1, 1, 1, 10, 10, 10, 10};
  std::vector<double> b = a;
  b[4] = 10;
  Check(Quantile(b, 0.5) - Quantile(a, 0.5) == 9.0, "the median jumps");
  Check(InterquartileMean(b) - InterquartileMean(a) < 9.0 / 4,
        "the IQM moves by a fraction of the gap");
}

void TestTailPercentile() {
  // At least ten samples must lie beyond the reported percentile.
  Check(TailPercentile(100000) == 90.0, "p90 is the highest rung");
  Check(TailPercentile(100) == 90.0, "100 samples support p90");
  Check(TailPercentile(99) == 75.0, "99 samples stop at p75");
  Check(TailPercentile(40) == 75.0, "40 samples support p75");
  Check(TailPercentile(39) == 50.0, "39 samples stop at the median");
  Check(TailPercentile(20) == 50.0, "20 samples support the median");
  Check(TailPercentile(19) == 0.0, "19 samples support no percentile");
}

obs::TraceEvent Event(const std::string& name, double start_us,
                      double end_us, int tid = 1) {
  obs::TraceEvent event;
  event.name = name;
  event.start_us = start_us;
  event.dur_us = end_us - start_us;
  event.tid = tid;
  return event;
}

void TestSelfTime() {
  // On thread 1: parent [0,100) with children [10,30) and [40,50) and
  // [90,120) (clipped to [90,100) = 10). The grandchild [12,18) only
  // reduces its own parent's self time. A span on another thread is
  // nobody's child, even where it overlaps.
  std::vector<obs::TraceEvent> spans = {
      Event("other.late", 90, 120),      Event("layer.child", 40, 50),
      Event("leaf.grandchild", 12, 18),  Event("layer.parent", 0, 100),
      Event("layer.child", 10, 30),      Event("worker.task", 5, 95, 2),
  };
  std::map<std::string, double> self = SelfTimesMicros(spans);
  Check(Near(self["layer.parent"], 60.0), "parent self = 100 - 20 - 10 - 10");
  Check(Near(self["layer.child"], (20.0 - 6.0) + 10.0),
        "children self = (20 - 6) + 10");
  Check(Near(self["other.late"], 30.0), "a child keeps its whole self time");
  Check(Near(self["leaf.grandchild"], 6.0), "leaf self = its duration");
  Check(Near(self["worker.task"], 90.0), "other threads do not nest");
  std::map<std::string, double> total = TotalTimesMicros(spans);
  Check(Near(total["layer.child"], 30.0), "totals sum durations by name");
  Check(SelfTimesMicros({}).empty(), "no spans, no self times");
}

void TestTracedSpans() {
  // Spans recorded by obs::TraceSpan nest by containment on their thread.
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  { obs::TraceSpan ignored("ignored"); }
  Check(tracer.num_events() == 0, "a disabled tracer records nothing");
  tracer.Enable();
  {
    obs::TraceSpan outer("outer");
    obs::TraceSpan inner("inner");
  }
  tracer.Disable();
  std::vector<obs::TraceEvent> spans = tracer.Snapshot();
  tracer.Clear();
  Check(spans.size() == 2, "two spans recorded");
  if (spans.size() != 2) return;
  std::map<std::string, double> self = SelfTimesMicros(spans);
  std::map<std::string, double> total = TotalTimesMicros(spans);
  Check(Near(self["inner"], total["inner"]), "inner is a leaf");
  Check(Near(self["outer"], total["outer"] - total["inner"]),
        "outer's self time excludes inner");
}

void TestSchedule() {
  std::vector<double> a = ArrivalSchedule(7, 200, 20.0);
  std::vector<double> b = ArrivalSchedule(7, 200, 20.0);
  std::vector<double> c = ArrivalSchedule(8, 200, 20.0);
  Check(a == b, "same seed, same schedule");
  Check(a != c, "another seed, another schedule");
  Check(a.size() == 200, "schedule has the requested count");
  bool sorted = true, in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i] < a[i - 1]) sorted = false;
    if (a[i] < 0.0 || a[i] >= 20.0) in_range = false;
  }
  Check(sorted, "arrivals are sorted");
  Check(in_range, "arrivals lie within the duration");
  // One arrival inside each 0.1 s slot, so gaps stay below two slots,
  // yet the spacing is random (uniform jitter: gap CV near 0.41).
  bool one_per_slot = true;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < 0.1 * i || a[i] >= 0.1 * (i + 1)) one_per_slot = false;
  }
  Check(one_per_slot, "one arrival per slot");
  std::vector<double> gaps;
  for (size_t i = 1; i < a.size(); ++i) gaps.push_back(a[i] - a[i - 1]);
  double mean = 0.0;
  for (double g : gaps) mean += g;
  mean /= static_cast<double>(gaps.size());
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  const double cv = std::sqrt(var / static_cast<double>(gaps.size())) / mean;
  Check(mean > 0.09 && mean < 0.11, "mean gap near 0.1 s");
  Check(cv > 0.25 && cv < 0.6, "gaps are jittered, not periodic");
}

void TestMix() {
  Check(Mix(1, 2) == Mix(1, 2) && Mix(1, 2) != Mix(2, 1), "Mix is ordered");
}

}  // namespace
}  // namespace kgpip::perfbench

int main() {
  using namespace kgpip::perfbench;
  TestQuantile();
  TestInterquartileMean();
  TestTailPercentile();
  TestSelfTime();
  TestTracedSpans();
  TestSchedule();
  TestMix();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_util_test: all checks passed\n");
  return 0;
}
