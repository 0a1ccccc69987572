#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace kgpip {

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double StdDev(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = Mean(v);
  double ss = 0.0;
  for (double x : v) ss += (x - m) * (x - m);
  return std::sqrt(ss / static_cast<double>(v.size() - 1));
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  KGPIP_CHECK(x.size() == y.size());
  size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = Mean(x);
  double my = Mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double dx = x[i] - mx;
    double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> AverageRanks(const std::vector<double>& v) {
  size_t n = v.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return v[a] < v[b]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && v[order[j + 1]] == v[order[i]]) ++j;
    double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) /
                          2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y) {
  KGPIP_CHECK(x.size() == y.size());
  if (x.size() < 2) return 0.0;
  return PearsonCorrelation(AverageRanks(x), AverageRanks(y));
}

namespace {

/// Continued-fraction evaluation for the incomplete beta (Lentz's method).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;
  double qab = a + b;
  double qap = a + 1.0;
  double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double RegularizedIncompleteBeta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  double ln_beta = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  double front = std::exp(ln_beta + a * std::log(x) + b * std::log(1.0 - x));
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - front * BetaContinuedFraction(b, a, 1.0 - x) / b;
}

double StudentTTwoTailedPValue(double t, double df) {
  if (df <= 0.0) return 1.0;
  if (!std::isfinite(t)) return 0.0;
  double x = df / (df + t * t);
  return RegularizedIncompleteBeta(df / 2.0, 0.5, x);
}

TTestResult PairedTTest(const std::vector<double>& x,
                        const std::vector<double>& y) {
  KGPIP_CHECK(x.size() == y.size());
  TTestResult out;
  size_t n = x.size();
  if (n < 2) return out;
  std::vector<double> diff(n);
  for (size_t i = 0; i < n; ++i) diff[i] = x[i] - y[i];
  double md = Mean(diff);
  double sd = StdDev(diff);
  out.degrees_of_freedom = static_cast<double>(n - 1);
  if (sd <= 0.0) {
    out.t_statistic = md == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
    out.p_value = md == 0.0 ? 1.0 : 0.0;
    return out;
  }
  out.t_statistic = md / (sd / std::sqrt(static_cast<double>(n)));
  out.p_value = StudentTTwoTailedPValue(out.t_statistic,
                                        out.degrees_of_freedom);
  return out;
}

double MeanReciprocalRank(const std::vector<int>& ranks) {
  if (ranks.empty()) return 0.0;
  double sum = 0.0;
  for (int r : ranks) {
    if (r > 0) sum += 1.0 / static_cast<double>(r);
  }
  return sum / static_cast<double>(ranks.size());
}

double SilhouetteScore(const std::vector<std::vector<double>>& points,
                       const std::vector<int>& labels) {
  KGPIP_CHECK(points.size() == labels.size());
  size_t n = points.size();
  if (n < 2) return 0.0;
  auto dist = [&](size_t i, size_t j) {
    double s = 0.0;
    for (size_t d = 0; d < points[i].size(); ++d) {
      double diff = points[i][d] - points[j][d];
      s += diff * diff;
    }
    return std::sqrt(s);
  };
  double total = 0.0;
  size_t counted = 0;
  for (size_t i = 0; i < n; ++i) {
    double intra_sum = 0.0;
    size_t intra_count = 0;
    // mean distance to each other cluster, keyed by label.
    std::vector<int> other_labels;
    std::vector<double> other_sums;
    std::vector<size_t> other_counts;
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      double d = dist(i, j);
      if (labels[j] == labels[i]) {
        intra_sum += d;
        ++intra_count;
      } else {
        size_t k = 0;
        for (; k < other_labels.size(); ++k) {
          if (other_labels[k] == labels[j]) break;
        }
        if (k == other_labels.size()) {
          other_labels.push_back(labels[j]);
          other_sums.push_back(0.0);
          other_counts.push_back(0);
        }
        other_sums[k] += d;
        ++other_counts[k];
      }
    }
    if (intra_count == 0 || other_labels.empty()) continue;
    double a = intra_sum / static_cast<double>(intra_count);
    double b = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < other_labels.size(); ++k) {
      b = std::min(b, other_sums[k] / static_cast<double>(other_counts[k]));
    }
    double denom = std::max(a, b);
    if (denom > 0.0) {
      total += (b - a) / denom;
      ++counted;
    }
  }
  return counted > 0 ? total / static_cast<double>(counted) : 0.0;
}

}  // namespace kgpip
