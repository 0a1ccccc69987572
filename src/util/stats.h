#ifndef KGPIP_UTIL_STATS_H_
#define KGPIP_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace kgpip {

/// Arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& v);

/// Sample standard deviation (n-1 denominator); 0 if fewer than 2 items.
double StdDev(const std::vector<double>& v);

/// Pearson product-moment correlation; 0 if either side is constant.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

/// Spearman rank correlation (average ranks for ties).
double SpearmanCorrelation(const std::vector<double>& x,
                           const std::vector<double>& y);

/// Result of a two-tailed Student's t-test.
struct TTestResult {
  double t_statistic = 0.0;
  double degrees_of_freedom = 0.0;
  double p_value = 1.0;
};

/// Paired two-tailed t-test (the paper compares per-dataset scores of two
/// systems over the same datasets). Requires x.size() == y.size() >= 2.
TTestResult PairedTTest(const std::vector<double>& x,
                        const std::vector<double>& y);

/// Mean Reciprocal Rank for 1-based ranks; rank <= 0 counts as a miss (0).
double MeanReciprocalRank(const std::vector<int>& ranks);

/// Regularized incomplete beta function I_x(a, b), used for the Student's t
/// CDF. Exposed for testing.
double RegularizedIncompleteBeta(double a, double b, double x);

/// Two-tailed p-value for a t statistic with `df` degrees of freedom.
double StudentTTwoTailedPValue(double t, double df);

/// Silhouette score for a labeled embedding set under Euclidean distance;
/// used to quantify Figure 10's "datasets from the same domain cluster".
double SilhouetteScore(const std::vector<std::vector<double>>& points,
                       const std::vector<int>& labels);

/// Ranks with average tie handling (1-based ranks as doubles).
std::vector<double> AverageRanks(const std::vector<double>& v);

}  // namespace kgpip

#endif  // KGPIP_UTIL_STATS_H_
