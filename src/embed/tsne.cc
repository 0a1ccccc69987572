#include "embed/tsne.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace kgpip::embed {

namespace {

/// Early exaggeration: the input affinities are scaled by this factor
/// for the first kExaggerationIters iterations, so clusters form before
/// the map settles.
constexpr double kEarlyExaggeration = 4.0;
constexpr int kExaggerationIters = 80;

/// Binary-searches the Gaussian bandwidth for one point so that the
/// conditional distribution's perplexity matches the target.
void ComputeRow(const std::vector<double>& sq_dists, size_t self,
                double perplexity, std::vector<double>* probs) {
  const double target_entropy = std::log(perplexity);
  double beta = 1.0, beta_lo = 0.0, beta_hi = 1e12;
  const size_t n = sq_dists.size();
  for (int iter = 0; iter < 60; ++iter) {
    double sum = 0.0;
    for (size_t j = 0; j < n; ++j) {
      (*probs)[j] = j == self ? 0.0 : std::exp(-beta * sq_dists[j]);
      sum += (*probs)[j];
    }
    if (sum <= 0.0) sum = 1e-12;
    double entropy = 0.0;
    for (size_t j = 0; j < n; ++j) {
      (*probs)[j] /= sum;
      if ((*probs)[j] > 1e-12) {
        entropy -= (*probs)[j] * std::log((*probs)[j]);
      }
    }
    double diff = entropy - target_entropy;
    if (std::fabs(diff) < 1e-5) break;
    if (diff > 0.0) {
      beta_lo = beta;
      beta = beta_hi > 1e11 ? beta * 2.0 : 0.5 * (beta + beta_hi);
    } else {
      beta_hi = beta;
      beta = 0.5 * (beta + beta_lo);
    }
  }
}

}  // namespace

std::vector<std::pair<double, double>> Tsne2D(
    const std::vector<std::vector<double>>& points,
    const TsneOptions& options) {
  const size_t n = points.size();
  std::vector<std::pair<double, double>> out(n, {0.0, 0.0});
  if (n < 3) return out;

  // Pairwise squared distances.
  std::vector<std::vector<double>> sq(n, std::vector<double>(n, 0.0));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double s = 0.0;
      for (size_t d = 0; d < points[i].size(); ++d) {
        double diff = points[i][d] - points[j][d];
        s += diff * diff;
      }
      sq[i][j] = sq[j][i] = s;
    }
  }

  // Symmetrized input affinities P.
  double perplexity =
      std::min(options.perplexity, static_cast<double>(n - 1) / 3.0);
  std::vector<std::vector<double>> p(n, std::vector<double>(n, 0.0));
  std::vector<double> row(n);
  for (size_t i = 0; i < n; ++i) {
    ComputeRow(sq[i], i, perplexity, &row);
    for (size_t j = 0; j < n; ++j) p[i][j] = row[j];
  }
  double p_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      p[i][j] = (p[i][j] + p[j][i]);
      p_sum += p[i][j];
    }
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      p[i][j] = std::max(p[i][j] / p_sum, 1e-12);
    }
  }

  // Gradient descent with momentum on the 2-D map.
  Rng rng(options.seed);
  std::vector<double> y(2 * n), dy(2 * n, 0.0), vy(2 * n, 0.0);
  for (double& v : y) v = rng.Normal() * 1e-2;

  std::vector<std::vector<double>> q(n, std::vector<double>(n, 0.0));
  for (int iter = 0; iter < options.iterations; ++iter) {
    const double exaggeration =
        iter < kExaggerationIters ? kEarlyExaggeration : 1.0;
    // Student-t affinities Q.
    double q_sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        double dx = y[2 * i] - y[2 * j];
        double dyv = y[2 * i + 1] - y[2 * j + 1];
        double w = 1.0 / (1.0 + dx * dx + dyv * dyv);
        q[i][j] = q[j][i] = w;
        q_sum += 2.0 * w;
      }
    }
    // Gradient.
    std::fill(dy.begin(), dy.end(), 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        double w = q[i][j];
        double qij = std::max(w / q_sum, 1e-12);
        double mult = (exaggeration * p[i][j] - qij) * w;
        dy[2 * i] += 4.0 * mult * (y[2 * i] - y[2 * j]);
        dy[2 * i + 1] += 4.0 * mult * (y[2 * i + 1] - y[2 * j + 1]);
      }
    }
    const double momentum = iter < 100 ? 0.5 : 0.8;
    for (size_t k = 0; k < 2 * n; ++k) {
      vy[k] = momentum * vy[k] - options.learning_rate * dy[k];
      y[k] += vy[k];
    }
    // Re-center.
    double mx = 0.0, my = 0.0;
    for (size_t i = 0; i < n; ++i) {
      mx += y[2 * i];
      my += y[2 * i + 1];
    }
    mx /= static_cast<double>(n);
    my /= static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
      y[2 * i] -= mx;
      y[2 * i + 1] -= my;
    }
  }
  for (size_t i = 0; i < n; ++i) out[i] = {y[2 * i], y[2 * i + 1]};
  return out;
}

}  // namespace kgpip::embed
