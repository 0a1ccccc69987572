#ifndef KGPIP_UTIL_RNG_H_
#define KGPIP_UTIL_RNG_H_

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

namespace kgpip {

/// Deterministic, seedable pseudo-random generator (xoshiro256**).
///
/// The whole library routes randomness through this class so that every
/// experiment is reproducible from a single seed, independent of the
/// platform's std::mt19937 implementation details.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0xC0FFEE123456789ULL) { Seed(seed); }

  /// Re-seeds the generator via SplitMix64 expansion of `seed`.
  void Seed(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : state_) {
      // SplitMix64 step.
      x += 0x9E3779B97F4A7C15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  /// Uniform integer in [0, n). Precondition: n > 0.
  uint64_t UniformInt(uint64_t n) { return Next() % n; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(UniformInt(
                    static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box-Muller.
  double Normal() {
    if (have_cached_normal_) {
      have_cached_normal_ = false;
      return cached_normal_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300) u1 = Uniform();
    const double u2 = Uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    have_cached_normal_ = true;
    return r * std::cos(theta);
  }

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return mean + stddev * Normal();
  }

  /// True with probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Samples an index from an unnormalized non-negative weight span.
  /// Falls back to uniform if the weights sum to zero. Consumes exactly
  /// one Uniform() draw (or one Next() on the fallback path).
  size_t Categorical(const double* weights, size_t n) {
    double total = std::accumulate(weights, weights + n, 0.0);
    if (total <= 0.0) return UniformInt(n);
    double u = Uniform() * total;
    for (size_t i = 0; i < n; ++i) {
      u -= weights[i];
      if (u <= 0.0) return i;
    }
    return n - 1;
  }

  /// Vector convenience overload of the span version above.
  size_t Categorical(const std::vector<double>& weights) {
    return Categorical(weights.data(), weights.size());
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = UniformInt(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Returns a random permutation of [0, n).
  std::vector<size_t> Permutation(size_t n) {
    std::vector<size_t> p(n);
    std::iota(p.begin(), p.end(), 0);
    Shuffle(p);
    return p;
  }

  /// Forks a statistically independent child generator; used to give each
  /// subsystem its own stream without cross-coupling consumption order.
  Rng Fork() { return Rng(Next() ^ 0xA5A5A5A5DEADBEEFULL); }

  /// Equal generators draw the same sequence from here on.
  bool operator==(const Rng& other) const = default;

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4] = {};
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace kgpip

#endif  // KGPIP_UTIL_RNG_H_
