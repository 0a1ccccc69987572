#ifndef KGPIP_EMBED_SIM_INDEX_H_
#define KGPIP_EMBED_SIM_INDEX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "util/status.h"

namespace kgpip::embed {

/// One nearest-neighbour hit.
struct SearchHit {
  std::string key;
  double similarity = 0.0;  // cosine
};

/// Cosine similarity over contiguous rows with a 4-way unrolled
/// dot-product kernel. The accumulation pattern is fixed (four partial
/// sums folded pairwise), so search (through the split below) and the
/// regression tests' reference path round identically.
double BlockedCosine(const double* a, const double* b, size_t dims);

/// The dot-product third of BlockedCosine on its own: the same four
/// partial sums over a[i]*b[i], folded pairwise. Splitting the fused
/// loop into separate dot/norm passes leaves each accumulator chain
/// untouched, so BlockedCosine(a, b, d) ==
/// CosineFromParts(BlockedDot(a, b, d), BlockedSquaredNorm(a, d),
/// BlockedSquaredNorm(b, d)) bit for bit — which is what lets the index
/// precompute row norms once at Add time instead of re-deriving ||b||
/// on every query-row pair.
double BlockedDot(const double* a, const double* b, size_t dims);

/// Sum of squares with BlockedCosine's norm accumulator chain.
double BlockedSquaredNorm(const double* a, size_t dims);

/// BlockedCosine's final combine: 0.0 on a non-positive norm, else
/// dot / sqrt(na * nb).
double CosineFromParts(double dot, double na, double nb);

/// In-process dense-vector similarity index — the library's stand-in for
/// FAISS (Johnson et al. 2021): an exact flat cosine scan. Every query
/// scores every row, so results are exact at any size and identical at
/// any thread count.
///
/// Storage is one contiguous row-major buffer (not vector-of-vectors),
/// so scans stream linearly through memory and the blocked dot kernel
/// sees dense rows.
///
/// The index is not saved: a loaded model rebuilds it from its saved
/// embeddings, added in the same order, which gives the same index.
class SimIndex {
 public:
  /// Adds a keyed vector. All vectors must share one dimensionality.
  /// The row's squared norm is computed once here; a vector whose squared
  /// norm is not finite (an inf or NaN component) is InvalidArgument,
  /// since it would score NaN against every query.
  Status Add(const std::string& key, std::vector<double> vector);

  /// Top-k most cosine-similar entries to `query`, most similar first.
  /// Ties order by insertion index (deterministic across platforms and
  /// thread counts); k = 0 returns no hits. A query whose squared norm is
  /// not finite is InvalidArgument.
  Result<std::vector<SearchHit>> Search(const std::vector<double>& query,
                                        size_t k) const;

  size_t size() const { return keys_.size(); }
  size_t dims() const { return dims_; }
  /// Row i of the contiguous buffer (valid while the index is unchanged).
  const double* RowData(size_t i) const { return data_.data() + i * dims_; }

 private:
  std::vector<std::string> keys_;
  size_t dims_ = 0;
  std::vector<double> data_;          // keys_.size() x dims_, row-major
  std::vector<double> row_sq_norms_;  // per row
};

}  // namespace kgpip::embed

#endif  // KGPIP_EMBED_SIM_INDEX_H_
