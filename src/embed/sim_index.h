#ifndef KGPIP_EMBED_SIM_INDEX_H_
#define KGPIP_EMBED_SIM_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/cancel.h"
#include "util/status.h"

namespace kgpip::embed {

/// One nearest-neighbour hit.
struct SearchHit {
  std::string key;
  double similarity = 0.0;  // cosine
};

/// Cosine similarity over contiguous rows with a 4-way unrolled
/// dot-product kernel. The accumulation pattern is fixed (four partial
/// sums folded pairwise), so every caller — index build, search, and the
/// regression tests' reference path — rounds identically.
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
/// FAISS (Johnson et al. 2021). Supports exact flat search and a
/// two-level IVF mode: a deterministic k-means coarse quantizer over
/// cell-contiguous segments of SQ8-quantized residuals (per-dimension
/// min/max affine codec, dim-major uint8 code panels scanned by the
/// nn::simd::Sq8DotAccum kernel), with exact re-ranking of the top
/// `rerank_k` approximate candidates over the retained f64 rows so the
/// final hit order is identical to what a flat scan of those candidates
/// would produce — deterministic at any thread count and ISA level.
///
/// Storage is one contiguous row-major buffer (not vector-of-vectors),
/// so scans stream linearly through memory and the blocked dot kernel
/// sees dense rows. The k-means build fans out over the global
/// util::ThreadPool; results are index-ordered and bit-identical at any
/// thread count.
///
/// The index is not saved: a loaded model rebuilds it from its saved
/// embeddings, added in the same order, which gives the same index.
class SimIndex {
 public:
  struct Options {
    /// 0 = exact flat search. >0 = IVF with this many coarse cells.
    /// -1 = auto: flat below kAutoIvfMinRows rows, else ~sqrt(N) cells.
    int num_cells = 0;
    /// Cells probed per query in IVF mode.
    int num_probes = 2;
    /// IVF candidates exact-reranked per query (floor; k wins if larger).
    int rerank_k = 64;
    uint64_t seed = 17;
  };

  /// Auto mode (num_cells = -1) stays exact below this many rows, so
  /// paper-scale corpora keep the flat scan bit for bit.
  static constexpr size_t kAutoIvfMinRows = 4096;

  SimIndex();
  explicit SimIndex(Options options);

  /// Adds a keyed vector. All vectors must share one dimensionality.
  /// The row's squared norm (exact-scan operand) and inverse norm
  /// (quantized-scan operand) are computed once here.
  Status Add(const std::string& key, std::vector<double> vector);

  /// Builds the coarse quantizer and quantized segments (IVF mode only;
  /// no-op for flat).
  Status Build();

  /// Top-k most cosine-similar entries to `query`, most similar first.
  /// Ties order by insertion index (deterministic across platforms and
  /// thread counts). `cancel`, when non-null, is polled between scan
  /// blocks: a cancelled search stops burning CPU mid-scan and returns
  /// kResourceExhausted instead of finishing a doomed pass — the serve
  /// watchdog's lever against deadline-exceeded requests.
  Result<std::vector<SearchHit>> Search(
      const std::vector<double>& query, size_t k,
      const util::CancelToken* cancel = nullptr) const;

  size_t size() const { return keys_.size(); }
  size_t dims() const { return dims_; }
  /// Coarse cells actually built (0 until Build in IVF mode; 0 for flat).
  size_t num_cells_built() const { return cells_.size(); }
  /// True once IVF-built: every IVF index scans SQ8 cell segments.
  bool quantized() const { return !segments_.empty(); }
  /// Row i of the contiguous buffer (valid while the index is unchanged).
  const double* RowData(size_t i) const { return data_.data() + i * dims_; }

 private:
  /// One coarse cell's SQ8 payload: per-dim residual min + step, and a
  /// dim-major uint8 panel (codes[d * padded + r] is row r's code for
  /// dimension d). `padded` rounds the cell's row count up to a multiple
  /// of 8 so both AVX2 and AVX-512 tile the row axis without masks; pad
  /// rows hold zero codes and are skipped when collecting candidates.
  struct CellSegment {
    std::vector<double> mins;    // dims
    std::vector<double> steps;   // dims, (max-min)/255; 0 = constant dim
    size_t padded = 0;
    std::vector<uint8_t> codes;  // dims x padded
  };

  /// Cells for `n` rows under the auto policy / explicit setting.
  size_t EffectiveCells(size_t n) const;

  /// Exactly scores `candidates` against `query` and keeps the top k
  /// (dot / precomputed norms; bit-identical to BlockedCosine). Polls
  /// `cancel` every scoring block; a cancelled scan returns
  /// kResourceExhausted without finishing.
  Result<std::vector<SearchHit>> TopK(const std::vector<double>& query,
                                      double query_sq_norm,
                                      const std::vector<size_t>& candidates,
                                      size_t k,
                                      const util::CancelToken* cancel) const;

  /// Quantizes cell residuals into segments_ and publishes the
  /// max-abs-decode-error gauge.
  void BuildSegments();

  Options options_;
  std::vector<std::string> keys_;
  size_t dims_ = 0;
  std::vector<double> data_;  // keys_.size() x dims_, row-major
  std::vector<double> row_sq_norms_;   // per row, exact-scan operand
  std::vector<double> row_inv_norms_;  // per row, quantized-scan operand
  // IVF state.
  bool built_ = false;
  std::vector<double> centroids_;  // num_cells x dims_, row-major
  std::vector<double> centroid_sq_norms_;
  std::vector<std::vector<size_t>> cells_;
  std::vector<CellSegment> segments_;  // parallel to cells_
};

}  // namespace kgpip::embed

#endif  // KGPIP_EMBED_SIM_INDEX_H_
