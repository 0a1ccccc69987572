#include "embed/sim_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/simd_kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace kgpip::embed {

namespace {

/// Candidate scoring fans out once the scan is big enough to amortize
/// dispatch; below this the inline path wins.
constexpr size_t kParallelScanThreshold = 2048;

/// Candidates scored between cancellation polls. Small enough that a
/// deadline-exceeded request stops within microseconds of cancellation,
/// large enough that the relaxed atomic load is amortized away.
constexpr size_t kCancelPollStride = 512;

Status CancelledStatus() {
  return Status::ResourceExhausted(
      "similarity search cancelled (deadline exceeded)");
}

/// Ranking comparator: similarity descending, insertion index ascending.
/// The index tie-break pins an order std::sort left unspecified, so the
/// top-k selection, the full-sort reference, and any platform agree. It
/// also makes the comparator a total order, so the *set* nth_element
/// partitions off is unique no matter how the implementation permutes —
/// which is what keeps the IVF rerank candidate set deterministic.
struct RankedSim {
  double sim;
  size_t index;
  bool operator<(const RankedSim& other) const {
    if (sim != other.sim) return sim > other.sim;
    return index < other.index;
  }
};

obs::Counter* SearchAllocCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "embed.index.search_allocs");
  return counter;
}

/// Grow-only resize that counts allocation events, the
/// gen.generate_allocs idiom: steady-state queries must drive this
/// counter flat (tests pin a zero delta after warm-up).
template <typename T>
void EnsureSize(std::vector<T>* v, size_t n) {
  if (v->capacity() < n) {
    SearchAllocCounter()->Increment();
    v->reserve(n);
  }
  v->resize(n);
}

/// Per-thread query workspace, reused across searches (the fix for the
/// per-call cell_sims allocation). Thread-local because serve workers
/// search one index concurrently.
struct SearchScratch {
  std::vector<RankedSim> cell_ranked;  // centroid ranking
  std::vector<RankedSim> approx;       // quantized candidate scores
  std::vector<RankedSim> exact;        // exact scoring / rerank
  std::vector<double> weights;         // q[d] * step[d] per probed cell
  std::vector<double> scores;          // SQ8 kernel accumulators
  std::vector<size_t> candidates;      // exact-scan id list
};

SearchScratch& GetScratch() {
  static thread_local SearchScratch scratch;
  return scratch;
}

size_t RoundUp8(size_t n) { return (n + 7) & ~size_t{7}; }

}  // namespace

double BlockedCosine(const double* a, const double* b, size_t dims) {
  double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  double na0 = 0.0, na1 = 0.0, na2 = 0.0, na3 = 0.0;
  double nb0 = 0.0, nb1 = 0.0, nb2 = 0.0, nb3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= dims; i += 4) {
    d0 += a[i] * b[i];
    d1 += a[i + 1] * b[i + 1];
    d2 += a[i + 2] * b[i + 2];
    d3 += a[i + 3] * b[i + 3];
    na0 += a[i] * a[i];
    na1 += a[i + 1] * a[i + 1];
    na2 += a[i + 2] * a[i + 2];
    na3 += a[i + 3] * a[i + 3];
    nb0 += b[i] * b[i];
    nb1 += b[i + 1] * b[i + 1];
    nb2 += b[i + 2] * b[i + 2];
    nb3 += b[i + 3] * b[i + 3];
  }
  for (; i < dims; ++i) {
    d0 += a[i] * b[i];
    na0 += a[i] * a[i];
    nb0 += b[i] * b[i];
  }
  const double dot = (d0 + d1) + (d2 + d3);
  const double na = (na0 + na1) + (na2 + na3);
  const double nb = (nb0 + nb1) + (nb2 + nb3);
  return CosineFromParts(dot, na, nb);
}

double BlockedDot(const double* a, const double* b, size_t dims) {
  double d0 = 0.0, d1 = 0.0, d2 = 0.0, d3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= dims; i += 4) {
    d0 += a[i] * b[i];
    d1 += a[i + 1] * b[i + 1];
    d2 += a[i + 2] * b[i + 2];
    d3 += a[i + 3] * b[i + 3];
  }
  for (; i < dims; ++i) d0 += a[i] * b[i];
  return (d0 + d1) + (d2 + d3);
}

double BlockedSquaredNorm(const double* a, size_t dims) {
  double n0 = 0.0, n1 = 0.0, n2 = 0.0, n3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= dims; i += 4) {
    n0 += a[i] * a[i];
    n1 += a[i + 1] * a[i + 1];
    n2 += a[i + 2] * a[i + 2];
    n3 += a[i + 3] * a[i + 3];
  }
  for (; i < dims; ++i) n0 += a[i] * a[i];
  return (n0 + n1) + (n2 + n3);
}

double CosineFromParts(double dot, double na, double nb) {
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

SimIndex::SimIndex() : SimIndex(Options()) {}
SimIndex::SimIndex(Options options) : options_(options) {}

Status SimIndex::Add(const std::string& key, std::vector<double> vector) {
  if (keys_.empty()) {
    dims_ = vector.size();
  } else if (vector.size() != dims_) {
    return Status::InvalidArgument(
        "vector dimensionality mismatch for key '" + key + "'");
  }
  keys_.push_back(key);
  data_.insert(data_.end(), vector.begin(), vector.end());
  const double sq = BlockedSquaredNorm(vector.data(), dims_);
  row_sq_norms_.push_back(sq);
  row_inv_norms_.push_back(sq > 0.0 ? 1.0 / std::sqrt(sq) : 0.0);
  built_ = false;
  return Status::Ok();
}

size_t SimIndex::EffectiveCells(size_t n) const {
  if (n == 0 || options_.num_cells == 0) return 0;
  if (options_.num_cells > 0) {
    return std::min<size_t>(static_cast<size_t>(options_.num_cells), n);
  }
  // Auto: the exact scan is unbeatable at paper scale; past the
  // threshold, ~sqrt(N) cells balance the centroid ranking against the
  // probed-cell scans.
  if (n < kAutoIvfMinRows) return 0;
  return std::min<size_t>(
      static_cast<size_t>(std::lround(std::sqrt(static_cast<double>(n)))), n);
}

Status SimIndex::Build() {
  KGPIP_TRACE_SPAN("embed.index_build");
  static obs::Histogram* build_seconds =
      obs::MetricsRegistry::Global().GetHistogram("embed.index_build_seconds");
  static obs::Gauge* size_gauge =
      obs::MetricsRegistry::Global().GetGauge("embed.index.size");
  static obs::Gauge* cells_gauge =
      obs::MetricsRegistry::Global().GetGauge("embed.index.cells");
  static obs::Gauge* quantized_gauge =
      obs::MetricsRegistry::Global().GetGauge("embed.index.quantized");
  Stopwatch watch;
  const size_t n = keys_.size();
  centroids_.clear();
  centroid_sq_norms_.clear();
  cells_.clear();
  segments_.clear();
  const size_t k = EffectiveCells(n);
  size_gauge->Set(static_cast<double>(n));
  if (k == 0) {
    built_ = true;
    cells_gauge->Set(0.0);
    quantized_gauge->Set(0.0);
    build_seconds->Record(watch.ElapsedSeconds());
    return Status::Ok();
  }
  Rng rng(options_.seed);
  // k-means++ style init: random distinct picks. Past paper scale the
  // refinement runs on a permuted sample — centroids from a few thousand
  // points are statistically the same and the build stays sub-linear in
  // iterations — then one full parallel pass assigns every row. All of
  // it is a pure function of (rows, seed): bit-identical at any thread
  // count.
  std::vector<size_t> perm = rng.Permutation(n);
  const size_t sample_n = std::min(n, std::max<size_t>(k * 64, 4096));
  const int iters = sample_n > 8192 ? 6 : 12;
  centroids_.assign(k * dims_, 0.0);
  for (size_t c = 0; c < k; ++c) {
    std::copy(RowData(perm[c]), RowData(perm[c]) + dims_,
              centroids_.data() + c * dims_);
  }
  std::vector<size_t> assignment(sample_n, 0);
  std::vector<double> centroid_sq(k, 0.0);
  util::ThreadPool& pool = util::ThreadPool::Global();
  for (int iter = 0; iter < iters; ++iter) {
    for (size_t c = 0; c < k; ++c) {
      centroid_sq[c] = BlockedSquaredNorm(centroids_.data() + c * dims_,
                                          dims_);
    }
    // Assignment is embarrassingly parallel: each item writes only its
    // own slot, and the best-centroid argmax is a pure function of the
    // (fixed) centroid buffer — bit-identical at any thread count. The
    // row and centroid norms are precomputed, and the dot/norm split
    // rounds exactly like the fused BlockedCosine.
    pool.ParallelFor(sample_n, [&](size_t s) {
      const double* row = RowData(perm[s]);
      const double row_sq = row_sq_norms_[perm[s]];
      double best = -2.0;
      size_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        const double sim = CosineFromParts(
            BlockedDot(row, centroids_.data() + c * dims_, dims_), row_sq,
            centroid_sq[c]);
        if (sim > best) {
          best = sim;
          best_c = c;
        }
      }
      assignment[s] = best_c;
    });
    // Centroid update stays serial and sample-ordered so the summation
    // order (and therefore the rounded centroids) is fixed.
    std::fill(centroids_.begin(), centroids_.end(), 0.0);
    std::vector<size_t> counts(k, 0);
    for (size_t s = 0; s < sample_n; ++s) {
      ++counts[assignment[s]];
      const double* row = RowData(perm[s]);
      double* centroid = centroids_.data() + assignment[s] * dims_;
      for (size_t d = 0; d < dims_; ++d) centroid[d] += row[d];
    }
    for (size_t c = 0; c < k; ++c) {
      double* centroid = centroids_.data() + c * dims_;
      if (counts[c] == 0) {
        const double* row = RowData(perm[rng.UniformInt(sample_n)]);
        std::copy(row, row + dims_, centroid);
        continue;
      }
      for (size_t d = 0; d < dims_; ++d) {
        centroid[d] /= static_cast<double>(counts[c]);
      }
    }
  }
  centroid_sq_norms_.resize(k);
  for (size_t c = 0; c < k; ++c) {
    centroid_sq_norms_[c] =
        BlockedSquaredNorm(centroids_.data() + c * dims_, dims_);
  }
  // Full assignment over every row against the final centroids.
  std::vector<size_t> full_assignment(n, 0);
  pool.ParallelFor(n, [&](size_t i) {
    const double* row = RowData(i);
    const double row_sq = row_sq_norms_[i];
    double best = -2.0;
    size_t best_c = 0;
    for (size_t c = 0; c < k; ++c) {
      const double sim = CosineFromParts(
          BlockedDot(row, centroids_.data() + c * dims_, dims_), row_sq,
          centroid_sq_norms_[c]);
      if (sim > best) {
        best = sim;
        best_c = c;
      }
    }
    full_assignment[i] = best_c;
  });
  cells_.assign(k, {});
  for (size_t i = 0; i < n; ++i) cells_[full_assignment[i]].push_back(i);
  BuildSegments();
  built_ = true;
  cells_gauge->Set(static_cast<double>(cells_.size()));
  quantized_gauge->Set(1.0);
  build_seconds->Record(watch.ElapsedSeconds());
  return Status::Ok();
}

void SimIndex::BuildSegments() {
  static obs::Gauge* err_gauge = obs::MetricsRegistry::Global().GetGauge(
      "embed.index.sq8_max_abs_error");
  segments_.assign(cells_.size(), CellSegment{});
  std::vector<double> cell_errs(cells_.size(), 0.0);
  // Cells quantize independently; the per-cell codec is a pure function
  // of its rows, so the fan-out is bit-identical at any thread count.
  util::ThreadPool::Global().ParallelFor(cells_.size(), [&](size_t c) {
    const std::vector<size_t>& ids = cells_[c];
    CellSegment& seg = segments_[c];
    seg.mins.assign(dims_, 0.0);
    seg.steps.assign(dims_, 0.0);
    if (ids.empty()) return;
    const double* centroid = centroids_.data() + c * dims_;
    std::vector<double> lo(dims_, 0.0);
    std::vector<double> hi(dims_, 0.0);
    for (size_t r = 0; r < ids.size(); ++r) {
      const double* row = RowData(ids[r]);
      for (size_t d = 0; d < dims_; ++d) {
        const double res = row[d] - centroid[d];
        if (r == 0 || res < lo[d]) lo[d] = res;
        if (r == 0 || res > hi[d]) hi[d] = res;
      }
    }
    for (size_t d = 0; d < dims_; ++d) {
      seg.mins[d] = lo[d];
      const double step = (hi[d] - lo[d]) / 255.0;
      seg.steps[d] = step > 0.0 ? step : 0.0;
    }
    seg.padded = RoundUp8(ids.size());
    seg.codes.assign(dims_ * seg.padded, 0);
    double max_err = 0.0;
    for (size_t r = 0; r < ids.size(); ++r) {
      const double* row = RowData(ids[r]);
      for (size_t d = 0; d < dims_; ++d) {
        const double res = row[d] - centroid[d];
        uint8_t code = 0;
        if (seg.steps[d] > 0.0) {
          long q = std::lround((res - seg.mins[d]) / seg.steps[d]);
          if (q < 0) q = 0;
          if (q > 255) q = 255;
          code = static_cast<uint8_t>(q);
        }
        seg.codes[d * seg.padded + r] = code;
        const double err = std::fabs(
            (seg.mins[d] + seg.steps[d] * static_cast<double>(code)) - res);
        if (err > max_err) max_err = err;
      }
    }
    cell_errs[c] = max_err;
  });
  double max_err = 0.0;
  for (double e : cell_errs) max_err = std::max(max_err, e);
  err_gauge->Set(max_err);
}

Result<std::vector<SearchHit>> SimIndex::TopK(
    const std::vector<double>& query, double query_sq_norm,
    const std::vector<size_t>& candidates, size_t k,
    const util::CancelToken* cancel) const {
  SearchScratch& scratch = GetScratch();
  std::vector<RankedSim>& ranked = scratch.exact;
  EnsureSize(&ranked, candidates.size());
  // Row norms were precomputed at Add time; the dot/norm split rounds
  // exactly like the fused BlockedCosine, so scores (and therefore hit
  // order) are unchanged from the full recompute.
  auto score = [&](size_t c) {
    const size_t id = candidates[c];
    ranked[c] = {CosineFromParts(BlockedDot(query.data(), RowData(id), dims_),
                                 query_sq_norm, row_sq_norms_[id]),
                 id};
  };
  if (candidates.size() >= kParallelScanThreshold) {
    // Pool lanes poll at block boundaries too: a cancelled block skips
    // its scoring work (the partial `ranked` is discarded below).
    util::ThreadPool::Global().ParallelFor(candidates.size(), [&](size_t c) {
      if (c % kCancelPollStride == 0 && util::Cancelled(cancel)) return;
      score(c);
    });
    if (util::Cancelled(cancel)) return CancelledStatus();
  } else {
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (c % kCancelPollStride == 0 && util::Cancelled(cancel)) {
        return CancelledStatus();
      }
      score(c);
    }
  }
  // Bounded selection instead of a full sort: nth_element partitions the
  // top k in O(n), then only those k are ordered.
  if (ranked.size() > k) {
    std::nth_element(ranked.begin(),
                     ranked.begin() + static_cast<ptrdiff_t>(k) - 1,
                     ranked.end());
    ranked.resize(k);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<SearchHit> hits;
  hits.reserve(ranked.size());
  for (const RankedSim& r : ranked) {
    hits.push_back({keys_[r.index], r.sim});
  }
  return hits;
}

Result<std::vector<SearchHit>> SimIndex::Search(
    const std::vector<double>& query, size_t k,
    const util::CancelToken* cancel) const {
  KGPIP_TRACE_SPAN("embed.index_search");
  static obs::Histogram* query_seconds =
      obs::MetricsRegistry::Global().GetHistogram("embed.index_query_seconds");
  static obs::Counter* cells_probed =
      obs::MetricsRegistry::Global().GetCounter("embed.index.cells_probed");
  static obs::Counter* candidates_scanned =
      obs::MetricsRegistry::Global().GetCounter(
          "embed.index.candidates_scanned");
  static obs::Counter* reranked =
      obs::MetricsRegistry::Global().GetCounter("embed.index.reranked");
  Stopwatch watch;
  struct RecordOnExit {
    obs::Histogram* hist;
    Stopwatch* watch;
    ~RecordOnExit() { hist->Record(watch->ElapsedSeconds()); }
  } record{query_seconds, &watch};
  if (keys_.empty()) return Status::FailedPrecondition("empty index");
  if (query.size() != dims_) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  if (util::Cancelled(cancel)) return CancelledStatus();
  const double q_sq = BlockedSquaredNorm(query.data(), dims_);
  SearchScratch& scratch = GetScratch();
  if (!built_ || cells_.empty()) {
    // Exact flat scan (also the fallback while un-built after Add).
    EnsureSize(&scratch.candidates, keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) scratch.candidates[i] = i;
    candidates_scanned->Increment(static_cast<int64_t>(keys_.size()));
    return TopK(query, q_sq, scratch.candidates, k, cancel);
  }
  // Probe the closest coarse cells. Centroid ranking is exact and reuses
  // the per-thread scratch instead of allocating per call.
  const size_t num_centroids = cells_.size();
  EnsureSize(&scratch.cell_ranked, num_centroids);
  for (size_t c = 0; c < num_centroids; ++c) {
    scratch.cell_ranked[c] = {
        CosineFromParts(
            BlockedDot(query.data(), centroids_.data() + c * dims_, dims_),
            q_sq, centroid_sq_norms_[c]),
        c};
  }
  std::sort(scratch.cell_ranked.begin(), scratch.cell_ranked.end());
  const size_t probes = std::min<size_t>(
      static_cast<size_t>(std::max(1, options_.num_probes)), num_centroids);
  cells_probed->Increment(static_cast<int64_t>(probes));
  // Quantized scan: per probed cell, the approximate dot against row r
  // decomposes over the residual codec —
  //   dot(q, row) ~= dot(q, centroid) + dot(q, mins)
  //                  + sum_d (q[d] * step[d]) * code[d][r]
  // — and the code sum is the SQ8 kernel. Scores are a pure function of
  // (query, segment) and the kernel is bitwise ISA-invariant, so the
  // candidate set is identical everywhere; the exact rerank then pins
  // the final order.
  const double q_inv = q_sq > 0.0 ? 1.0 / std::sqrt(q_sq) : 0.0;
  EnsureSize(&scratch.weights, dims_);
  EnsureSize(&scratch.approx, 0);
  const nn::simd::Isa isa = nn::simd::ActiveIsa();
  size_t out_n = 0;
  for (size_t p = 0; p < probes; ++p) {
    if (util::Cancelled(cancel)) return CancelledStatus();
    const size_t cell = scratch.cell_ranked[p].index;
    const std::vector<size_t>& ids = cells_[cell];
    const CellSegment& seg = segments_[cell];
    if (ids.empty()) continue;
    const double* centroid = centroids_.data() + cell * dims_;
    const double base = BlockedDot(query.data(), centroid, dims_) +
                        BlockedDot(query.data(), seg.mins.data(), dims_);
    for (size_t d = 0; d < dims_; ++d) {
      scratch.weights[d] = query[d] * seg.steps[d];
    }
    EnsureSize(&scratch.scores, seg.padded);
    std::fill(scratch.scores.begin(), scratch.scores.begin() + seg.padded,
              0.0);
    nn::simd::Sq8DotAccum(isa, seg.codes.data(), seg.padded,
                          scratch.weights.data(), dims_,
                          scratch.scores.data());
    EnsureSize(&scratch.approx, out_n + ids.size());
    for (size_t r = 0; r < ids.size(); ++r) {
      const size_t id = ids[r];
      scratch.approx[out_n++] = {
          (base + scratch.scores[r]) * row_inv_norms_[id] * q_inv, id};
    }
  }
  candidates_scanned->Increment(static_cast<int64_t>(out_n));
  if (out_n == 0) return std::vector<SearchHit>{};
  const size_t rerank = std::min<size_t>(
      std::max<size_t>(static_cast<size_t>(std::max(1, options_.rerank_k)),
                       k),
      out_n);
  if (out_n > rerank) {
    std::nth_element(scratch.approx.begin(),
                     scratch.approx.begin() + static_cast<ptrdiff_t>(rerank) -
                         1,
                     scratch.approx.begin() + static_cast<ptrdiff_t>(out_n));
  }
  reranked->Increment(static_cast<int64_t>(rerank));
  // Exact rerank over the retained f64 rows; sorting by (exact sim, id)
  // erases whatever order nth_element left the candidates in.
  std::vector<RankedSim>& exact = scratch.exact;
  EnsureSize(&exact, rerank);
  for (size_t i = 0; i < rerank; ++i) {
    if (i % kCancelPollStride == 0 && util::Cancelled(cancel)) {
      return CancelledStatus();
    }
    const size_t id = scratch.approx[i].index;
    exact[i] = {CosineFromParts(BlockedDot(query.data(), RowData(id), dims_),
                                q_sq, row_sq_norms_[id]),
                id};
  }
  std::sort(exact.begin(), exact.end());
  const size_t out_k = std::min(k, rerank);
  std::vector<SearchHit> hits;
  hits.reserve(out_k);
  for (size_t i = 0; i < out_k; ++i) {
    hits.push_back({keys_[exact[i].index], exact[i].sim});
  }
  return hits;
}

}  // namespace kgpip::embed
