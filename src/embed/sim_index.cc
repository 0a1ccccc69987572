#include "embed/sim_index.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace kgpip::embed {

namespace {

/// Candidate scoring fans out once the scan is big enough to amortize
/// dispatch; below this the inline path wins.
constexpr size_t kParallelScanThreshold = 2048;

/// Ranking comparator: similarity descending, insertion index ascending.
/// The index tie-break pins an order std::sort left unspecified, so the
/// top-k selection, the full-sort reference, and any platform agree. It
/// also makes the comparator a total order, so the *set* nth_element
/// partitions off is unique no matter how the implementation permutes.
struct RankedSim {
  double sim;
  size_t index;
  bool operator<(const RankedSim& other) const {
    if (sim != other.sim) return sim > other.sim;
    return index < other.index;
  }
};

/// The per-thread ranking workspace resized to `n` entries, reused
/// across searches (thread-local because serve workers search one index
/// concurrently). Each growth ticks embed.index.search_allocs, the
/// gen.generate_allocs idiom: steady-state queries must keep this
/// counter flat (tests pin a zero delta after warm-up).
std::vector<RankedSim>& RankingScratch(size_t n) {
  static obs::Counter* allocs = obs::MetricsRegistry::Global().GetCounter(
      "embed.index.search_allocs");
  static thread_local std::vector<RankedSim> ranked;
  if (ranked.capacity() < n) {
    allocs->Increment();
    ranked.reserve(n);
  }
  ranked.resize(n);
  return ranked;
}

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

Status SimIndex::Add(const std::string& key, std::vector<double> vector) {
  if (!keys_.empty() && vector.size() != dims_) {
    return Status::InvalidArgument(
        "vector dimensionality mismatch for key '" + key + "'");
  }
  const double sq_norm = BlockedSquaredNorm(vector.data(), vector.size());
  if (!std::isfinite(sq_norm)) {
    return Status::InvalidArgument("non-finite vector for key '" + key + "'");
  }
  dims_ = vector.size();
  keys_.push_back(key);
  data_.insert(data_.end(), vector.begin(), vector.end());
  row_sq_norms_.push_back(sq_norm);
  return Status::Ok();
}

Result<std::vector<SearchHit>> SimIndex::Search(
    const std::vector<double>& query, size_t k) const {
  KGPIP_TRACE_SPAN("embed.index_search");
  static obs::Histogram* query_seconds =
      obs::MetricsRegistry::Global().GetHistogram("embed.index_query_seconds");
  static obs::Counter* candidates_scanned =
      obs::MetricsRegistry::Global().GetCounter(
          "embed.index.candidates_scanned");
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
  const double q_sq = BlockedSquaredNorm(query.data(), dims_);
  if (!std::isfinite(q_sq)) {
    return Status::InvalidArgument("non-finite query vector");
  }
  if (k == 0) return std::vector<SearchHit>{};
  const size_t n = keys_.size();
  candidates_scanned->Increment(static_cast<int64_t>(n));
  std::vector<RankedSim>& ranked = RankingScratch(n);
  // Row norms were precomputed at Add time; the dot/norm split rounds
  // exactly like the fused BlockedCosine.
  auto score = [&](size_t i) {
    ranked[i] = {CosineFromParts(BlockedDot(query.data(), RowData(i), dims_),
                                 q_sq, row_sq_norms_[i]),
                 i};
  };
  if (n >= kParallelScanThreshold) {
    util::ThreadPool::Global().ParallelFor(n, score);
  } else {
    for (size_t i = 0; i < n; ++i) score(i);
  }
  // Bounded selection instead of a full sort: nth_element partitions the
  // top k in O(n), then only those k are ordered.
  if (n > k) {
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

}  // namespace kgpip::embed
