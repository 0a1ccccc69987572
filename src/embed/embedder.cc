#include "embed/embedder.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string_view>
#include <utility>

#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip::embed {

namespace {

constexpr size_t kShapeBlock = 0;    // 12 dims
constexpr size_t kTargetBlock = 12;  // 8 dims
constexpr size_t kNumericBlock = 20; // 8 dims
constexpr size_t kNameBlock = 28;    // 16 dims
constexpr size_t kContentBlock = 44; // 16 dims
constexpr size_t kNameBlockDims = 16;
constexpr size_t kContentBlockDims = 16;
/// The pairwise probe correlates the first this-many numeric columns.
constexpr size_t kProbeColumns = 8;

double SignedLog(double x) {
  return x >= 0.0 ? std::log1p(x) : -std::log1p(-x);
}

/// Whether the statistics read row `r` of a numeric column. strtod reads
/// "1e999" or "inf" as an infinity, which the column does not mark
/// missing; a non-finite cell counts as missing here, so one bad cell
/// cannot turn the embedding NaN.
bool Present(const Column& col, size_t r) {
  return !col.IsMissing(r) && std::isfinite(col.NumericAt(r));
}

/// The supervised target, one double per row (a categorical label's
/// first-seen index, a numeric value, 0.0 where missing), and its rows
/// sorted by that value, once per table.
struct EncodedTarget {
  std::vector<double> values;
  std::vector<std::pair<double, size_t>> sorted;  // (value, row), ascending
};

/// Every statistic Embed reads from one numeric column.
struct ColumnStats {
  std::vector<size_t> rows;    // present rows, ascending
  std::vector<double> values;  // their values, in row order
  double mean = 0.0;
  double sxx = 0.0;  // sum of (x - mean)^2
  double stddev = 0.0;
  double skew = 0.0;
  double distinct_frac = 0.0;
  double abs_corr = 0.0;  // |Pearson correlation| with the target
  double mi = 0.0;        // binned mutual information with the target
};

EncodedTarget EncodeTarget(const Column& t, double* entropy,
                           double* num_classes) {
  const size_t rows = t.size();
  EncodedTarget out;
  out.values.assign(rows, 0.0);
  out.sorted.resize(rows);
  if (t.type() == ColumnType::kNumeric) {
    for (size_t r = 0; r < rows; ++r) {
      if (Present(t, r)) out.values[r] = t.NumericAt(r);
      out.sorted[r] = {out.values[r], r};
    }
    std::sort(out.sorted.begin(), out.sorted.end());
    return out;
  }
  // Labels in sorted order (the entropy sums in it), each mapped to its
  // first-seen index, which is its encoding and its slot in `counts`.
  std::map<std::string_view, int> levels;
  std::vector<size_t> counts;
  for (size_t r = 0; r < rows; ++r) {
    if (t.IsMissing(r)) continue;
    auto [it, inserted] =
        levels.try_emplace(t.StringAt(r), static_cast<int>(levels.size()));
    if (inserted) counts.push_back(0);
    out.values[r] = it->second;
    ++counts[it->second];
  }
  *num_classes = static_cast<double>(levels.size());
  for (const auto& [label, level] : levels) {
    double p = static_cast<double>(counts[level]) / static_cast<double>(rows);
    if (p > 0.0) *entropy -= p * std::log(p);
  }
  if (*num_classes > 1.0) *entropy /= std::log(*num_classes);
  // The values are the labels 0..k-1 (0 where missing; value 0 exists
  // even when every row is missing), so one counting pass puts the rows
  // in the same (value, row) order as a sort.
  std::vector<size_t> next(std::max<size_t>(levels.size(), 1) + 1, 0);
  for (double y : out.values) ++next[static_cast<size_t>(y) + 1];
  for (size_t l = 1; l < next.size(); ++l) next[l] += next[l - 1];
  for (size_t r = 0; r < rows; ++r) {
    const double y = out.values[r];
    out.sorted[next[static_cast<size_t>(y)]++] = {y, r};
  }
  return out;
}

/// Pearson correlation of a column's present values with `y(i)`, the
/// other side at the column's i-th present row. Zero below 3 rows or when
/// either side has no spread.
template <typename Y>
double Correlation(const ColumnStats& x, Y y) {
  const size_t n = x.values.size();
  if (n < 3) return 0.0;
  double my = 0.0;
  for (size_t i = 0; i < n; ++i) my += y(i);
  my /= static_cast<double>(n);
  double sxy = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double dx = x.values[i] - x.mean;
    double dy = y(i) - my;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (x.sxx <= 0.0 || syy <= 0.0) return 0.0;
  // Sums that overflowed (values near DBL_MAX), or spreads whose product
  // underflows to zero (values near 1e-160), leave the correlation
  // unavailable, as when a side has no spread.
  const double r = sxy / std::sqrt(x.sxx * syy);
  return std::isfinite(r) ? r : 0.0;
}

constexpr int kBins = 4;

/// The highest bin c with v > cuts[c - 1], else bin 0. The cuts are
/// ascending, so that is the number of cuts below v.
int BinOf(double v, const double (&cuts)[kBins - 1]) {
  int b = 0;
  for (int c = 1; c < kBins; ++c) b += v > cuts[c - 1];
  return b;
}

/// Normalized mutual information between a quantile-binned feature and a
/// binned target (4x4 grid). Captures non-linear relationships the
/// correlation misses — this is what separates interaction-style datasets
/// from pure-noise ones. `sorted` holds the column's present values in
/// ascending order.
double BinnedMutualInformation(const Column& col, const ColumnStats& x,
                               const std::vector<double>& sorted,
                               const EncodedTarget& target) {
  const size_t m = sorted.size();
  if (m < 16) return 0.0;
  double x_cuts[kBins - 1];
  double y_cuts[kBins - 1] = {};
  for (int c = 1; c < kBins; ++c) x_cuts[c - 1] = sorted[m * c / kBins];
  // The same order statistics of the target over this column's present
  // rows: walk the table's target order, skipping the rows it is missing.
  size_t k = 0;
  int c = 1;
  for (const auto& [y, r] : target.sorted) {
    if (!Present(col, r)) continue;
    if (k == m * c / kBins) {
      y_cuts[c - 1] = y;
      if (++c == kBins) break;
    }
    ++k;
  }
  size_t joint[kBins][kBins] = {};
  size_t px[kBins] = {};
  size_t py[kBins] = {};
  for (size_t i = 0; i < m; ++i) {
    int bx = BinOf(x.values[i], x_cuts);
    int by = BinOf(target.values[x.rows[i]], y_cuts);
    ++joint[bx][by];
    ++px[bx];
    ++py[by];
  }
  double n = static_cast<double>(m);
  double mi = 0.0;
  for (int a = 0; a < kBins; ++a) {
    for (int b = 0; b < kBins; ++b) {
      if (joint[a][b] == 0) continue;
      double pj = static_cast<double>(joint[a][b]) / n;
      double qa = static_cast<double>(px[a]) / n;
      double qb = static_cast<double>(py[b]) / n;
      mi += pj * std::log(pj / (qa * qb));
    }
  }
  return mi / std::log(static_cast<double>(kBins));
}

/// One numeric column's statistics from one pass over its present values
/// and one sort of them. Every sum runs over the present values in row
/// order.
ColumnStats ComputeColumnStats(const Column& col,
                               const EncodedTarget* target) {
  const size_t rows = col.size();
  ColumnStats s;
  s.rows.reserve(rows);
  s.values.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    if (!Present(col, r)) continue;
    s.rows.push_back(r);
    s.values.push_back(col.NumericAt(r));
  }
  const size_t m = s.values.size();
  if (m == 0) return s;
  // Values near DBL_MAX can overflow a sum. A statistic whose sum
  // overflowed counts as unavailable, as for a constant column: the mean
  // is then 0, and Σd² or Σd³ leave stddev and skew at 0 (and |corr| at
  // 0, from sxx = 0).
  for (double x : s.values) s.mean += x;
  s.mean = std::isfinite(s.mean) ? s.mean / static_cast<double>(m) : 0.0;
  double m2 = 0.0, m3 = 0.0;
  for (double x : s.values) {
    double d = x - s.mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  if (!std::isfinite(m2)) m2 = 0.0;
  if (!std::isfinite(m3)) m3 = 0.0;
  s.sxx = m2;
  m2 /= static_cast<double>(m);
  m3 /= static_cast<double>(m);
  s.stddev = std::sqrt(m2);
  s.skew = m2 > 1e-12 ? m3 / std::pow(m2, 1.5) : 0.0;

  // Adjacent runs of the sorted copy count distinct values; -0.0 and +0.0
  // compare equal, so they are one value.
  std::vector<double> sorted = s.values;
  std::sort(sorted.begin(), sorted.end());
  size_t distinct = 1;
  for (size_t i = 1; i < m; ++i) distinct += sorted[i] != sorted[i - 1];
  s.distinct_frac =
      static_cast<double>(distinct) / static_cast<double>(rows);

  if (target != nullptr) {
    s.abs_corr = std::fabs(Correlation(
        s, [&](size_t i) { return target->values[s.rows[i]]; }));
    s.mi = BinnedMutualInformation(col, s, sorted, *target);
  }
  return s;
}

void AddHashed(const std::string& token, double weight, double* block,
               size_t dims) {
  uint64_t h = Fnv1a64(token);
  size_t idx = h % dims;
  // Signed hashing reduces collisions' bias.
  double sign = (h >> 32) & 1 ? 1.0 : -1.0;
  block[idx] += sign * weight;
}

void AddNameNgrams(const std::string& name, double* block, size_t dims) {
  // Appended piecewise: GCC 12 misreports `"^" + std::string` under
  // -Wrestrict.
  std::string padded = "^";
  padded += AsciiToLower(name);
  padded += '$';
  for (size_t i = 0; i + 3 <= padded.size(); ++i) {
    AddHashed(padded.substr(i, 3), 1.0, block, dims);
  }
}

void NormalizeBlock(double* block, size_t dims) {
  double norm = 0.0;
  for (size_t i = 0; i < dims; ++i) norm += block[i] * block[i];
  norm = std::sqrt(norm);
  if (norm < 1e-12) return;
  for (size_t i = 0; i < dims; ++i) block[i] /= norm;
}

}  // namespace

std::vector<double> TableEmbedder::Embed(const Table& table) const {
  static obs::Histogram* embed_seconds =
      obs::MetricsRegistry::Global().GetHistogram("embed.table_embed_seconds");
  Stopwatch watch;
  struct RecordOnExit {
    obs::Histogram* hist;
    Stopwatch* watch;
    ~RecordOnExit() { hist->Record(watch->ElapsedSeconds()); }
  } record{embed_seconds, &watch};
  std::vector<double> v(kDims, 0.0);
  const size_t rows = table.num_rows();
  const size_t cols = table.num_columns();
  if (rows == 0 || cols == 0) return v;

  // Encode the target for relationship features (class index or value).
  std::optional<EncodedTarget> target;
  double target_entropy = 0.0;
  double num_classes = 0.0;
  bool target_is_numeric = true;
  if (auto t = table.TargetColumn(); t.ok()) {
    target_is_numeric = (*t)->type() == ColumnType::kNumeric;
    target = EncodeTarget(**t, &target_entropy, &num_classes);
  }

  // Per-column statistics are independent, so one pool item per numeric
  // column computes all of them; each item writes only its own slot,
  // keeping the results in column order regardless of thread count.
  std::vector<const Column*> numeric_columns;
  for (const Column& col : table.columns()) {
    if (col.name() == table.target_name()) continue;
    if (col.type() != ColumnType::kNumeric) continue;
    numeric_columns.push_back(&col);
  }
  const EncodedTarget* encoded = target ? &*target : nullptr;
  const std::vector<ColumnStats> stats =
      util::ThreadPool::Global().ParallelMap<ColumnStats>(
          numeric_columns.size(), [&](size_t c) {
            return ComputeColumnStats(*numeric_columns[c], encoded);
          });

  // ---- Shape block ----
  size_t n_categorical = 0, n_text = 0;
  size_t missing = 0;
  for (const Column& col : table.columns()) {
    if (col.name() == table.target_name()) continue;
    if (col.type() == ColumnType::kNumeric) continue;
    if (col.type() == ColumnType::kText) {
      ++n_text;
    } else {
      ++n_categorical;
    }
    missing += col.MissingCount();
  }
  // A numeric column's missing cells include its non-finite ones.
  for (const ColumnStats& s : stats) missing += rows - s.values.size();
  const size_t n_numeric = numeric_columns.size();
  const double n_features =
      std::max<double>(1.0, static_cast<double>(cols) - 1.0);
  v[kShapeBlock + 0] = std::log1p(static_cast<double>(rows)) / 10.0;
  v[kShapeBlock + 1] = std::log1p(n_features) / 5.0;
  v[kShapeBlock + 2] = static_cast<double>(n_numeric) / n_features;
  v[kShapeBlock + 3] = static_cast<double>(n_categorical) / n_features;
  v[kShapeBlock + 4] = static_cast<double>(n_text) / n_features;
  v[kShapeBlock + 5] =
      static_cast<double>(missing) / (n_features * static_cast<double>(rows));
  v[kShapeBlock + 6] = target_is_numeric ? 1.0 : 0.0;
  v[kShapeBlock + 7] = num_classes > 0.0 ? std::log1p(num_classes) / 3.0
                                         : 0.0;
  v[kShapeBlock + 8] = target_entropy;
  v[kShapeBlock + 9] = num_classes == 2.0 ? 1.0 : 0.0;
  v[kShapeBlock + 10] = num_classes > 2.0 ? 1.0 : 0.0;
  v[kShapeBlock + 11] = n_text > 0 ? 1.0 : 0.0;

  // ---- Target-relationship block ----
  auto top_mean = [](std::vector<double> values, size_t k) {
    if (values.empty()) return 0.0;
    std::sort(values.rbegin(), values.rend());
    k = std::min(k, values.size());
    double s = 0.0;
    for (size_t i = 0; i < k; ++i) s += values[i];
    return s / static_cast<double>(k);
  };
  if (target && !stats.empty()) {
    std::vector<double> abs_corrs;
    std::vector<double> mis;
    abs_corrs.reserve(stats.size());
    mis.reserve(stats.size());
    for (const ColumnStats& s : stats) {
      abs_corrs.push_back(s.abs_corr);
      mis.push_back(s.mi);
    }
    double max_corr = *std::max_element(abs_corrs.begin(), abs_corrs.end());
    double max_mi = *std::max_element(mis.begin(), mis.end());
    size_t strong_corr = 0, strong_mi = 0;
    for (double c : abs_corrs) {
      if (c > 0.2) ++strong_corr;
    }
    for (double m : mis) {
      if (m > 0.08) ++strong_mi;
    }
    v[kTargetBlock + 0] = max_corr;
    v[kTargetBlock + 1] = top_mean(abs_corrs, 3);
    v[kTargetBlock + 2] =
        static_cast<double>(strong_corr) / abs_corrs.size();
    v[kTargetBlock + 3] = max_mi;
    v[kTargetBlock + 4] = top_mean(mis, 3);
    v[kTargetBlock + 5] = static_cast<double>(strong_mi) / mis.size();
    // Interactions signature: information without linear correlation.
    v[kTargetBlock + 6] = std::max(0.0, max_mi - max_corr);
    v[kTargetBlock + 7] = max_corr > 0.0 ? max_mi / (max_corr + 0.1) / 5.0
                                         : max_mi;
  }

  // ---- Numeric block ----
  if (!stats.empty()) {
    // Accumulate in column order so the floating-point sums are fixed.
    double mean_slog_mean = 0.0, mean_log_std = 0.0, mean_skew = 0.0,
           mean_distinct = 0.0;
    for (const ColumnStats& s : stats) {
      mean_slog_mean += SignedLog(s.mean);
      mean_log_std += std::log1p(s.stddev);
      mean_skew += s.skew;
      mean_distinct += s.distinct_frac;
    }
    const double nn = static_cast<double>(stats.size());
    v[kNumericBlock + 0] = mean_slog_mean / nn / 10.0;
    v[kNumericBlock + 1] = mean_log_std / nn / 8.0;
    v[kNumericBlock + 2] = std::tanh(mean_skew / nn);
    v[kNumericBlock + 3] = mean_distinct / nn;
    // Inter-feature correlation structure (sparse datasets stand apart):
    // each probe column against every other, over the first one's present
    // rows, reading the second from a dense copy with 0.0 where missing.
    const size_t probe = std::min(stats.size(), kProbeColumns);
    std::vector<std::vector<double>> dense(probe,
                                           std::vector<double>(rows, 0.0));
    for (size_t b = 0; b < probe; ++b) {
      for (size_t i = 0; i < stats[b].rows.size(); ++i) {
        dense[b][stats[b].rows[i]] = stats[b].values[i];
      }
    }
    double mean_abs_corr = 0.0;
    size_t corr_pairs = 0, partnered = 0;
    for (size_t a = 0; a < probe; ++a) {
      const ColumnStats& x = stats[a];
      bool has_partner = false;
      for (size_t b = 0; b < probe; ++b) {
        if (a == b) continue;
        const std::vector<double>& other = dense[b];
        double c = std::fabs(
            Correlation(x, [&](size_t i) { return other[x.rows[i]]; }));
        mean_abs_corr += c;
        ++corr_pairs;
        if (c > 0.3) has_partner = true;
      }
      if (has_partner) ++partnered;
    }
    v[kNumericBlock + 4] =
        corr_pairs > 0 ? mean_abs_corr / static_cast<double>(corr_pairs)
                       : 0.0;
    v[kNumericBlock + 5] =
        probe > 0 ? static_cast<double>(partnered) / static_cast<double>(probe)
                  : 0.0;
    v[kNumericBlock + 6] = std::log1p(nn) / 4.0;
    v[kNumericBlock + 7] = nn / n_features;
  }

  // ---- Name + content hash blocks ----
  for (const Column& col : table.columns()) {
    if (col.name() == table.target_name()) continue;
    AddNameNgrams(col.name(), v.data() + kNameBlock, kNameBlockDims);
    if (col.type() != ColumnType::kNumeric) {
      const size_t sample = std::min<size_t>(col.size(), 64);
      for (size_t r = 0; r < sample; ++r) {
        if (col.IsMissing(r)) continue;
        AddHashed(AsciiToLower(col.StringAt(r)), 1.0,
                  v.data() + kContentBlock, kContentBlockDims);
      }
    }
  }
  NormalizeBlock(v.data() + kNameBlock, kNameBlockDims);
  NormalizeBlock(v.data() + kContentBlock, kContentBlockDims);

  // Global L2 normalization for cosine search.
  double norm = 0.0;
  for (double x : v) norm += x * x;
  norm = std::sqrt(norm);
  if (norm > 1e-12) {
    for (double& x : v) x /= norm;
  }
  return v;
}

double TableEmbedder::Cosine(const std::vector<double>& a,
                             const std::vector<double>& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

}  // namespace kgpip::embed
