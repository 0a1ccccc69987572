#include "embed/embedder.h"

#include <algorithm>
#include <cmath>
#include <map>

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

double SignedLog(double x) {
  return x >= 0.0 ? std::log1p(x) : -std::log1p(-x);
}

/// Basic moments of the non-missing values of a numeric column.
struct Moments {
  double mean = 0.0;
  double stddev = 0.0;
  double skew = 0.0;
  size_t count = 0;
};

Moments ComputeMoments(const Column& col) {
  Moments m;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsMissing(r)) continue;
    m.mean += col.NumericAt(r);
    ++m.count;
  }
  if (m.count == 0) return m;
  m.mean /= static_cast<double>(m.count);
  double m2 = 0.0, m3 = 0.0;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsMissing(r)) continue;
    double d = col.NumericAt(r) - m.mean;
    m2 += d * d;
    m3 += d * d * d;
  }
  m2 /= static_cast<double>(m.count);
  m3 /= static_cast<double>(m.count);
  m.stddev = std::sqrt(m2);
  m.skew = m2 > 1e-12 ? m3 / std::pow(m2, 1.5) : 0.0;
  return m;
}

/// Pearson correlation of a numeric column with an encoded target.
double CorrWithTarget(const Column& col, const std::vector<double>& target) {
  double mx = 0.0, my = 0.0;
  size_t n = 0;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsMissing(r)) continue;
    mx += col.NumericAt(r);
    my += target[r];
    ++n;
  }
  if (n < 3) return 0.0;
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsMissing(r)) continue;
    double dx = col.NumericAt(r) - mx;
    double dy = target[r] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

/// Normalized mutual information between a quantile-binned feature and a
/// binned target (4x4 grid). Captures non-linear relationships the
/// correlation misses — this is what separates interaction-style datasets
/// from pure-noise ones.
double BinnedMutualInformation(const Column& col,
                               const std::vector<double>& target) {
  constexpr int kBins = 4;
  std::vector<std::pair<double, double>> rows;
  for (size_t r = 0; r < col.size(); ++r) {
    if (col.IsMissing(r)) continue;
    rows.emplace_back(col.NumericAt(r), target[r]);
  }
  if (rows.size() < 16) return 0.0;
  auto bin_of = [&](double v, std::vector<double>& sorted) {
    int b = 0;
    for (int c = 1; c < kBins; ++c) {
      if (v > sorted[sorted.size() * c / kBins]) b = c;
    }
    return b;
  };
  std::vector<double> xs, ys;
  for (const auto& [x, y] : rows) {
    xs.push_back(x);
    ys.push_back(y);
  }
  std::sort(xs.begin(), xs.end());
  std::sort(ys.begin(), ys.end());
  double joint[kBins][kBins] = {};
  double px[kBins] = {};
  double py[kBins] = {};
  for (const auto& [x, y] : rows) {
    int bx = bin_of(x, xs);
    int by = bin_of(y, ys);
    joint[bx][by] += 1.0;
    px[bx] += 1.0;
    py[by] += 1.0;
  }
  double n = static_cast<double>(rows.size());
  double mi = 0.0;
  for (int a = 0; a < kBins; ++a) {
    for (int b = 0; b < kBins; ++b) {
      if (joint[a][b] <= 0.0) continue;
      double pj = joint[a][b] / n;
      mi += pj * std::log(pj / ((px[a] / n) * (py[b] / n)));
    }
  }
  return mi / std::log(static_cast<double>(kBins));
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
  std::vector<double> target_encoded(rows, 0.0);
  bool have_target = false;
  double target_entropy = 0.0;
  double num_classes = 0.0;
  bool target_is_numeric = true;
  if (auto target = table.TargetColumn(); target.ok()) {
    have_target = true;
    const Column& t = **target;
    target_is_numeric = t.type() == ColumnType::kNumeric;
    if (target_is_numeric) {
      for (size_t r = 0; r < rows; ++r) {
        target_encoded[r] = t.IsMissing(r) ? 0.0 : t.NumericAt(r);
      }
    } else {
      std::map<std::string, int> levels;
      std::map<std::string, size_t> counts;
      for (size_t r = 0; r < rows; ++r) {
        if (t.IsMissing(r)) continue;
        auto [it, unused] =
            levels.emplace(t.StringAt(r), static_cast<int>(levels.size()));
        target_encoded[r] = it->second;
        ++counts[t.StringAt(r)];
      }
      num_classes = static_cast<double>(levels.size());
      for (const auto& [label, count] : counts) {
        double p = static_cast<double>(count) / static_cast<double>(rows);
        if (p > 0.0) target_entropy -= p * std::log(p);
      }
      if (num_classes > 1.0) target_entropy /= std::log(num_classes);
    }
  }

  // ---- Shape block ----
  size_t n_numeric = 0, n_categorical = 0, n_text = 0;
  size_t missing = 0;
  for (const Column& col : table.columns()) {
    if (col.name() == table.target_name()) continue;
    switch (col.type()) {
      case ColumnType::kNumeric:
        ++n_numeric;
        break;
      case ColumnType::kCategorical:
        ++n_categorical;
        break;
      case ColumnType::kText:
        ++n_text;
        break;
    }
    missing += col.MissingCount();
  }
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

  // ---- Target-relationship + numeric blocks ----
  // Per-column statistics are independent, so they fan out over the pool;
  // each item writes only its own slot, keeping the resulting vectors in
  // column order regardless of thread count.
  std::vector<const Column*> numeric_columns;
  for (const Column& col : table.columns()) {
    if (col.name() == table.target_name()) continue;
    if (col.type() != ColumnType::kNumeric) continue;
    numeric_columns.push_back(&col);
  }
  std::vector<double> abs_corrs;
  std::vector<double> mis;
  if (have_target && !numeric_columns.empty()) {
    struct TargetStats {
      double abs_corr = 0.0;
      double mi = 0.0;
    };
    std::vector<TargetStats> stats =
        util::ThreadPool::Global().ParallelMap<TargetStats>(
            numeric_columns.size(), [&](size_t c) {
              const Column& col = *numeric_columns[c];
              return TargetStats{
                  std::fabs(CorrWithTarget(col, target_encoded)),
                  BinnedMutualInformation(col, target_encoded)};
            });
    abs_corrs.reserve(stats.size());
    mis.reserve(stats.size());
    for (const TargetStats& s : stats) {
      abs_corrs.push_back(s.abs_corr);
      mis.push_back(s.mi);
    }
  }
  auto top_mean = [](std::vector<double> values, size_t k) {
    if (values.empty()) return 0.0;
    std::sort(values.rbegin(), values.rend());
    k = std::min(k, values.size());
    double s = 0.0;
    for (size_t i = 0; i < k; ++i) s += values[i];
    return s / static_cast<double>(k);
  };
  if (!abs_corrs.empty()) {
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

  if (!numeric_columns.empty()) {
    struct ColumnMoments {
      Moments m;
      double distinct_frac = 0.0;
    };
    std::vector<ColumnMoments> moments =
        util::ThreadPool::Global().ParallelMap<ColumnMoments>(
            numeric_columns.size(), [&](size_t c) {
              const Column& col = *numeric_columns[c];
              return ColumnMoments{
                  ComputeMoments(col),
                  static_cast<double>(col.DistinctCount()) /
                      static_cast<double>(rows)};
            });
    // Accumulate in column order so the floating-point sums are fixed.
    double mean_slog_mean = 0.0, mean_log_std = 0.0, mean_skew = 0.0,
           mean_distinct = 0.0;
    for (const ColumnMoments& cm : moments) {
      mean_slog_mean += SignedLog(cm.m.mean);
      mean_log_std += std::log1p(cm.m.stddev);
      mean_skew += cm.m.skew;
      mean_distinct += cm.distinct_frac;
    }
    const double nn = static_cast<double>(numeric_columns.size());
    v[kNumericBlock + 0] = mean_slog_mean / nn / 10.0;
    v[kNumericBlock + 1] = mean_log_std / nn / 8.0;
    v[kNumericBlock + 2] = std::tanh(mean_skew / nn);
    v[kNumericBlock + 3] = mean_distinct / nn;
    // Inter-feature correlation structure (sparse datasets stand apart).
    double mean_abs_corr = 0.0;
    size_t corr_pairs = 0, partnered = 0;
    const size_t probe = std::min<size_t>(numeric_columns.size(), 8);
    for (size_t a = 0; a < probe; ++a) {
      bool has_partner = false;
      for (size_t b = 0; b < probe; ++b) {
        if (a == b) continue;
        std::vector<double> other(rows, 0.0);
        for (size_t r = 0; r < rows; ++r) {
          other[r] = numeric_columns[b]->IsMissing(r)
                         ? 0.0
                         : numeric_columns[b]->NumericAt(r);
        }
        double c = std::fabs(CorrWithTarget(*numeric_columns[a], other));
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
