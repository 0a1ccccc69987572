// Learner-layer tests for the tree family.
//
// The presorted split finder must grow the very trees the sort-per-node
// builders grew: the reference namespace below keeps those builders,
// copied unchanged, as the oracle, and a seeded sweep compares every node
// bit for bit plus the Rng state after each fit. A digest of the six tree
// learners' predictions, recorded before the presort replaced per-node
// sorting, pins the learner wiring (bootstrap, subsampling, rounds).
// The rest covers forests fitted from several threads at once and NaN
// feature columns, which every tree learner must refuse.

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/csv.h"
#include "data/type_inference.h"
#include "ml/featurizer.h"
#include "ml/learner.h"
#include "ml/preprocess.h"
#include "ml/tree.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace kgpip::ml {
namespace {

/// The sort-per-node builders as they stood before the presort: every
/// split sorts (value, row) pairs for every sampled feature.
namespace reference {

/// Chooses the feature subset scanned at one split.
std::vector<int> SampleFeatures(size_t num_features, double max_features,
                                Rng* rng) {
  std::vector<int> all(num_features);
  std::iota(all.begin(), all.end(), 0);
  if (max_features <= 0.0 || max_features >= 1.0) return all;
  size_t keep = std::max<size_t>(
      1, static_cast<size_t>(std::lround(
             max_features * static_cast<double>(num_features))));
  rng->Shuffle(all);
  all.resize(keep);
  return all;
}

struct GradientSplit {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
};

double LeafObjective(double sum_g, double sum_h, double lambda) {
  return sum_g * sum_g / (sum_h + lambda);
}

/// Builder state shared across the recursion for gradient trees.
struct GradientBuilder {
  const FeatureMatrix* x;
  const std::vector<double>* grad;
  const std::vector<double>* hess;
  TreeParams params;
  Rng* rng;
  std::vector<TreeNode>* nodes;

  int Build(const std::vector<size_t>& rows, int depth) {
    double sum_g = 0.0;
    double sum_h = 0.0;
    for (size_t r : rows) {
      sum_g += (*grad)[r];
      sum_h += (*hess)[r];
    }
    const double leaf_value = -sum_g / (sum_h + params.lambda);
    const bool can_split =
        depth < params.max_depth &&
        rows.size() >= static_cast<size_t>(params.min_samples_split);
    GradientSplit best;
    if (can_split) best = FindSplit(rows, sum_g, sum_h);
    int node_index = static_cast<int>(nodes->size());
    nodes->push_back(TreeNode{});
    if (best.feature < 0) {
      (*nodes)[node_index].value = leaf_value;
      return node_index;
    }
    (*nodes)[node_index].feature = best.feature;
    (*nodes)[node_index].threshold = best.threshold;
    int left = Build(best.left_rows, depth + 1);
    int right = Build(best.right_rows, depth + 1);
    (*nodes)[node_index].left = left;
    (*nodes)[node_index].right = right;
    return node_index;
  }

  GradientSplit FindSplit(const std::vector<size_t>& rows, double sum_g,
                          double sum_h) {
    GradientSplit best;
    const double parent_obj =
        LeafObjective(sum_g, sum_h, params.lambda);
    std::vector<int> features =
        SampleFeatures(x->cols, params.max_features, rng);
    const size_t min_leaf = static_cast<size_t>(params.min_samples_leaf);
    std::vector<std::pair<double, size_t>> sorted;
    sorted.reserve(rows.size());
    for (int f : features) {
      sorted.clear();
      for (size_t r : rows) sorted.emplace_back(x->At(r, f), r);
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) continue;
      if (params.random_thresholds) {
        double lo = sorted.front().first;
        double hi = sorted.back().first;
        double threshold = rng->Uniform(lo, hi);
        double left_g = 0.0;
        double left_h = 0.0;
        size_t left_count = 0;
        for (const auto& [v, r] : sorted) {
          if (v <= threshold) {
            left_g += (*grad)[r];
            left_h += (*hess)[r];
            ++left_count;
          }
        }
        if (left_count < min_leaf || rows.size() - left_count < min_leaf) {
          continue;
        }
        double gain = LeafObjective(left_g, left_h, params.lambda) +
                      LeafObjective(sum_g - left_g, sum_h - left_h,
                                    params.lambda) -
                      parent_obj;
        if (gain > best.gain) {
          best.gain = gain;
          best.feature = f;
          best.threshold = threshold;
        }
      } else {
        double left_g = 0.0;
        double left_h = 0.0;
        for (size_t i = 0; i + 1 < sorted.size(); ++i) {
          left_g += (*grad)[sorted[i].second];
          left_h += (*hess)[sorted[i].second];
          if (sorted[i].first == sorted[i + 1].first) continue;
          size_t left_count = i + 1;
          if (left_count < min_leaf ||
              sorted.size() - left_count < min_leaf) {
            continue;
          }
          double gain = LeafObjective(left_g, left_h, params.lambda) +
                        LeafObjective(sum_g - left_g, sum_h - left_h,
                                      params.lambda) -
                        parent_obj;
          if (gain > best.gain) {
            best.gain = gain;
            best.feature = f;
            best.threshold =
                0.5 * (sorted[i].first + sorted[i + 1].first);
          }
        }
      }
    }
    if (best.feature >= 0) {
      for (size_t r : rows) {
        if (x->At(r, best.feature) <= best.threshold) {
          best.left_rows.push_back(r);
        } else {
          best.right_rows.push_back(r);
        }
      }
      if (best.left_rows.size() < min_leaf ||
          best.right_rows.size() < min_leaf) {
        best.feature = -1;
      }
    }
    return best;
  }
};

/// Builder for Gini classification trees.
struct GiniBuilder {
  const FeatureMatrix* x;
  const std::vector<double>* y;
  int num_classes;
  TreeParams params;
  Rng* rng;
  std::vector<TreeNode>* nodes;

  static double Gini(const std::vector<double>& counts, double total) {
    if (total <= 0.0) return 0.0;
    double g = 1.0;
    for (double c : counts) {
      double p = c / total;
      g -= p * p;
    }
    return g;
  }

  int Build(const std::vector<size_t>& rows, int depth) {
    std::vector<double> counts(num_classes, 0.0);
    for (size_t r : rows) {
      counts[static_cast<size_t>((*y)[r])] += 1.0;
    }
    int majority = 0;
    bool pure = false;
    for (int c = 1; c < num_classes; ++c) {
      if (counts[c] > counts[majority]) majority = c;
    }
    pure = counts[majority] == static_cast<double>(rows.size());
    int node_index = static_cast<int>(nodes->size());
    nodes->push_back(TreeNode{});
    const bool can_split =
        !pure && depth < params.max_depth &&
        rows.size() >= static_cast<size_t>(params.min_samples_split);
    if (can_split) {
      auto [feature, threshold, gain] = FindSplit(rows, counts);
      if (feature >= 0 && gain > 1e-12) {
        std::vector<size_t> left_rows, right_rows;
        for (size_t r : rows) {
          if (x->At(r, feature) <= threshold) {
            left_rows.push_back(r);
          } else {
            right_rows.push_back(r);
          }
        }
        const size_t min_leaf =
            static_cast<size_t>(params.min_samples_leaf);
        if (left_rows.size() >= min_leaf &&
            right_rows.size() >= min_leaf) {
          (*nodes)[node_index].feature = feature;
          (*nodes)[node_index].threshold = threshold;
          int left = Build(left_rows, depth + 1);
          int right = Build(right_rows, depth + 1);
          (*nodes)[node_index].left = left;
          (*nodes)[node_index].right = right;
          return node_index;
        }
      }
    }
    (*nodes)[node_index].value = static_cast<double>(majority);
    return node_index;
  }

  std::tuple<int, double, double> FindSplit(
      const std::vector<size_t>& rows, const std::vector<double>& counts) {
    const double total = static_cast<double>(rows.size());
    const double parent_gini = Gini(counts, total);
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_gain = 0.0;
    std::vector<int> features =
        SampleFeatures(x->cols, params.max_features, rng);
    std::vector<std::pair<double, size_t>> sorted;
    std::vector<double> left_counts(num_classes, 0.0);
    const size_t min_leaf = static_cast<size_t>(params.min_samples_leaf);
    for (int f : features) {
      sorted.clear();
      for (size_t r : rows) sorted.emplace_back(x->At(r, f), r);
      std::sort(sorted.begin(), sorted.end());
      if (sorted.front().first == sorted.back().first) continue;
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      if (params.random_thresholds) {
        double threshold =
            rng->Uniform(sorted.front().first, sorted.back().first);
        double left_total = 0.0;
        for (const auto& [v, r] : sorted) {
          if (v <= threshold) {
            left_counts[static_cast<size_t>((*y)[r])] += 1.0;
            left_total += 1.0;
          }
        }
        if (left_total < static_cast<double>(min_leaf) ||
            total - left_total < static_cast<double>(min_leaf)) {
          continue;
        }
        std::vector<double> right_counts(num_classes);
        for (int c = 0; c < num_classes; ++c) {
          right_counts[c] = counts[c] - left_counts[c];
        }
        double gain = parent_gini -
                      (left_total / total) * Gini(left_counts, left_total) -
                      ((total - left_total) / total) *
                          Gini(right_counts, total - left_total);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = f;
          best_threshold = threshold;
        }
      } else {
        double left_total = 0.0;
        for (size_t i = 0; i + 1 < sorted.size(); ++i) {
          left_counts[static_cast<size_t>((*y)[sorted[i].second])] += 1.0;
          left_total += 1.0;
          if (sorted[i].first == sorted[i + 1].first) continue;
          if (left_total < static_cast<double>(min_leaf) ||
              total - left_total < static_cast<double>(min_leaf)) {
            continue;
          }
          double right_total = total - left_total;
          double left_gini = Gini(left_counts, left_total);
          double right_gini = 1.0;
          {
            double g = 1.0;
            for (int c = 0; c < num_classes; ++c) {
              double p = (counts[c] - left_counts[c]) / right_total;
              g -= p * p;
            }
            right_gini = g;
          }
          double gain = parent_gini -
                        (left_total / total) * left_gini -
                        (right_total / total) * right_gini;
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = f;
            best_threshold =
                0.5 * (sorted[i].first + sorted[i + 1].first);
          }
        }
      }
    }
    return {best_feature, best_threshold, best_gain};
  }
};


Tree FitGradientTree(const FeatureMatrix& x, const std::vector<double>& grad,
                     const std::vector<double>& hess,
                     const std::vector<size_t>& rows,
                     const TreeParams& params, Rng* rng) {
  KGPIP_CHECK(grad.size() == x.rows && hess.size() == x.rows);
  Tree tree;
  if (rows.empty()) return tree;
  GradientBuilder builder{&x, &grad, &hess, params, rng,
                          &tree.mutable_nodes()};
  builder.Build(rows, 0);
  return tree;
}

Tree FitClassificationTree(const FeatureMatrix& x,
                           const std::vector<double>& y, int num_classes,
                           const std::vector<size_t>& rows,
                           const TreeParams& params, Rng* rng) {
  KGPIP_CHECK(y.size() == x.rows);
  Tree tree;
  if (rows.empty()) return tree;
  GiniBuilder builder{&x, &y, num_classes, params, rng,
                      &tree.mutable_nodes()};
  builder.Build(rows, 0);
  return tree;
}

}  // namespace reference

/// Seeded matrix mixing the column shapes split finding has to order:
/// continuous, tie-heavy integers, one-hot, constant, signed zeros, and
/// adjacent doubles whose midpoint rounds onto the upper value.
FeatureMatrix MakeMatrix(size_t rows, uint64_t seed) {
  Rng rng(seed);
  const double lo = std::nextafter(1.0, 2.0);
  const double hi = std::nextafter(lo, 2.0);
  FeatureMatrix x(rows, 7);
  for (size_t r = 0; r < rows; ++r) {
    x.At(r, 0) = rng.Normal();
    x.At(r, 1) = static_cast<double>(rng.UniformInt(uint64_t{5}));
    x.At(r, 2) = rng.Bernoulli(0.3) ? 1.0 : 0.0;
    x.At(r, 3) = 2.5;
    const uint64_t z = rng.UniformInt(uint64_t{3});
    x.At(r, 4) = z == 0 ? -0.0 : (z == 1 ? 0.0 : 1.0);
    x.At(r, 5) = rng.Bernoulli(0.5) ? lo : hi;
    x.At(r, 6) = 10.0 * rng.Uniform() - 3.0;
  }
  return x;
}

/// Labels driven by several columns so trees use all of them.
std::vector<double> MakeLabels(const FeatureMatrix& x, TaskType task,
                               int num_classes, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> y(x.rows);
  for (size_t r = 0; r < x.rows; ++r) {
    const double s = x.At(r, 0) + 0.6 * x.At(r, 1) - 1.5 * x.At(r, 2) +
                     (x.At(r, 5) > 1.0 + 3e-16 ? 0.7 : 0.0) +
                     0.2 * x.At(r, 6) + 0.5 * rng.Normal();
    if (task == TaskType::kRegression) {
      y[r] = s;
    } else if (num_classes == 2) {
      y[r] = s > 1.5 ? 1.0 : 0.0;
    } else {
      y[r] = std::clamp(std::floor(s / 1.2), 0.0,
                        static_cast<double>(num_classes - 1));
    }
  }
  return y;
}

LabeledData MakeData(TaskType task, int num_classes, size_t rows,
                     uint64_t seed) {
  LabeledData data;
  data.x = MakeMatrix(rows, seed);
  data.y = MakeLabels(data.x, task, num_classes, seed + 1);
  data.task = task;
  data.num_classes = num_classes;
  return data;
}


/// Bitwise node equality: feature, threshold bits, children, value bits.
void ExpectSameTree(const Tree& expected, const Tree& actual,
                    const std::string& where) {
  ASSERT_EQ(expected.nodes().size(), actual.nodes().size()) << where;
  for (size_t i = 0; i < expected.nodes().size(); ++i) {
    const TreeNode& e = expected.nodes()[i];
    const TreeNode& a = actual.nodes()[i];
    EXPECT_EQ(e.feature, a.feature) << where << " node " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(e.threshold),
              std::bit_cast<uint64_t>(a.threshold))
        << where << " node " << i;
    EXPECT_EQ(e.left, a.left) << where << " node " << i;
    EXPECT_EQ(e.right, a.right) << where << " node " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(e.value),
              std::bit_cast<uint64_t>(a.value))
        << where << " node " << i;
  }
}

/// The root row multisets the learners hand a tree.
enum class RootKind { kAllRows, kBootstrap, kSubsample };

std::vector<size_t> RootRows(RootKind kind, size_t n, Rng* rng) {
  std::vector<size_t> rows;
  if (kind == RootKind::kBootstrap) {
    for (size_t i = 0; i < n; ++i) rows.push_back(rng->UniformInt(n));
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (kind == RootKind::kAllRows || rng->Bernoulli(0.6)) {
        rows.push_back(i);
      }
    }
  }
  return rows;
}

void SetRoot(RootKind kind, const SortedColumns& sorted,
             const std::vector<size_t>& rows, TreeWorkspace* ws) {
  if (kind == RootKind::kAllRows) {
    ws->SetAllRows(sorted);
  } else {
    ws->SetRows(sorted, rows);
  }
}

struct SweepCase {
  TreeParams params;
  RootKind root;
  size_t rows;
  uint64_t seed;
};

/// Seeded sweep over exact and random thresholds, max_features in
/// {1, 0.35, sqrt(F)/F}, min_samples_leaf 1..16, and the three root kinds.
std::vector<SweepCase> SweepCases() {
  std::vector<SweepCase> cases;
  const double sqrt_frac = std::sqrt(7.0) / 7.0;
  uint64_t seed = 1;
  for (bool random_thresholds : {false, true}) {
    for (double max_features : {1.0, 0.35, sqrt_frac}) {
      for (int min_leaf : {1, 2, 3, 5, 8, 16}) {
        for (RootKind root : {RootKind::kAllRows, RootKind::kBootstrap,
                              RootKind::kSubsample}) {
          SweepCase c;
          c.params.random_thresholds = random_thresholds;
          c.params.max_features = max_features;
          c.params.min_samples_leaf = min_leaf;
          c.params.min_samples_split =
              seed % 2 == 0 ? 2 : 2 * min_leaf;
          c.params.max_depth = seed % 3 == 0 ? 4 : 14;
          c.params.lambda = seed % 2 == 0 ? 1.0 : 0.0;
          c.root = root;
          c.rows = 40 + (seed * 37) % 260;
          c.seed = seed++;
          cases.push_back(c);
        }
      }
    }
  }
  return cases;
}

std::string Describe(const SweepCase& c) {
  return StrFormat("seed=%llu rows=%zu random=%d max_features=%.3f "
                   "min_leaf=%d root=%d",
                   static_cast<unsigned long long>(c.seed), c.rows,
                   c.params.random_thresholds ? 1 : 0,
                   c.params.max_features, c.params.min_samples_leaf,
                   static_cast<int>(c.root));
}

TEST(PresortedTreeTest, GradientTreesMatchSortPerNodeBuilder) {
  for (const SweepCase& c : SweepCases()) {
    const FeatureMatrix x = MakeMatrix(c.rows, c.seed);
    Rng data_rng(c.seed + 1000);
    std::vector<double> grad(c.rows);
    std::vector<double> hess(c.rows);
    for (size_t i = 0; i < c.rows; ++i) {
      grad[i] = x.At(i, 0) + 0.3 * x.At(i, 1) + data_rng.Normal();
      hess[i] = 0.1 + data_rng.Uniform();
    }
    const std::vector<size_t> rows = RootRows(c.root, c.rows, &data_rng);
    auto sorted = SortedColumns::Build(x);
    ASSERT_TRUE(sorted.ok());
    TreeWorkspace ws;
    SetRoot(c.root, *sorted, rows, &ws);
    // Two trees on one workspace: the root lists must survive a fit.
    for (int tree = 0; tree < 2; ++tree) {
      Rng expected_rng(c.seed + static_cast<uint64_t>(tree));
      Rng actual_rng(c.seed + static_cast<uint64_t>(tree));
      const Tree expected = reference::FitGradientTree(
          x, grad, hess, rows, c.params, &expected_rng);
      const Tree actual =
          FitGradientTree(*sorted, grad, hess, c.params, &actual_rng, &ws);
      ExpectSameTree(expected, actual, Describe(c));
      EXPECT_TRUE(expected_rng == actual_rng) << Describe(c);
    }
  }
}

TEST(PresortedTreeTest, GiniTreesMatchSortPerNodeBuilder) {
  for (const SweepCase& c : SweepCases()) {
    for (int num_classes : {2, 4}) {
      const TaskType task = num_classes == 2
                                ? TaskType::kBinaryClassification
                                : TaskType::kMultiClassification;
      const FeatureMatrix x = MakeMatrix(c.rows, c.seed);
      const std::vector<double> y =
          MakeLabels(x, task, num_classes, c.seed + 2000);
      Rng data_rng(c.seed + 3000);
      const std::vector<size_t> rows = RootRows(c.root, c.rows, &data_rng);
      auto sorted = SortedColumns::Build(x);
      ASSERT_TRUE(sorted.ok());
      TreeWorkspace ws;
      SetRoot(c.root, *sorted, rows, &ws);
      for (int tree = 0; tree < 2; ++tree) {
        Rng expected_rng(c.seed + static_cast<uint64_t>(tree));
        Rng actual_rng(c.seed + static_cast<uint64_t>(tree));
        const Tree expected = reference::FitClassificationTree(
            x, y, num_classes, rows, c.params, &expected_rng);
        const Tree actual = FitClassificationTree(
            *sorted, y, num_classes, c.params, &actual_rng, &ws);
        ExpectSameTree(expected, actual,
                       Describe(c) + StrFormat(" classes=%d", num_classes));
        EXPECT_TRUE(expected_rng == actual_rng) << Describe(c);
      }
    }
  }
}

TEST(PresortedTreeTest, MidpointRoundingOntoUpperValueFailsLeafRecheck) {
  // lo and hi are adjacent doubles whose midpoint rounds to hi, so the
  // scan's lo|hi cut sends the hi rows left too. The post-split
  // min_samples_leaf recheck must then turn the root into a leaf: with
  // no row left on the right, and with one right row under a minimum
  // of two.
  const double lo = std::nextafter(1.0, 2.0);
  const double hi = std::nextafter(lo, 2.0);
  ASSERT_EQ(0.5 * (lo + hi), hi);
  struct Case {
    std::vector<double> column;
    int min_samples_leaf;
  };
  const Case cases[] = {{{lo, lo, lo, hi, hi, hi}, 1},
                        {{lo, lo, hi, hi, hi, 5.0}, 2}};
  for (const Case& c : cases) {
    FeatureMatrix x(6, 1);
    for (size_t r = 0; r < 6; ++r) x.At(r, 0) = c.column[r];
    std::vector<double> y(6), grad(6);
    for (size_t r = 0; r < 6; ++r) {
      y[r] = c.column[r] == lo ? 0.0 : 1.0;
      grad[r] = c.column[r] == lo ? 1.0 : -1.0;
    }
    const std::vector<double> hess(6, 1.0);
    const std::vector<size_t> rows = {0, 1, 2, 3, 4, 5};
    TreeParams params;
    params.min_samples_leaf = c.min_samples_leaf;
    params.min_samples_split = 2;
    auto sorted = SortedColumns::Build(x);
    ASSERT_TRUE(sorted.ok());
    TreeWorkspace ws;
    ws.SetAllRows(*sorted);
    Rng rng_a(1), rng_b(1);
    const Tree expected_gini =
        reference::FitClassificationTree(x, y, 2, rows, params, &rng_a);
    ASSERT_EQ(expected_gini.nodes().size(), 1u);
    ExpectSameTree(expected_gini,
                   FitClassificationTree(*sorted, y, 2, params, &rng_b, &ws),
                   "gini");
    const Tree expected_grad =
        reference::FitGradientTree(x, grad, hess, rows, params, &rng_a);
    ASSERT_EQ(expected_grad.nodes().size(), 1u);
    ExpectSameTree(expected_grad,
                   FitGradientTree(*sorted, grad, hess, params, &rng_b, &ws),
                   "gradient");
    EXPECT_TRUE(rng_a == rng_b);
  }
}

TEST(PresortedTreeTest, SignedZerosTieByRowIndex) {
  // -0.0 == +0.0, so they tie and order by row, as sorting (value, row)
  // pairs did.
  FeatureMatrix x(8, 1);
  const std::vector<double> column = {0.0, -0.0, 1.0, -0.0,
                                      0.0, 2.0,  -0.0, 1.0};
  for (size_t r = 0; r < 8; ++r) x.At(r, 0) = column[r];
  auto sorted = SortedColumns::Build(x);
  ASSERT_TRUE(sorted.ok());
  const std::vector<uint32_t> expected = {0, 1, 3, 4, 6, 2, 7, 5};
  EXPECT_EQ(std::vector<uint32_t>(sorted->lists(), sorted->lists() + 8),
            expected);
}

TEST(PresortedTreeTest, NanFeatureIsRejectedWithItsColumn) {
  FeatureMatrix x(3, 2);
  x.At(1, 1) = std::nan("");
  auto sorted = SortedColumns::Build(x);
  ASSERT_FALSE(sorted.ok());
  EXPECT_EQ(sorted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sorted.status().message().find("column 1"), std::string::npos)
      << sorted.status().ToString();
}

constexpr const char* kTreeLearners[] = {
    "decision_tree", "random_forest", "extra_trees",
    "gradient_boosting", "xgboost", "lgbm"};

/// Default hyper-parameters plus one variant per learner that moves off
/// the defaults (row subsampling, narrow column sampling, larger leaves).
std::vector<HyperParams> ParamVariants(const std::string& learner) {
  std::vector<HyperParams> out(2);
  HyperParams& v = out[1];
  if (learner == "decision_tree") {
    v.SetNum("max_depth", 18);
    v.SetNum("min_samples_leaf", 1);
    v.SetNum("max_features", 0.35);
  } else if (learner == "random_forest" || learner == "extra_trees") {
    v.SetNum("n_estimators", 9);
    v.SetNum("max_depth", 7);
    v.SetNum("max_features", 0.35);
    v.SetNum("min_samples_leaf", 3);
  } else {
    v.SetNum("n_estimators", 12);
    v.SetNum("subsample", 0.6);
    v.SetNum("colsample", 0.5);
    v.SetNum("min_samples_leaf", 5);
    v.SetNum("lambda", 0.3);
  }
  return out;
}

void AppendBytes(const std::vector<double>& values, std::string* out) {
  out->append(reinterpret_cast<const char*>(values.data()),
              values.size() * sizeof(double));
}

TEST(TreeLearnerDigestTest, PredictionsMatchPinnedDigest) {
  struct Fixture {
    TaskType task;
    int num_classes;
  };
  const Fixture fixtures[] = {{TaskType::kBinaryClassification, 2},
                              {TaskType::kMultiClassification, 4},
                              {TaskType::kRegression, 0}};
  std::string bytes;
  uint64_t seed = 11;
  for (const Fixture& f : fixtures) {
    const LabeledData train = MakeData(f.task, f.num_classes, 240, seed);
    const FeatureMatrix test = MakeMatrix(80, seed + 100);
    seed += 7;
    for (const char* learner : kTreeLearners) {
      for (const HyperParams& params : ParamVariants(learner)) {
        auto model = CreateLearner(learner, f.task, params, 5);
        ASSERT_TRUE(model.ok()) << learner;
        ASSERT_TRUE(model.value()->Fit(train).ok()) << learner;
        AppendBytes(model.value()->Predict(train.x), &bytes);
        AppendBytes(model.value()->Predict(test), &bytes);
      }
    }
  }
  EXPECT_EQ(StrFormat("%016llx", static_cast<unsigned long long>(
                                     Fnv1a64(bytes))),
            "8a88a70de1f41edd");
}


TEST(TreeLearnerConcurrencyTest, ForestsFitFromSeveralThreadsMatchSerial) {
  // Serve workers submit pool loops from outside the pool, and two such
  // submitters share a lane id, so forest trees must keep no per-lane
  // state. Every concurrent fit must match the serial one.
  util::ThreadPool::Configure(3);
  const LabeledData data =
      MakeData(TaskType::kMultiClassification, 4, 300, 21);
  HyperParams params;
  params.SetNum("n_estimators", 16);
  auto fit = [&](const char* learner) {
    auto model = CreateLearner(learner, data.task, params, 9);
    EXPECT_TRUE(model.ok() && model.value()->Fit(data).ok()) << learner;
    return model.value()->Predict(data.x);
  };
  const std::vector<double> forest = fit("random_forest");
  const std::vector<double> extra = fit("extra_trees");
  std::vector<std::vector<double>> results(8);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = fit(i % 2 == 0 ? "random_forest" : "extra_trees");
    });
  }
  for (std::thread& thread : threads) thread.join();
  util::ThreadPool::Configure(0);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i % 2 == 0 ? forest : extra) << "fit " << i;
  }
}

TEST(TreeLearnerNanTest, OverflowingCsvCellFailsEveryTreeLearner) {
  // "1e999" parses to +inf; standard_scaler then turns the whole column
  // into NaN. Every tree learner must refuse it with a Status rather
  // than order NaNs.
  std::string csv = "a,b,label\n";
  for (int i = 0; i < 40; ++i) {
    csv += StrFormat("%s,%d,%s\n", i == 7 ? "1e999" : std::to_string(i).c_str(),
                     i % 5, i % 3 == 0 ? "yes" : "no");
  }
  auto table = ReadCsvText(csv, CsvOptions{});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_TRUE(InferColumnTypes(&*table).ok());
  table->set_target_name("label");
  Featurizer featurizer;
  ASSERT_TRUE(
      featurizer.Fit(*table, TaskType::kBinaryClassification).ok());
  auto data = featurizer.Transform(*table);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  auto scaler = CreateTransformer("standard_scaler", HyperParams{}, 1);
  ASSERT_TRUE(scaler.ok());
  ASSERT_TRUE(scaler.value()->Fit(data->x, &data->y).ok());
  data->x = scaler.value()->Transform(data->x);
  size_t nan_cells = 0;
  for (double v : data->x.values) nan_cells += std::isnan(v) ? 1 : 0;
  ASSERT_GT(nan_cells, 0u);
  for (const char* learner : kTreeLearners) {
    auto model = CreateLearner(learner, TaskType::kBinaryClassification,
                               HyperParams{}, 3);
    ASSERT_TRUE(model.ok()) << learner;
    const Status status = model.value()->Fit(*data);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << learner;
    EXPECT_NE(status.message().find("column"), std::string::npos)
        << learner << ": " << status.ToString();
  }
}

}  // namespace
}  // namespace kgpip::ml
