#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"
#include "util/string_util.h"

namespace kgpip::ml {

double Tree::Evaluate(const double* row) const {
  if (nodes_.empty()) return 0.0;
  int idx = 0;
  while (nodes_[idx].feature >= 0) {
    const TreeNode& n = nodes_[idx];
    idx = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes_[idx].value;
}

Result<SortedColumns> SortedColumns::Build(const FeatureMatrix& x) {
  if (x.rows > UINT32_MAX) {
    return Status::InvalidArgument(
        StrFormat("%zu rows exceed the tree learners' 32-bit row index",
                  x.rows));
  }
  SortedColumns out;
  out.rows_ = x.rows;
  out.cols_ = x.cols;
  out.values_.resize(x.rows * x.cols);
  out.lists_.resize(x.rows * (x.cols + 1));
  std::vector<std::pair<double, uint32_t>> pairs(x.rows);
  for (size_t f = 0; f < x.cols; ++f) {
    double* column = out.values_.data() + f * x.rows;
    for (size_t r = 0; r < x.rows; ++r) {
      const double v = x.At(r, f);
      if (std::isnan(v)) {
        return Status::InvalidArgument(StrFormat(
            "feature column %zu is NaN at row %zu; tree learners need "
            "ordered values",
            f, r));
      }
      column[r] = v;
      pairs[r] = {v, static_cast<uint32_t>(r)};
    }
    // Ties break by row index: the order every split scan and prefix sum
    // follows.
    std::sort(pairs.begin(), pairs.end());
    uint32_t* list = out.lists_.data() + f * x.rows;
    for (size_t k = 0; k < x.rows; ++k) list[k] = pairs[k].second;
  }
  uint32_t* index_order = out.lists_.data() + x.cols * x.rows;
  std::iota(index_order, index_order + x.rows, 0u);
  return out;
}

void TreeWorkspace::Prepare(const SortedColumns& sorted,
                            const uint32_t* root, size_t size) {
  sorted_ = &sorted;
  root_ = root;
  size_ = size;
  const size_t entries = (sorted.cols() + 1) * size;
  if (ping_.size() < entries) {
    ping_.resize(entries);
    pong_.resize(entries);
  }
  if (goes_left_.size() < sorted.rows()) goes_left_.resize(sorted.rows());
}

void TreeWorkspace::SetAllRows(const SortedColumns& sorted) {
  Prepare(sorted, sorted.lists(), sorted.rows());
}

void TreeWorkspace::SetRows(const SortedColumns& sorted,
                            const std::vector<size_t>& rows) {
  const size_t n = sorted.rows();
  const size_t m = rows.size();
  std::vector<uint32_t> multiplicity(n, 0);
  for (size_t r : rows) ++multiplicity[r];
  // Each row is written kSpread times and the cursor advances by its
  // multiplicity, so no branch depends on the draw; the overrun lands in
  // the next list, which is filled afterwards, or in the slack.
  constexpr uint32_t kSpread = 4;
  owned_root_.resize((sorted.cols() + 1) * m + kSpread);
  for (size_t f = 0; f < sorted.cols(); ++f) {
    const uint32_t* src = sorted.lists() + f * n;
    uint32_t* dst = owned_root_.data() + f * m;
    for (size_t k = 0; k < n; ++k) {
      const uint32_t r = src[k];
      const uint32_t copies = multiplicity[r];
      for (uint32_t c = 0; c < kSpread; ++c) dst[c] = r;
      for (uint32_t c = kSpread; c < copies; ++c) dst[c] = r;
      dst += copies;
    }
  }
  uint32_t* given_order = owned_root_.data() + sorted.cols() * m;
  for (size_t i = 0; i < m; ++i) {
    given_order[i] = static_cast<uint32_t>(rows[i]);
  }
  Prepare(sorted, owned_root_.data(), m);
}

namespace {

/// The best cut found so far at one node.
struct Split {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

double LeafObjective(double sum_g, double sum_h, double lambda) {
  return sum_g * sum_g / (sum_h + lambda);
}

/// XGBoost-style second-order gain over per-row gradients and hessians.
class GradientCriterion {
 public:
  static constexpr double kMinGain = 0.0;

  struct Node {
    double sum_g = 0.0;
    double sum_h = 0.0;
    double objective = 0.0;
  };

  GradientCriterion(const std::vector<double>& grad,
                    const std::vector<double>& hess, double lambda)
      : grad_(grad.data()), hess_(hess.data()), lambda_(lambda) {}

  Node Summarize(const uint32_t* rows, size_t count) const {
    Node node;
    for (size_t i = 0; i < count; ++i) {
      node.sum_g += grad_[rows[i]];
      node.sum_h += hess_[rows[i]];
    }
    node.objective = LeafObjective(node.sum_g, node.sum_h, lambda_);
    return node;
  }
  bool Splittable(const Node&) const { return true; }
  double LeafValue(const Node& node) const {
    return -node.sum_g / (node.sum_h + lambda_);
  }

  /// Tries every cut between distinct neighbours of the sorted list.
  void ScanExact(const uint32_t* list, const double* column, size_t count,
                 size_t min_leaf, const Node& node, int feature,
                 Split* best) const {
    double left_g = 0.0;
    double left_h = 0.0;
    double value = column[list[0]];
    for (size_t i = 0; i + 1 < count; ++i) {
      left_g += grad_[list[i]];
      left_h += hess_[list[i]];
      const double current = value;
      value = column[list[i + 1]];
      if (current == value) continue;
      const size_t left_count = i + 1;
      if (left_count < min_leaf || count - left_count < min_leaf) continue;
      Consider(node, left_g, left_h, feature, 0.5 * (current + value), best);
    }
  }

  /// Tries the one cut at `threshold`; rows with x <= threshold are a
  /// prefix of the sorted list.
  void ScanAt(double threshold, const uint32_t* list, const double* column,
              size_t count, size_t min_leaf, const Node& node, int feature,
              Split* best) const {
    double left_g = 0.0;
    double left_h = 0.0;
    size_t left_count = 0;
    for (; left_count < count; ++left_count) {
      const uint32_t r = list[left_count];
      if (!(column[r] <= threshold)) break;
      left_g += grad_[r];
      left_h += hess_[r];
    }
    if (left_count < min_leaf || count - left_count < min_leaf) return;
    Consider(node, left_g, left_h, feature, threshold, best);
  }

 private:
  void Consider(const Node& node, double left_g, double left_h, int feature,
                double threshold, Split* best) const {
    double gain = LeafObjective(left_g, left_h, lambda_) +
                  LeafObjective(node.sum_g - left_g, node.sum_h - left_h,
                                lambda_) -
                  node.objective;
    if (gain > best->gain) *best = {feature, threshold, gain};
  }

  const double* grad_;
  const double* hess_;
  double lambda_;
};

/// Gini impurity decrease over class labels; leaves predict the majority.
class GiniCriterion {
 public:
  static constexpr double kMinGain = 1e-12;

  struct Node {
    int majority = 0;
    bool pure = false;
    double total = 0.0;
    double gini = 0.0;
  };

  GiniCriterion(const std::vector<double>& y, int num_classes)
      : y_(y.data()),
        num_classes_(num_classes),
        node_counts_(static_cast<size_t>(num_classes)),
        left_counts_(static_cast<size_t>(num_classes)),
        right_counts_(static_cast<size_t>(num_classes)) {}

  /// The node's class counts stay valid until the next Summarize; a
  /// node's split scan runs before its children are summarized.
  Node Summarize(const uint32_t* rows, size_t count) {
    std::fill(node_counts_.begin(), node_counts_.end(), 0.0);
    for (size_t i = 0; i < count; ++i) node_counts_[Label(rows[i])] += 1.0;
    Node node;
    for (int c = 1; c < num_classes_; ++c) {
      if (node_counts_[c] > node_counts_[node.majority]) node.majority = c;
    }
    node.total = static_cast<double>(count);
    node.pure = node_counts_[node.majority] == node.total;
    node.gini = Gini(node_counts_, node.total);
    return node;
  }
  bool Splittable(const Node& node) const { return !node.pure; }
  double LeafValue(const Node& node) const {
    return static_cast<double>(node.majority);
  }

  void ScanExact(const uint32_t* list, const double* column, size_t count,
                 size_t min_leaf, const Node& node, int feature,
                 Split* best) {
    std::fill(left_counts_.begin(), left_counts_.end(), 0.0);
    const double total = node.total;
    double left_total = 0.0;
    double value = column[list[0]];
    for (size_t i = 0; i + 1 < count; ++i) {
      left_counts_[Label(list[i])] += 1.0;
      left_total += 1.0;
      const double current = value;
      value = column[list[i + 1]];
      if (current == value) continue;
      if (left_total < static_cast<double>(min_leaf) ||
          total - left_total < static_cast<double>(min_leaf)) {
        continue;
      }
      double right_total = total - left_total;
      double left_gini = Gini(left_counts_, left_total);
      double right_gini = 1.0;
      for (int c = 0; c < num_classes_; ++c) {
        double p = (node_counts_[c] - left_counts_[c]) / right_total;
        right_gini -= p * p;
      }
      double gain = node.gini - (left_total / total) * left_gini -
                    (right_total / total) * right_gini;
      if (gain > best->gain) *best = {feature, 0.5 * (current + value), gain};
    }
  }

  void ScanAt(double threshold, const uint32_t* list, const double* column,
              size_t count, size_t min_leaf, const Node& node, int feature,
              Split* best) {
    std::fill(left_counts_.begin(), left_counts_.end(), 0.0);
    const double total = node.total;
    double left_total = 0.0;
    for (size_t k = 0; k < count; ++k) {
      const uint32_t r = list[k];
      if (!(column[r] <= threshold)) break;
      left_counts_[Label(r)] += 1.0;
      left_total += 1.0;
    }
    if (left_total < static_cast<double>(min_leaf) ||
        total - left_total < static_cast<double>(min_leaf)) {
      return;
    }
    for (int c = 0; c < num_classes_; ++c) {
      right_counts_[c] = node_counts_[c] - left_counts_[c];
    }
    double gain = node.gini -
                  (left_total / total) * Gini(left_counts_, left_total) -
                  ((total - left_total) / total) *
                      Gini(right_counts_, total - left_total);
    if (gain > best->gain) *best = {feature, threshold, gain};
  }

 private:
  double Gini(const std::vector<double>& counts, double total) const {
    if (total <= 0.0) return 0.0;
    double g = 1.0;
    for (double c : counts) {
      double p = c / total;
      g -= p * p;
    }
    return g;
  }
  size_t Label(uint32_t row) const { return static_cast<size_t>(y_[row]); }

  const double* y_;
  int num_classes_;
  std::vector<double> node_counts_;
  std::vector<double> left_counts_;
  std::vector<double> right_counts_;
};

}  // namespace

/// Grows one tree depth-first in preorder, so feature sampling and random
/// thresholds draw from the Rng in the node order the reference builder
/// in tests/tree_test.cc uses. A node owns positions [begin, end) of every
/// list, in whichever buffer its parent partitioned it into.
class TreeBuilder {
 public:
  TreeBuilder(const SortedColumns& sorted, const TreeParams& params,
              Rng* rng, TreeWorkspace* ws, std::vector<TreeNode>* nodes)
      : sorted_(sorted),
        params_(params),
        rng_(rng),
        ws_(ws),
        nodes_(nodes),
        cols_(sorted.cols()),
        stride_(ws->size_),
        active_(cols_),
        active_count_{cols_},
        active_at_(cols_, -1) {
    KGPIP_CHECK(ws->sorted_ == &sorted);
    std::iota(active_.begin(), active_.end(), 0);
  }

  template <typename Criterion>
  void Grow(Criterion criterion) {
    if (stride_ > 0) Build(criterion, ws_->root_, 0, stride_, 0);
  }

 private:
  template <typename Criterion>
  int Build(Criterion& criterion, const uint32_t* lists, size_t begin,
            size_t end, int depth) {
    const size_t count = end - begin;
    const typename Criterion::Node node =
        criterion.Summarize(lists + cols_ * stride_ + begin, count);
    const int node_index = static_cast<int>(nodes_->size());
    nodes_->push_back(TreeNode{});
    Split best;
    if (criterion.Splittable(node) && MaySplit(count, depth)) {
      FindActive(lists, begin, end, depth, node_index);
      best = FindSplit(criterion, node, lists, begin, end, node_index);
    }
    if (best.feature >= 0 && best.gain > Criterion::kMinGain) {
      const size_t left_count =
          MarkSides(lists, begin, end, best.feature, best.threshold);
      const size_t min_leaf = static_cast<size_t>(params_.min_samples_leaf);
      if (left_count >= min_leaf && count - left_count >= min_leaf) {
        (*nodes_)[node_index].feature = best.feature;
        (*nodes_)[node_index].threshold = best.threshold;
        const size_t mid = begin + left_count;
        const uint32_t* next = Partition(
            lists, begin, end, left_count, depth,
            MaySplit(left_count, depth + 1) ||
                MaySplit(count - left_count, depth + 1));
        int left = Build(criterion, next, begin, mid, depth + 1);
        int right = Build(criterion, next, mid, end, depth + 1);
        (*nodes_)[node_index].left = left;
        (*nodes_)[node_index].right = right;
        return node_index;
      }
    }
    (*nodes_)[node_index].value = criterion.LeafValue(node);
    return node_index;
  }

  template <typename Criterion>
  Split FindSplit(Criterion& criterion,
                  const typename Criterion::Node& node,
                  const uint32_t* lists, size_t begin, size_t end,
                  int node_index) {
    Split best;
    const size_t count = end - begin;
    const size_t min_leaf = static_cast<size_t>(params_.min_samples_leaf);
    for (int f : SampleFeatures()) {
      if (active_at_[static_cast<size_t>(f)] != node_index) continue;
      const uint32_t* list = List(lists, f, begin);
      const double* column = sorted_.column(static_cast<size_t>(f));
      if (params_.random_thresholds) {
        const double threshold =
            rng_->Uniform(column[list[0]], column[list[count - 1]]);
        criterion.ScanAt(threshold, list, column, count, min_leaf, node, f,
                         &best);
      } else {
        criterion.ScanExact(list, column, count, min_leaf, node, f, &best);
      }
    }
    return best;
  }

  const uint32_t* List(const uint32_t* lists, size_t feature,
                       size_t begin) const {
    return lists + feature * stride_ + begin;
  }

  /// Keeps the parent's non-constant features that are still non-constant
  /// here (a constant column stays constant in every child). The split
  /// scan skips the rest, which offer no cut and draw no random
  /// threshold, and only these lists are partitioned further.
  void FindActive(const uint32_t* lists, size_t begin, size_t end,
                  int depth, int node_index) {
    const size_t rows = static_cast<size_t>(depth) + 2;
    if (active_count_.size() < rows) {
      active_count_.resize(rows);
      active_.resize(rows * cols_);
    }
    const int* parent = active_.data() + depth * cols_;
    int* own = active_.data() + (depth + 1) * cols_;
    size_t num_active = 0;
    for (size_t i = 0; i < active_count_[depth]; ++i) {
      const size_t f = static_cast<size_t>(parent[i]);
      const uint32_t* list = List(lists, f, begin);
      const double* column = sorted_.column(f);
      if (column[list[0]] == column[list[end - begin - 1]]) continue;
      own[num_active++] = parent[i];
      active_at_[f] = node_index;
    }
    active_count_[depth + 1] = num_active;
  }

  /// Chooses the features scanned at one split; the same draws as
  /// shuffling a fresh 0..cols-1 vector.
  const std::vector<int>& SampleFeatures() {
    std::vector<int>& all = features_;
    all.resize(cols_);
    std::iota(all.begin(), all.end(), 0);
    if (params_.max_features <= 0.0 || params_.max_features >= 1.0) {
      return all;
    }
    size_t keep = std::max<size_t>(
        1, static_cast<size_t>(std::lround(
               params_.max_features * static_cast<double>(cols_))));
    rng_->Shuffle(all);
    all.resize(keep);
    return all;
  }

  /// Sends each row of node [begin, end) to the side `x <= threshold`
  /// picks and returns the left count (with multiplicity).
  size_t MarkSides(const uint32_t* lists, size_t begin, size_t end,
                   int feature, double threshold) {
    const uint32_t* list = List(lists, static_cast<size_t>(feature), begin);
    const double* column = sorted_.column(static_cast<size_t>(feature));
    uint8_t* goes_left = ws_->goes_left_.data();
    size_t left = 0;
    for (size_t k = 0; k < end - begin; ++k) {
      const uint32_t r = list[k];
      goes_left[r] = column[r] <= threshold;
      left += goes_left[r];
    }
    return left;
  }

  /// True if a node of this size at this depth may still split. (An
  /// empty node, possible only with min_samples_leaf 0, never does.)
  bool MaySplit(size_t count, int depth) const {
    return count > 0 && depth < params_.max_depth &&
           count >= static_cast<size_t>(params_.min_samples_split);
  }

  /// Stably partitions node [begin, end) into the other buffer: left rows
  /// to [begin, begin + left_count), right rows after. Partitions the
  /// given-order list always and the node's non-constant feature lists
  /// only if a child may split. Returns the children's buffer.
  const uint32_t* Partition(const uint32_t* lists, size_t begin, size_t end,
                            size_t left_count, int depth, bool features) {
    uint32_t* next =
        lists == ws_->ping_.data() ? ws_->pong_.data() : ws_->ping_.data();
    const uint8_t* goes_left = ws_->goes_left_.data();
    auto partition = [&](size_t l) {
      const uint32_t* src = lists + l * stride_ + begin;
      uint32_t* dst = next + l * stride_ + begin;
      // Branch-free: the side is a coin flip the predictor cannot learn.
      size_t num_left = 0;
      for (size_t k = 0; k < end - begin; ++k) {
        const uint32_t r = src[k];
        const size_t is_left = goes_left[r];
        const size_t to_left = num_left;
        const size_t to_right = left_count + k - num_left;
        dst[to_right ^ ((to_left ^ to_right) & (0 - is_left))] = r;
        num_left += is_left;
      }
    };
    partition(cols_);
    if (features) {
      const int* active = active_.data() + (depth + 1) * cols_;
      for (size_t i = 0; i < active_count_[depth + 1]; ++i) {
        partition(static_cast<size_t>(active[i]));
      }
    }
    return next;
  }

  const SortedColumns& sorted_;
  const TreeParams& params_;
  Rng* rng_;
  TreeWorkspace* ws_;
  std::vector<TreeNode>* nodes_;
  const size_t cols_;
  const size_t stride_;
  std::vector<int> features_;
  // Row d + 1 lists the non-constant features of the node being split at
  // depth d; row 0 seeds the root with every feature. active_at_ holds
  // the last node each feature was non-constant in.
  std::vector<int> active_;
  std::vector<size_t> active_count_;
  std::vector<int> active_at_;
};

Tree FitGradientTree(const SortedColumns& sorted,
                     const std::vector<double>& grad,
                     const std::vector<double>& hess,
                     const TreeParams& params, Rng* rng,
                     TreeWorkspace* workspace) {
  KGPIP_CHECK(grad.size() == sorted.rows() && hess.size() == sorted.rows());
  Tree tree;
  TreeBuilder(sorted, params, rng, workspace, &tree.mutable_nodes())
      .Grow(GradientCriterion(grad, hess, params.lambda));
  return tree;
}

Tree FitClassificationTree(const SortedColumns& sorted,
                           const std::vector<double>& y, int num_classes,
                           const TreeParams& params, Rng* rng,
                           TreeWorkspace* workspace) {
  KGPIP_CHECK(y.size() == sorted.rows());
  Tree tree;
  TreeBuilder(sorted, params, rng, workspace, &tree.mutable_nodes())
      .Grow(GiniCriterion(y, num_classes));
  return tree;
}

DecisionTreeLearner::DecisionTreeLearner(TaskType task,
                                         const HyperParams& params,
                                         uint64_t seed)
    : task_(task), rng_(seed) {
  tree_params_.max_depth = params.GetInt("max_depth", 10);
  tree_params_.min_samples_leaf = params.GetInt("min_samples_leaf", 2);
  tree_params_.min_samples_split =
      params.GetInt("min_samples_split",
                    2 * tree_params_.min_samples_leaf);
  tree_params_.max_features = params.GetNum("max_features", 1.0);
}

Status DecisionTreeLearner::Fit(const LabeledData& data) {
  if (data.rows() == 0) return Status::InvalidArgument("empty dataset");
  Result<SortedColumns> sorted = SortedColumns::Build(data.x);
  if (!sorted.ok()) return sorted.status();
  TreeWorkspace workspace;
  workspace.SetAllRows(*sorted);
  if (IsClassification(task_)) {
    tree_ = FitClassificationTree(*sorted, data.y, data.num_classes,
                                  tree_params_, &rng_, &workspace);
  } else {
    // Least-squares regression tree: g = -y, h = 1 gives mean leaves.
    std::vector<double> grad(data.rows());
    std::vector<double> hess(data.rows(), 1.0);
    for (size_t i = 0; i < data.rows(); ++i) grad[i] = -data.y[i];
    TreeParams p = tree_params_;
    p.lambda = 0.0;
    tree_ = FitGradientTree(*sorted, grad, hess, p, &rng_, &workspace);
  }
  fitted_ = true;
  return Status::Ok();
}

std::vector<double> DecisionTreeLearner::Predict(
    const FeatureMatrix& x) const {
  KGPIP_CHECK(fitted_);
  std::vector<double> out(x.rows);
  for (size_t r = 0; r < x.rows; ++r) out[r] = tree_.Evaluate(x.Row(r));
  return out;
}

}  // namespace kgpip::ml
