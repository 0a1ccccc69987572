#ifndef KGPIP_ML_TREE_H_
#define KGPIP_ML_TREE_H_

#include <cstdint>
#include <vector>

#include "ml/learner.h"
#include "util/rng.h"

namespace kgpip::ml {

/// One node of a binary decision tree, stored in a flat vector.
struct TreeNode {
  int feature = -1;        // -1 marks a leaf
  double threshold = 0.0;  // go left when x[feature] <= threshold
  int left = -1;
  int right = -1;
  double value = 0.0;      // leaf prediction (class index or score)
};

/// Shared tree-construction knobs.
struct TreeParams {
  int max_depth = 10;
  int min_samples_leaf = 2;
  int min_samples_split = 4;
  /// Fraction of features examined per split (<=0 or >=1: all).
  double max_features = 1.0;
  /// Extra-trees style: draw one random threshold per feature instead of
  /// scanning every cut point.
  bool random_thresholds = false;
  /// L2 regularization on leaf values (gradient trees only).
  double lambda = 1.0;
};

/// A fitted tree; Evaluate routes a row to its leaf value.
class Tree {
 public:
  double Evaluate(const double* row) const;
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  bool empty() const { return nodes_.empty(); }

  std::vector<TreeNode>& mutable_nodes() { return nodes_; }

 private:
  std::vector<TreeNode> nodes_;
};

/// Every feature column of one matrix, sorted once. Built per learner fit
/// and shared read-only by all of that fit's trees: GBDT rounds and class
/// trees, and forest trees on every pool lane.
class SortedColumns {
 public:
  /// Fails with InvalidArgument naming the first feature column that
  /// holds a NaN, which has no place in a (value, row) order.
  static Result<SortedColumns> Build(const FeatureMatrix& x);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Feature f's values indexed by row (a column-major copy of x).
  const double* column(size_t f) const { return values_.data() + f * rows_; }
  /// cols() + 1 lists of rows() entries: list f < cols() holds every row
  /// in ascending (value, row) order of feature f, and the last list holds
  /// the rows in index order.
  const uint32_t* lists() const { return lists_.data(); }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> values_;
  std::vector<uint32_t> lists_;
};

/// The root row lists of one tree plus the buffers its splits partition
/// them into, in the layout of SortedColumns::lists(). A fit leaves the
/// root intact, so consecutive trees may reuse it; trees fitted at the
/// same time need one workspace each. `sorted` must outlive those fits.
class TreeWorkspace {
 public:
  /// Root = every row once, in index order; shares `sorted`'s lists.
  void SetAllRows(const SortedColumns& sorted);
  /// Root = the multiset `rows`; a row drawn k times appears k times in
  /// every list. Leaf sums accumulate in the order given.
  void SetRows(const SortedColumns& sorted, const std::vector<size_t>& rows);

 private:
  friend class TreeBuilder;

  void Prepare(const SortedColumns& sorted, const uint32_t* root,
               size_t size);

  const SortedColumns* sorted_ = nullptr;
  const uint32_t* root_ = nullptr;
  size_t size_ = 0;  // entries per list
  std::vector<uint32_t> owned_root_;
  // A node's children land in the buffer its own lists are not in, so
  // the root is never written and siblings never overlap.
  std::vector<uint32_t> ping_;
  std::vector<uint32_t> pong_;
  std::vector<uint8_t> goes_left_;  // by row: the side of the current split
};

/// Fits a gradient tree in the XGBoost formulation on the workspace's root
/// rows: each row carries a gradient g_i and hessian h_i; leaves predict
/// -sum(g)/(sum(h)+lambda) and splits maximize the matching gain. With
/// g = -(residual) and h = 1 this reduces to a plain least-squares
/// regression tree predicting the mean.
Tree FitGradientTree(const SortedColumns& sorted,
                     const std::vector<double>& grad,
                     const std::vector<double>& hess,
                     const TreeParams& params, Rng* rng,
                     TreeWorkspace* workspace);

/// Fits a Gini-impurity classification tree on the workspace's root rows;
/// leaves predict the majority class index.
Tree FitClassificationTree(const SortedColumns& sorted,
                           const std::vector<double>& y, int num_classes,
                           const TreeParams& params, Rng* rng,
                           TreeWorkspace* workspace);

/// Single CART decision tree exposed through the Learner interface.
class DecisionTreeLearner : public Learner {
 public:
  DecisionTreeLearner(TaskType task, const HyperParams& params,
                      uint64_t seed);

  Status Fit(const LabeledData& data) override;
  std::vector<double> Predict(const FeatureMatrix& x) const override;
  std::string name() const override { return "decision_tree"; }

 private:
  TaskType task_;
  TreeParams tree_params_;
  Rng rng_;
  Tree tree_;
  bool fitted_ = false;
};

}  // namespace kgpip::ml

#endif  // KGPIP_ML_TREE_H_
