#ifndef KGPIP_NN_AUTOGRAD_H_
#define KGPIP_NN_AUTOGRAD_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nn/matrix.h"

namespace kgpip::nn {

class Tape;

/// One node of the dynamically built computation graph. Nodes live on a
/// Tape (ops) or in a ParamStore (parameters); handles are raw pointers.
struct VarNode {
  Matrix value;
  Matrix grad;  // same shape as value once Backward reaches the node
  bool requires_grad = false;
  /// Parents in the order Backward's depth-first walk visits them.
  std::array<VarNode*, 3> parents{};
  size_t num_parents = 0;
  /// Accumulates this node's grad into its parents' grads. Null on
  /// leaves and on nodes no gradient-requiring input reaches.
  void (*backward)(VarNode& self) = nullptr;
  /// Owning tape; null for ParamStore parameters.
  Tape* tape = nullptr;
  /// Backward call that last visited this node (per-call visit mark).
  uint64_t visit = 0;

  // Op state read by `backward`; reused with the node.
  std::vector<size_t> indices;  // gathered/scattered rows; softmax targets
  Matrix aux;                   // softmax probabilities; a weight's W^T
  uint64_t aux_visit = 0;       // Backward call that packed `aux` as W^T
  double scalar = 0.0;          // Scale's factor; BCE's sigmoid(logit)
  double target = 0.0;          // BCE's target
  size_t split = 0;             // Concat*: rows/cols of the first operand
};

/// Arena the ops record their nodes on. `Clear` forgets the recorded
/// graph but keeps its nodes and buffers, so the next graph of a similar
/// shape (the next training example) is built without touching the heap.
/// Value and grad buffers are pooled by exact element count. After a
/// Clear the pool holds at most as many buffer bytes as the largest
/// graph ever recorded on the tape: buffers the cleared graph did not
/// take are freed until that bound holds. A tape is single-threaded:
/// record, run Backward and Clear on one thread at a time.
class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Releases every node recorded since the last Clear; handles into
  /// them dangle afterwards.
  void Clear();

  /// Bytes of value/grad buffers the tape holds (in use plus pooled).
  size_t BufferBytes() const;

  // ---- Internal: used by the ops and Backward. ----
  VarNode* NewNode();
  /// A rows x cols matrix from the pool (contents unspecified).
  Matrix TakeMatrix(size_t rows, size_t cols);
  /// MatMul's packed B^T for dA, reused across calls.
  Matrix scratch;
  std::vector<VarNode*> order;
  std::vector<std::pair<VarNode*, size_t>> stack;

 private:
  void Recycle(Matrix* m);

  /// Buffers of one element count: the free ones, and how many the
  /// current graph took.
  struct SizeClass {
    std::vector<Matrix> free;
    size_t taken = 0;
  };

  std::vector<std::unique_ptr<VarNode>> nodes_;
  size_t used_ = 0;
  std::unordered_map<size_t, SizeClass> pool_;
  size_t pooled_elems_ = 0;
  /// Buffer elements of the largest graph recorded so far.
  size_t max_graph_elems_ = 0;
};

/// Makes `tape` the one ops record onto on this thread until the scope
/// ends. Scopes nest; recording an op with no scope open is an error.
class TapeScope {
 public:
  explicit TapeScope(Tape* tape);
  ~TapeScope();
  TapeScope(const TapeScope&) = delete;
  TapeScope& operator=(const TapeScope&) = delete;

 private:
  Tape* previous_;
};

/// Handle to a computation-graph node. Cheap to copy; valid until its
/// tape is cleared (or its ParamStore destroyed).
///
/// A define-by-run reverse-mode autograd: every op records a node
/// holding the forward value and a backward function that accumulates
/// into its parents; `Backward` runs them in reverse topological order.
/// It is deliberately small — the DeepGMG generator only needs dense
/// matrix ops — but gradient-checked in tests.
class Var {
 public:
  Var() = default;
  explicit Var(VarNode* node) : node_(node) {}
  /// A leaf on the active tape holding a copy of `value`.
  explicit Var(const Matrix& value, bool requires_grad = false);

  /// A rows x cols constant on the active tape, every element `fill`.
  static Var Constant(size_t rows, size_t cols, double fill = 0.0);

  const Matrix& value() const { return node_->value; }
  Matrix& mutable_value() { return node_->value; }
  const Matrix& grad() const { return node_->grad; }
  bool defined() const { return node_ != nullptr; }
  size_t rows() const { return node_->value.rows(); }
  size_t cols() const { return node_->value.cols(); }
  VarNode* node() const { return node_; }

  void ZeroGrad();

 private:
  VarNode* node_ = nullptr;
};

/// Runs reverse-mode accumulation from `loss` (must be 1x1, on a tape).
/// Every node the loss reaches through gradient-requiring inputs —
/// parameters included — has its grad reset to zero first, so after the
/// call a parameter's grad is exactly d(loss)/d(parameter). Calls whose
/// graphs share parameters must not run concurrently.
void Backward(const Var& loss);

// ---- Ops -------------------------------------------------------------

Var MatMul(const Var& a, const Var& b);
/// x * w + b with `b` a 1 x cols row broadcast over every output row —
/// one node whose backward adds the bias rows, then x's gradient, then
/// w's, the order separate MatMul and broadcast-add nodes would run in.
Var Affine(const Var& x, const Var& w, const Var& b);
Var Add(const Var& a, const Var& b);            // same shape
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);            // elementwise
Var Scale(const Var& a, double s);
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Transpose(const Var& a);
Var ConcatCols(const Var& a, const Var& b);
Var ConcatRows(const Var& a, const Var& b);
Var GatherRows(const Var& a, const std::vector<size_t>& indices);
/// Inverse of GatherRows: out has `num_rows` rows; row indices[i] of the
/// output accumulates row i of `a` (used for message aggregation).
Var ScatterAddRows(const Var& a, const std::vector<size_t>& indices,
                   size_t num_rows);
Var SumRows(const Var& a);   // n x d -> 1 x d
Var SumAll(const Var& a);    // -> 1 x 1
Var MeanAll(const Var& a);   // -> 1 x 1

/// Numerically stable fused softmax + cross entropy over each row of
/// `logits` against integer `targets` (one per row); returns mean loss
/// (1x1).
Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int>& targets);

/// Stable sigmoid + binary cross entropy on a 1x1 logit.
Var BinaryCrossEntropyWithLogits(const Var& logit, double target);

}  // namespace kgpip::nn

#endif  // KGPIP_NN_AUTOGRAD_H_
