#include "nn/autograd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "nn/inference.h"
#include "nn/simd_kernels.h"
#include "util/logging.h"

namespace kgpip::nn {

namespace {

thread_local Tape* t_active_tape = nullptr;

/// Backward calls are numbered process-wide, so a visit mark or a packed
/// W^T left by one call never matches another.
std::atomic<uint64_t> g_backward_calls{0};

Tape& ActiveTape() {
  KGPIP_CHECK(t_active_tape != nullptr) << "op recorded outside a TapeScope";
  return *t_active_tape;
}

}  // namespace

// ---- Tape --------------------------------------------------------------

VarNode* Tape::NewNode() {
  if (used_ == nodes_.size()) {
    nodes_.push_back(std::make_unique<VarNode>());
    nodes_.back()->tape = this;
  }
  return nodes_[used_++].get();
}

Matrix Tape::TakeMatrix(size_t rows, size_t cols) {
  const size_t elems = rows * cols;
  SizeClass& size_class = pool_[elems];
  Matrix m;
  if (!size_class.free.empty()) {
    m = std::move(size_class.free.back());
    size_class.free.pop_back();
    pooled_elems_ -= elems;
  }
  m.Reshape(rows, cols);  // a pooled buffer already holds `elems`
  ++size_class.taken;
  return m;
}

void Tape::Recycle(Matrix* m) {
  const size_t elems = m->size();
  if (elems > 0) {
    pool_[elems].free.push_back(std::move(*m));
    pooled_elems_ += elems;
  }
  *m = Matrix();
}

void Tape::Clear() {
  for (size_t i = 0; i < used_; ++i) {
    VarNode& node = *nodes_[i];
    Recycle(&node.value);
    Recycle(&node.grad);
    node.requires_grad = false;
    node.parents = {};
    node.num_parents = 0;
    node.backward = nullptr;
    node.aux_visit = 0;
  }
  used_ = 0;
  // Every buffer is free now. Keep at most the largest graph's worth,
  // dropping only buffers this graph did not take.
  size_t graph_elems = 0;
  for (const auto& [elems, size_class] : pool_) {
    graph_elems += elems * size_class.taken;
  }
  max_graph_elems_ = std::max(max_graph_elems_, graph_elems);
  for (auto& [elems, size_class] : pool_) {
    while (size_class.free.size() > size_class.taken &&
           pooled_elems_ > max_graph_elems_) {
      size_class.free.pop_back();
      pooled_elems_ -= elems;
    }
    size_class.taken = 0;
  }
}

size_t Tape::BufferBytes() const {
  size_t elems = pooled_elems_;
  for (size_t i = 0; i < used_; ++i) {
    elems += nodes_[i]->value.CapacityElems();
    elems += nodes_[i]->grad.CapacityElems();
  }
  return elems * sizeof(double);
}

TapeScope::TapeScope(Tape* tape) : previous_(t_active_tape) {
  t_active_tape = tape;
}

TapeScope::~TapeScope() { t_active_tape = previous_; }

// ---- Var ---------------------------------------------------------------

namespace {

/// Records a node whose parents are `parents`; it gets a backward pass
/// only if some parent needs a gradient.
VarNode* Record(std::initializer_list<VarNode*> parents,
                void (*backward)(VarNode&)) {
  VarNode* node = ActiveTape().NewNode();
  bool any_grad = false;
  for (VarNode* p : parents) {
    KGPIP_CHECK(p != nullptr);
    node->parents[node->num_parents++] = p;
    any_grad = any_grad || p->requires_grad;
  }
  node->requires_grad = any_grad;
  if (any_grad) node->backward = backward;
  return node;
}

/// Sizes `node`'s value from its tape's pool (contents unspecified).
Matrix& Output(VarNode* node, size_t rows, size_t cols) {
  node->value = node->tape->TakeMatrix(rows, cols);
  return node->value;
}

/// Sizes the grad to the value's shape (contents unspecified if new).
void EnsureGrad(VarNode* node) {
  if (node->grad.SameShape(node->value)) return;
  if (node->tape != nullptr && node->grad.CapacityElems() == 0) {
    node->grad = node->tape->TakeMatrix(node->value.rows(),
                                        node->value.cols());
  } else {
    node->grad.Reshape(node->value.rows(), node->value.cols());
  }
}

void AddInto(const Matrix& src, Matrix* dst) {
  KGPIP_CHECK(dst->SameShape(src));
  double* d = dst->data();
  const double* s = src.data();
  for (size_t i = 0; i < src.size(); ++i) d[i] += s[i];
}

/// out = m^T.
void TransposeInto(const Matrix& m, Matrix* out) {
  out->Reshape(m.cols(), m.rows());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) (*out)(j, i) = m(i, j);
  }
}

/// grad += a * b, or a^T * b with `transpose_a` (a^T read in place).
/// Each product element is one ascending-k chain from +0.0 that skips
/// zero terms of `a`, finished in registers and added once: the bits of
/// the plain dot product added to the gradient (DESIGN.md §17).
void AddProduct(const Matrix& a, bool transpose_a, const Matrix& b,
                Matrix* grad) {
  const size_t rows = transpose_a ? a.cols() : a.rows();
  const size_t inner = transpose_a ? a.rows() : a.cols();
  KGPIP_CHECK(inner == b.rows() && grad->rows() == rows &&
              grad->cols() == b.cols());
  simd::Gemm(simd::ActiveIsa(), simd::GemmMode::kAdd, a.data(),
             transpose_a ? 1 : a.cols(), transpose_a ? a.cols() : 1, b.data(),
             grad->data(), rows, inner, b.cols());
}

/// The Backward call running on this thread (0 outside Backward).
thread_local uint64_t t_backward_call = 0;

/// w^T, packed once per Backward call into w's aux buffer.
const Matrix& TransposedOnce(VarNode* w) {
  if (w->aux_visit != t_backward_call) {
    TransposeInto(w->value, &w->aux);
    w->aux_visit = t_backward_call;
  }
  return w->aux;
}

}  // namespace

Var::Var(const Matrix& value, bool requires_grad) {
  node_ = Record({}, nullptr);
  Output(node_, value.rows(), value.cols());
  if (value.size() > 0) {
    std::memcpy(node_->value.data(), value.data(),
                value.size() * sizeof(double));
  }
  node_->requires_grad = requires_grad;
}

Var Var::Constant(size_t rows, size_t cols, double fill) {
  Var out(Record({}, nullptr));
  Output(out.node_, rows, cols).Fill(fill);
  return out;
}

void Var::ZeroGrad() {
  EnsureGrad(node_);
  node_->grad.Fill(0.0);
}

void Backward(const Var& loss) {
  KGPIP_CHECK(loss.defined());
  KGPIP_CHECK(loss.value().rows() == 1 && loss.value().cols() == 1)
      << "Backward expects a scalar loss";
  VarNode* root = loss.node();
  KGPIP_CHECK(root->tape != nullptr) << "Backward expects a recorded loss";
  const uint64_t call =
      g_backward_calls.fetch_add(1, std::memory_order_relaxed) + 1;
  // Iterative depth-first post-order (graphs can be deep for long
  // generation sequences, so recursion is off the table). The visit mark
  // replaces a visited set; the order decides how each gradient's terms
  // are summed, so it must not change.
  std::vector<VarNode*>& order = root->tape->order;
  std::vector<std::pair<VarNode*, size_t>>& stack = root->tape->stack;
  order.clear();
  stack.clear();
  stack.emplace_back(root, 0);
  root->visit = call;
  while (!stack.empty()) {
    auto& [node, child_index] = stack.back();
    if (child_index < node->num_parents) {
      VarNode* parent = node->parents[child_index];
      ++child_index;
      if (parent->requires_grad && parent->visit != call) {
        parent->visit = call;
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // `order` is post-order: parents before children; iterate in reverse.
  for (VarNode* node : order) {
    EnsureGrad(node);
    node->grad.Fill(0.0);
  }
  root->grad(0, 0) = 1.0;
  t_backward_call = call;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarNode* node = *it;
    if (node->backward) node->backward(*node);
  }
  t_backward_call = 0;
}

// ---- Ops ---------------------------------------------------------------
//
// Backward functions add into a parent's grad only when the parent
// requires one: Backward zeroed exactly those grads.

Var MatMul(const Var& a, const Var& b) {
  VarNode* node = Record({a.node(), b.node()}, [](VarNode& self) {
    VarNode* pa = self.parents[0];
    VarNode* pb = self.parents[1];
    if (pa->requires_grad) {  // dA = G * B^T, B^T packed into scratch
      TransposeInto(pb->value, &self.tape->scratch);
      AddProduct(self.grad, /*transpose_a=*/false, self.tape->scratch,
                 &pa->grad);
    }
    if (pb->requires_grad) {  // dB = A^T * G
      AddProduct(pa->value, /*transpose_a=*/true, self.grad, &pb->grad);
    }
  });
  Output(node, a.rows(), b.cols());
  Matrix::MatMulInto(a.value(), b.value(), &node->value);
  return Var(node);
}

Var Affine(const Var& x, const Var& w, const Var& b) {
  VarNode* node = Record({x.node(), w.node(), b.node()}, [](VarNode& self) {
    VarNode* px = self.parents[0];
    VarNode* pw = self.parents[1];
    VarNode* pb = self.parents[2];
    const Matrix& g = self.grad;
    if (pb->requires_grad) {  // bias rows, top to bottom
      const simd::Isa isa = simd::ActiveIsa();
      for (size_t i = 0; i < g.rows(); ++i) {
        simd::BiasRows(isa, pb->grad.data(), g.data() + i * g.cols(), 1,
                       g.cols());
      }
    }
    if (px->requires_grad) {  // dX = G * W^T
      AddProduct(g, /*transpose_a=*/false, TransposedOnce(pw), &px->grad);
    }
    if (pw->requires_grad) {  // dW = X^T * G
      AddProduct(px->value, /*transpose_a=*/true, g, &pw->grad);
    }
  });
  Output(node, x.rows(), w.cols());
  FusedLinear(x.value(), w.value(), b.value(), Activation::kNone,
              &node->value);
  return Var(node);
}

Var Add(const Var& a, const Var& b) {
  KGPIP_CHECK(a.value().SameShape(b.value()));
  VarNode* node = Record({a.node(), b.node()}, [](VarNode& self) {
    for (size_t p = 0; p < 2; ++p) {
      if (self.parents[p]->requires_grad) {
        AddInto(self.grad, &self.parents[p]->grad);
      }
    }
  });
  Matrix& value = Output(node, a.rows(), a.cols());
  for (size_t i = 0; i < value.size(); ++i) {
    value.data()[i] = a.value().data()[i] + b.value().data()[i];
  }
  return Var(node);
}

Var Sub(const Var& a, const Var& b) {
  KGPIP_CHECK(a.value().SameShape(b.value()));
  VarNode* node = Record({a.node(), b.node()}, [](VarNode& self) {
    if (self.parents[0]->requires_grad) {
      AddInto(self.grad, &self.parents[0]->grad);
    }
    if (self.parents[1]->requires_grad) {
      self.parents[1]->grad.AddScaled(self.grad, -1.0);
    }
  });
  Matrix& value = Output(node, a.rows(), a.cols());
  // a + (-1) * b is exactly a - b in IEEE arithmetic.
  for (size_t i = 0; i < value.size(); ++i) {
    value.data()[i] = a.value().data()[i] + -1.0 * b.value().data()[i];
  }
  return Var(node);
}

Var Mul(const Var& a, const Var& b) {
  KGPIP_CHECK(a.value().SameShape(b.value()));
  VarNode* node = Record({a.node(), b.node()}, [](VarNode& self) {
    VarNode* pa = self.parents[0];
    VarNode* pb = self.parents[1];
    const double* g = self.grad.data();
    const double* a = pa->value.data();
    const double* b = pb->value.data();
    // Per element: a's term first, then b's (they may be one node).
    for (size_t i = 0; i < self.grad.size(); ++i) {
      if (pa->requires_grad) pa->grad.data()[i] += g[i] * b[i];
      if (pb->requires_grad) pb->grad.data()[i] += g[i] * a[i];
    }
  });
  Matrix& value = Output(node, a.rows(), a.cols());
  simd::MulN(simd::ActiveIsa(), a.value().data(), b.value().data(),
             value.data(), value.size());
  return Var(node);
}

Var Scale(const Var& a, double s) {
  VarNode* node = Record({a.node()}, [](VarNode& self) {
    if (self.parents[0]->requires_grad) {
      self.parents[0]->grad.AddScaled(self.grad, self.scalar);
    }
  });
  node->scalar = s;
  Matrix& value = Output(node, a.rows(), a.cols());
  for (size_t i = 0; i < value.size(); ++i) {
    value.data()[i] = a.value().data()[i] * s;
  }
  return Var(node);
}

Var Sigmoid(const Var& a) {
  VarNode* node = Record({a.node()}, [](VarNode& self) {
    if (self.parents[0]->requires_grad) {
      simd::SigmoidGradN(simd::ActiveIsa(), self.grad.data(),
                         self.value.data(), self.parents[0]->grad.data(),
                         self.grad.size());
    }
  });
  Matrix& value = Output(node, a.rows(), a.cols());
  std::copy_n(a.value().data(), value.size(), value.data());
  SigmoidInPlace(&value);
  return Var(node);
}

Var Tanh(const Var& a) {
  VarNode* node = Record({a.node()}, [](VarNode& self) {
    if (self.parents[0]->requires_grad) {
      simd::TanhGradN(simd::ActiveIsa(), self.grad.data(), self.value.data(),
                      self.parents[0]->grad.data(), self.grad.size());
    }
  });
  Matrix& value = Output(node, a.rows(), a.cols());
  std::copy_n(a.value().data(), value.size(), value.data());
  TanhInPlace(&value);
  return Var(node);
}

Var Transpose(const Var& a) {
  VarNode* node = Record({a.node()}, [](VarNode& self) {
    if (!self.parents[0]->requires_grad) return;
    Matrix& g = self.parents[0]->grad;
    for (size_t i = 0; i < g.rows(); ++i) {
      for (size_t j = 0; j < g.cols(); ++j) g(i, j) += self.grad(j, i);
    }
  });
  Output(node, a.cols(), a.rows());
  TransposeInto(a.value(), &node->value);
  return Var(node);
}

Var ConcatCols(const Var& a, const Var& b) {
  KGPIP_CHECK(a.rows() == b.rows());
  VarNode* node = Record({a.node(), b.node()}, [](VarNode& self) {
    VarNode* pa = self.parents[0];
    VarNode* pb = self.parents[1];
    const size_t a_cols = self.split;
    const size_t b_cols = self.grad.cols() - a_cols;
    for (size_t i = 0; i < self.grad.rows(); ++i) {
      const double* row = self.grad.data() + i * self.grad.cols();
      if (pa->requires_grad) {
        double* ga = pa->grad.data() + i * a_cols;
        for (size_t j = 0; j < a_cols; ++j) ga[j] += row[j];
      }
      if (pb->requires_grad) {
        double* gb = pb->grad.data() + i * b_cols;
        for (size_t j = 0; j < b_cols; ++j) gb[j] += row[a_cols + j];
      }
    }
  });
  node->split = a.cols();
  Matrix& value = Output(node, a.rows(), a.cols() + b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    std::copy_n(a.value().data() + i * a.cols(), a.cols(),
                value.data() + i * value.cols());
    std::copy_n(b.value().data() + i * b.cols(), b.cols(),
                value.data() + i * value.cols() + a.cols());
  }
  return Var(node);
}

Var ConcatRows(const Var& a, const Var& b) {
  KGPIP_CHECK(a.cols() == b.cols());
  VarNode* node = Record({a.node(), b.node()}, [](VarNode& self) {
    const size_t a_elems = self.split * self.grad.cols();
    const double* g = self.grad.data();
    if (self.parents[0]->requires_grad) {
      double* ga = self.parents[0]->grad.data();
      for (size_t i = 0; i < a_elems; ++i) ga[i] += g[i];
    }
    if (self.parents[1]->requires_grad) {
      double* gb = self.parents[1]->grad.data();
      for (size_t i = a_elems; i < self.grad.size(); ++i) {
        gb[i - a_elems] += g[i];
      }
    }
  });
  node->split = a.rows();
  Matrix& value = Output(node, a.rows() + b.rows(), a.cols());
  std::copy_n(a.value().data(), a.value().size(), value.data());
  std::copy_n(b.value().data(), b.value().size(),
              value.data() + a.value().size());
  return Var(node);
}

Var GatherRows(const Var& a, const std::vector<size_t>& indices) {
  VarNode* node = Record({a.node()}, [](VarNode& self) {
    if (!self.parents[0]->requires_grad) return;
    Matrix& g = self.parents[0]->grad;
    const size_t cols = self.grad.cols();
    for (size_t i = 0; i < self.indices.size(); ++i) {
      double* dst = g.data() + self.indices[i] * cols;
      const double* src = self.grad.data() + i * cols;
      for (size_t j = 0; j < cols; ++j) dst[j] += src[j];
    }
  });
  node->indices.assign(indices.begin(), indices.end());
  Matrix& value = Output(node, indices.size(), a.cols());
  for (size_t i = 0; i < indices.size(); ++i) {
    KGPIP_CHECK(indices[i] < a.rows());
    std::copy_n(a.value().data() + indices[i] * a.cols(), a.cols(),
                value.data() + i * a.cols());
  }
  return Var(node);
}

Var ScatterAddRows(const Var& a, const std::vector<size_t>& indices,
                   size_t num_rows) {
  KGPIP_CHECK(indices.size() == a.rows());
  VarNode* node = Record({a.node()}, [](VarNode& self) {
    if (!self.parents[0]->requires_grad) return;
    Matrix& g = self.parents[0]->grad;
    const size_t cols = g.cols();
    for (size_t i = 0; i < self.indices.size(); ++i) {
      double* dst = g.data() + i * cols;
      const double* src = self.grad.data() + self.indices[i] * cols;
      for (size_t j = 0; j < cols; ++j) dst[j] += src[j];
    }
  });
  node->indices.assign(indices.begin(), indices.end());
  Matrix& value = Output(node, num_rows, a.cols());
  value.Fill(0.0);
  for (size_t i = 0; i < indices.size(); ++i) {
    KGPIP_CHECK(indices[i] < num_rows);
    for (size_t j = 0; j < a.cols(); ++j) {
      value(indices[i], j) += a.value()(i, j);
    }
  }
  return Var(node);
}

Var SumRows(const Var& a) {
  VarNode* node = Record({a.node()}, [](VarNode& self) {
    if (!self.parents[0]->requires_grad) return;
    Matrix& g = self.parents[0]->grad;
    for (size_t i = 0; i < g.rows(); ++i) {
      for (size_t j = 0; j < g.cols(); ++j) g(i, j) += self.grad(0, j);
    }
  });
  Matrix& value = Output(node, 1, a.cols());
  value.Fill(0.0);
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) value(0, j) += a.value()(i, j);
  }
  return Var(node);
}

Var SumAll(const Var& a) {
  VarNode* node = Record({a.node()}, [](VarNode& self) {
    if (!self.parents[0]->requires_grad) return;
    Matrix& g = self.parents[0]->grad;
    const double d = self.grad(0, 0);
    for (size_t i = 0; i < g.size(); ++i) g.data()[i] += d;
  });
  Matrix& value = Output(node, 1, 1);
  value(0, 0) = 0.0;
  for (size_t i = 0; i < a.value().size(); ++i) {
    value(0, 0) += a.value().data()[i];
  }
  return Var(node);
}

Var MeanAll(const Var& a) {
  double inv = 1.0 / static_cast<double>(a.value().size());
  return Scale(SumAll(a), inv);
}

namespace {

/// Row-wise softmax of `logits` into `out`.
void SoftmaxInto(const Matrix& logits, Matrix* out) {
  out->Reshape(logits.rows(), logits.cols());
  for (size_t i = 0; i < logits.rows(); ++i) {
    SoftmaxRow(logits.data() + i * logits.cols(), logits.cols(),
               out->data() + i * logits.cols());
  }
}

}  // namespace

Var SoftmaxCrossEntropy(const Var& logits, const std::vector<int>& targets) {
  KGPIP_CHECK(targets.size() == logits.rows());
  VarNode* node = Record({logits.node()}, [](VarNode& self) {
    if (!self.parents[0]->requires_grad) return;
    Matrix& g = self.parents[0]->grad;
    const Matrix& probs = self.aux;
    const double d =
        self.grad(0, 0) / static_cast<double>(self.indices.size());
    for (size_t i = 0; i < probs.rows(); ++i) {
      for (size_t j = 0; j < probs.cols(); ++j) {
        const double y = j == self.indices[i] ? 1.0 : 0.0;
        g(i, j) += d * (probs(i, j) - y);
      }
    }
  });
  SoftmaxInto(logits.value(), &node->aux);
  const Matrix& probs = node->aux;
  node->indices.clear();
  Matrix& value = Output(node, 1, 1);
  value(0, 0) = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    KGPIP_CHECK(targets[i] >= 0 &&
                static_cast<size_t>(targets[i]) < logits.cols());
    const size_t target = static_cast<size_t>(targets[i]);
    node->indices.push_back(target);
    value(0, 0) -= std::log(std::max(probs(i, target), 1e-12));
  }
  value(0, 0) /= static_cast<double>(targets.size());
  return Var(node);
}

Var BinaryCrossEntropyWithLogits(const Var& logit, double target) {
  KGPIP_CHECK(logit.rows() == 1 && logit.cols() == 1);
  VarNode* node = Record({logit.node()}, [](VarNode& self) {
    if (!self.parents[0]->requires_grad) return;
    self.parents[0]->grad(0, 0) +=
        self.grad(0, 0) * (self.scalar - self.target);
  });
  const double x = logit.value()(0, 0);
  // log(1 + e^-|x|) + max(x,0) - x*t (stable formulation).
  Output(node, 1, 1)(0, 0) = std::log1p(std::exp(-std::fabs(x))) +
                             std::max(x, 0.0) - x * target;
  node->scalar = 1.0 / (1.0 + std::exp(-x));
  node->target = target;
  return Var(node);
}

}  // namespace kgpip::nn
