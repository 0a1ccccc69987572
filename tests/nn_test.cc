#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "nn/autograd.h"
#include "nn/layers.h"
#include "util/logging.h"

namespace kgpip::nn {
namespace {

TEST(MatrixTest, MatMulKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  int v = 1;
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) a(i, j) = v++;
  }
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) b(i, j) = v++;
  }
  Matrix c = Matrix::MatMul(a, b);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  EXPECT_DOUBLE_EQ(c(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
  EXPECT_DOUBLE_EQ(c(1, 1), 4 * 8 + 5 * 10 + 6 * 12);
}

void ExpectBitEqual(const Matrix& a, const Matrix& b) {
  ASSERT_TRUE(a.SameShape(b));
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
}

// The backward GEMMs run on the forward kernel over packed transposes:
// dA = G * B^T and dB = A^T * G must equal those products bit for bit,
// for MatMul and for the fused Affine node alike.
TEST(AutogradTest, BackwardProductsEqualExplicitTransposedProducts) {
  Tape tape;
  TapeScope scope(&tape);
  Rng rng(4);
  Var a(Matrix::Randn(3, 5, &rng), true);
  Var b(Matrix::Randn(5, 4, &rng), true);
  Var bias(Matrix::Randn(1, 4, &rng), true);
  Matrix g = Matrix::Randn(3, 4, &rng);
  g(1, 2) = 0.0;  // a skipped term
  // d(sum(C * g))/dC = g exactly.
  Backward(SumAll(Mul(MatMul(a, b), Var(g))));
  ExpectBitEqual(a.grad(), Matrix::MatMul(g, b.value().Transposed()));
  ExpectBitEqual(b.grad(), Matrix::MatMul(a.value().Transposed(), g));

  Backward(SumAll(Mul(Affine(a, b, bias), Var(g))));
  ExpectBitEqual(a.grad(), Matrix::MatMul(g, b.value().Transposed()));
  ExpectBitEqual(b.grad(), Matrix::MatMul(a.value().Transposed(), g));
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(bias.grad()(0, j), (g(0, j) + g(1, j)) + g(2, j));
  }
}

/// Central-difference gradient check: builds `loss(fn)` twice with a
/// nudged parameter and compares against the autograd gradient.
void CheckGradients(Var param, const std::function<Var()>& loss_fn,
                    double tol = 1e-5) {
  Var loss = loss_fn();
  Backward(loss);
  Matrix analytic = param.grad();
  const double eps = 1e-5;
  for (size_t i = 0; i < param.value().size(); ++i) {
    double saved = param.mutable_value().data()[i];
    param.mutable_value().data()[i] = saved + eps;
    double up = loss_fn().value()(0, 0);
    param.mutable_value().data()[i] = saved - eps;
    double down = loss_fn().value()(0, 0);
    param.mutable_value().data()[i] = saved;
    double numeric = (up - down) / (2.0 * eps);
    ASSERT_NEAR(analytic.data()[i], numeric, tol)
        << "param element " << i;
  }
}

TEST(AutogradTest, MatMulSigmoidChainGradients) {
  Tape tape;
  TapeScope scope(&tape);
  Rng rng(3);
  Var w(Matrix::Randn(4, 3, &rng), /*requires_grad=*/true);
  Var x(Matrix::Randn(2, 4, &rng));
  auto loss_fn = [&] { return MeanAll(Sigmoid(MatMul(x, w))); };
  w.ZeroGrad();
  CheckGradients(w, loss_fn);
}

TEST(AutogradTest, GruCellGradients) {
  Tape tape;
  TapeScope scope(&tape);
  Rng rng(5);
  ParamStore store;
  GruCell cell(&store, "gru", 3, 3, &rng);
  Var x(Matrix::Randn(2, 3, &rng));
  Var h(Matrix::Randn(2, 3, &rng));
  auto loss_fn = [&] { return MeanAll(cell.Forward(x, h)); };
  for (Var param : store.params()) {
    store.ZeroGrads();
    CheckGradients(param, loss_fn, 1e-4);
  }
}

TEST(AutogradTest, SoftmaxCrossEntropyGradients) {
  Tape tape;
  TapeScope scope(&tape);
  Var logits(Matrix(3, 4), true);
  for (size_t i = 0; i < logits.value().size(); ++i) {
    logits.mutable_value().data()[i] = 0.1 * static_cast<double>(i) - 0.5;
  }
  std::vector<int> targets = {1, 3, 0};
  auto loss_fn = [&] { return SoftmaxCrossEntropy(logits, targets); };
  logits.ZeroGrad();
  CheckGradients(logits, loss_fn);
}

TEST(AutogradTest, GatherScatterConcatGradients) {
  Tape tape;
  TapeScope scope(&tape);
  Rng rng(9);
  Var a(Matrix::Randn(4, 3, &rng), true);
  std::vector<size_t> idx = {2, 0, 2};
  auto loss_fn = [&] {
    Var gathered = GatherRows(a, idx);
    Var scattered = ScatterAddRows(gathered, {0, 1, 1}, 2);
    Var combined = ConcatCols(scattered, Scale(scattered, 0.5));
    return MeanAll(Tanh(combined));
  };
  a.ZeroGrad();
  CheckGradients(a, loss_fn);
}

TEST(AutogradTest, BceWithLogitsMatchesClosedForm) {
  Tape tape;
  TapeScope scope(&tape);
  Var logit(Matrix(1, 1), true);
  logit.mutable_value()(0, 0) = 0.7;
  Var loss = BinaryCrossEntropyWithLogits(logit, 1.0);
  double p = 1.0 / (1.0 + std::exp(-0.7));
  EXPECT_NEAR(loss.value()(0, 0), -std::log(p), 1e-12);
  logit.ZeroGrad();
  Backward(loss);
  EXPECT_NEAR(logit.grad()(0, 0), p - 1.0, 1e-12);
}

TEST(AutogradTest, DeepChainBackwardDoesNotOverflowStack) {
  Tape tape;
  TapeScope scope(&tape);
  Var x(Matrix(1, 1), true);
  x.mutable_value()(0, 0) = 0.01;
  Var y = x;
  for (int i = 0; i < 20000; ++i) y = Scale(y, 1.0);
  Var loss = MeanAll(y);
  Backward(loss);  // must not crash
  EXPECT_NEAR(x.grad()(0, 0), 1.0, 1e-12);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Tape tape;
  TapeScope scope(&tape);
  ParamStore store;
  Rng rng(1);
  Var w = store.Create("w", 1, 4, &rng);
  Adam adam(&store, 0.05);
  Matrix target(1, 4);
  for (size_t i = 0; i < 4; ++i) target(0, i) = static_cast<double>(i);
  for (int step = 0; step < 400; ++step) {
    Var diff = Sub(w, Var(target));
    Var loss = MeanAll(Mul(diff, diff));
    Backward(loss);
    tape.Clear();
    adam.Step();
  }
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(w.value()(0, i), target(0, i), 1e-2);
  }
}

// A tape reused across graphs of different sizes gives the same bits as
// a fresh one, and after each Clear holds no more buffer bytes than the
// largest graph recorded on it.
TEST(TapeTest, ReusedTapeMatchesFreshTapeAndStaysBounded) {
  ParamStore store;
  Rng rng(21);
  GruCell cell(&store, "gru", 4, 5, &rng);
  auto gradients = [&](Tape* tape, size_t rows) {
    TapeScope scope(tape);
    Rng data_rng(rows);
    Var x(Matrix::Randn(rows, 4, &data_rng));
    Var h(Matrix::Randn(rows, 5, &data_rng));
    Backward(MeanAll(Tanh(cell.Forward(x, h))));
    std::vector<Matrix> grads;
    for (const Var& p : store.params()) grads.push_back(p.grad());
    tape->Clear();
    return grads;
  };
  Tape reused;
  size_t largest = 0;
  for (size_t rows : {6, 1, 3, 6, 2, 9, 1}) {
    Tape fresh;
    const std::vector<Matrix> want = gradients(&fresh, rows);
    const std::vector<Matrix> got = gradients(&reused, rows);
    ASSERT_EQ(want.size(), got.size());
    for (size_t p = 0; p < want.size(); ++p) ExpectBitEqual(want[p], got[p]);
    largest = std::max(largest, fresh.BufferBytes());
    EXPECT_LE(reused.BufferBytes(), largest) << "rows " << rows;
  }
}

TEST(ParamStoreTest, JsonRoundTrip) {
  ParamStore store;
  Rng rng(2);
  Var a = store.Create("a", 2, 3, &rng);
  Var b = store.Create("b", 1, 5, &rng);
  Json json = store.ToJson();

  ParamStore other;
  Rng rng2(99);
  Var a2 = other.Create("a", 2, 3, &rng2);
  Var b2 = other.Create("b", 1, 5, &rng2);
  ASSERT_TRUE(other.FromJson(json).ok());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(a2.value().data()[i], a.value().data()[i]);
  }
  for (size_t i = 0; i < b.value().size(); ++i) {
    EXPECT_DOUBLE_EQ(b2.value().data()[i], b.value().data()[i]);
  }
  // Shape mismatch rejected.
  ParamStore wrong;
  Rng rng3(1);
  wrong.Create("a", 3, 2, &rng3);
  EXPECT_FALSE(wrong.FromJson(json).ok());
}

}  // namespace
}  // namespace kgpip::nn
