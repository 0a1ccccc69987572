#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "nn/simd_kernels.h"
#include "util/logging.h"

namespace kgpip::nn {

Matrix Matrix::Randn(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  const double scale = std::sqrt(2.0 / static_cast<double>(rows + cols));
  for (size_t i = 0; i < m.data_.size(); ++i) {
    m.data_[i] = rng->Normal() * scale;
  }
  return m;
}

void Matrix::Fill(double value) {
  for (double& v : data_) v = value;
}

void Matrix::AddInPlace(const Matrix& other) {
  KGPIP_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Matrix::AddScaled(const Matrix& other, double scale) {
  KGPIP_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * other.data_[i];
  }
}

Matrix Matrix::MatMul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MatMulInto(a, b, &c);
  return c;
}

void Matrix::MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  KGPIP_CHECK(a.cols_ == b.rows_)
      << "matmul shape mismatch: " << a.rows_ << "x" << a.cols_ << " * "
      << b.rows_ << "x" << b.cols_;
  out->Reshape(a.rows_, b.cols_);
  // Dispatched micro-kernel (simd_kernels.h). Every level — scalar
  // reference, AVX2, AVX-512 — stores each element's ascending-k chain
  // from +0.0 with zero coefficients skipped, so training and serving
  // stay bit-identical across hosts and KGPIP_ISA settings.
  simd::Gemm(simd::ActiveIsa(), simd::GemmMode::kStore, a.data(), a.cols_, 1,
             b.data(), out->data(), a.rows_, a.cols_, b.cols_);
}

Matrix Matrix::Transposed() const {
  Matrix t(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

}  // namespace kgpip::nn
