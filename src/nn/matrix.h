#ifndef KGPIP_NN_MATRIX_H_
#define KGPIP_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "util/rng.h"

namespace kgpip::nn {

/// Dense row-major 2-D matrix of doubles. The only tensor shape the graph
/// generator needs: node-embedding matrices (n x d), weight matrices and
/// logits rows.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Xavier/Glorot-scaled random initialization.
  static Matrix Randn(size_t rows, size_t cols, Rng* rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Reinterprets the buffer as `rows` x `cols`, preserving existing
  /// elements in flat row-major order (appending rows at an unchanged
  /// column count keeps old rows intact; new elements are zero). Never
  /// shrinks capacity, so shrinking and re-growing within a previously
  /// reached size performs no heap allocation — the property the
  /// generator's decode workspace relies on.
  void Reshape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Preallocates backing storage without changing the logical shape.
  void ReserveElems(size_t elems) { data_.reserve(elems); }

  /// Elements the buffer can hold without reallocating.
  size_t CapacityElems() const { return data_.capacity(); }

  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// In-place fill.
  void Fill(double value);

  /// this += other (same shape).
  void AddInPlace(const Matrix& other);
  /// this += scale * other.
  void AddScaled(const Matrix& other, double scale);

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// C = A * B. Shapes must agree.
  static Matrix MatMul(const Matrix& a, const Matrix& b);
  /// C = A * B into a caller-owned buffer (reshaped, then written by the
  /// same kernel as MatMul, so results are bit-identical). `out` must not
  /// alias `a` or `b`.
  static void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);

  Matrix Transposed() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace kgpip::nn

#endif  // KGPIP_NN_MATRIX_H_
