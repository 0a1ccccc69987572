#ifndef KGPIP_NN_INFERENCE_H_
#define KGPIP_NN_INFERENCE_H_

#include <cmath>
#include <cstddef>

#include "nn/fastmath.h"
#include "nn/matrix.h"

namespace kgpip::nn {

/// Tape-free forward kernels for serve-time inference.
///
/// These operate on raw `Matrix` values and caller-owned output buffers;
/// nothing is recorded on a tape.
/// Every kernel is **bit-identical** to the corresponding autograd
/// forward pass: the serve GEMM is Matrix::MatMulInto itself, and every
/// elementwise expression matches the tape op in the same order. The
/// generator's tape-vs-tape-free equivalence tests enforce this
/// byte-for-byte.

/// Activation fused into FusedLinear's output pass.
enum class Activation { kNone, kTanh, kSigmoid };

/// out = act(x * w + b), where `b` is a 1 x cols bias row broadcast over
/// every output row. The tape's Affine node computes its value with this
/// function, so `Act(Affine(x, w, b)).value()` is bit-identical.
/// `out` must not alias `x`, `w`, or `b`; its storage is reused (no
/// allocation when its capacity already fits the result).
void FusedLinear(const Matrix& x, const Matrix& w, const Matrix& b,
                 Activation act, Matrix* out);

/// Elementwise in-place activations (same expressions as the tape ops).
void SigmoidInPlace(Matrix* m);
void TanhInPlace(Matrix* m);

/// out = a ⊙ b elementwise into a caller-owned buffer (same as
/// `Mul(a, b).value()`). `out` must not alias `a`; aliasing `b` is fine.
void MulInto(const Matrix& a, const Matrix& b, Matrix* out);

/// Sigmoid of a scalar logit — the exact function the tape decode uses
/// for edge probabilities (see fastmath.h for semantics).
inline double SigmoidScalar(double x) { return FastSigmoid(x); }

/// Softmax over a contiguous row of `n` logits into `out` (may alias
/// `logits`). Same arithmetic as SoftmaxValue: subtract the running max,
/// exponentiate, normalize by the ascending-order sum.
void SoftmaxRow(const double* logits, size_t n, double* out);

/// Fused-panel GRU forward: `*out = GRU(x, h)` given the packed gate
/// panels from GruCell::PackFused (`wx`/`bx` = [xz|xr|xn], `wh2`/`bh2`
/// = [hz|hr]) plus the candidate hidden projection `whn`/`bhn`. Runs
/// two wide GEMMs instead of five narrow ones; bit-identical to the
/// value of GruCell::Forward (the tape GRU) because every output
/// column's accumulation chain and every elementwise expression is
/// unchanged. `xg` (rows x 3h), `hg` (rows x 2h), and `scratch`-like
/// buffers `z`, `r`, `rh`, `tmp`, `cand` are caller-owned temporaries;
/// none may alias `x`, `h`, or `out`.
void GruFusedForward(const Matrix& x, const Matrix& h, const Matrix& wx,
                     const Matrix& bx, const Matrix& wh2, const Matrix& bh2,
                     const Matrix& whn, const Matrix& bhn, Matrix* xg,
                     Matrix* hg, Matrix* z, Matrix* r, Matrix* rh,
                     Matrix* tmp, Matrix* cand, Matrix* out);

}  // namespace kgpip::nn

#endif  // KGPIP_NN_INFERENCE_H_
