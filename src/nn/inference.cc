#include "nn/inference.h"

#include <algorithm>
#include <cmath>

#include "nn/simd_kernels.h"
#include "util/logging.h"

namespace kgpip::nn {

// The serve kernels route through the dispatched SIMD layer
// (simd_kernels.h): explicit AVX-512F/AVX2 intrinsic micro-kernels with
// a scalar reference, selected once at runtime from CPUID (KGPIP_ISA
// overrides). Every level produces byte-identical output — the kernels
// keep one ascending-k accumulation chain per output element and the
// activation expressions of fastmath.h, and packed IEEE ops round
// exactly like their scalar forms lane by lane — so the gen equivalence
// suite's tape-vs-engine byte identity holds at every dispatch level.
// (This replaced the PR 5 target_clones IFUNC approach: manual dispatch
// is TSan-safe and lets one binary carry an AVX-512 path.)

void FusedLinear(const Matrix& x, const Matrix& w, const Matrix& b,
                 Activation act, Matrix* out) {
  KGPIP_CHECK(b.rows() == 1 && b.cols() == w.cols());
  const simd::Isa isa = simd::ActiveIsa();
  Matrix::MatMulInto(x, w, out);
  // Bias broadcast over the rows, row by row.
  simd::BiasRows(isa, out->data(), b.data(), out->rows(), out->cols());
  switch (act) {
    case Activation::kNone:
      break;
    case Activation::kTanh:
      simd::TanhN(isa, out->data(), out->size());
      break;
    case Activation::kSigmoid:
      simd::SigmoidN(isa, out->data(), out->size());
      break;
  }
}

void SigmoidInPlace(Matrix* m) {
  simd::SigmoidN(simd::ActiveIsa(), m->data(), m->size());
}

void TanhInPlace(Matrix* m) {
  simd::TanhN(simd::ActiveIsa(), m->data(), m->size());
}

void MulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  KGPIP_CHECK(a.SameShape(b));
  out->Reshape(a.rows(), a.cols());
  simd::MulN(simd::ActiveIsa(), a.data(), b.data(), out->data(), a.size());
}

void GruFusedForward(const Matrix& x, const Matrix& h, const Matrix& wx,
                     const Matrix& bx, const Matrix& wh2, const Matrix& bh2,
                     const Matrix& whn, const Matrix& bhn, Matrix* xg,
                     Matrix* hg, Matrix* z, Matrix* r, Matrix* rh,
                     Matrix* tmp, Matrix* cand, Matrix* out) {
  const size_t n = h.rows();
  const size_t hd = h.cols();
  const simd::Isa isa = simd::ActiveIsa();
  FusedLinear(x, wx, bx, Activation::kNone, xg);    // [xz|xr|xn] + bias
  FusedLinear(h, wh2, bh2, Activation::kNone, hg);  // [hz|hr] + bias
  z->Reshape(n, hd);
  r->Reshape(n, hd);
  // Gate j of row i sums its x- and h-side affine parts in the same
  // order as GruCell::Forward's Add (x part first), then squashes.
  for (size_t i = 0; i < n; ++i) {
    const double* xrow = xg->data() + i * 3 * hd;
    const double* hrow = hg->data() + i * 2 * hd;
    simd::AddSigmoidN(isa, xrow, hrow, z->data() + i * hd, hd);
    simd::AddSigmoidN(isa, xrow + hd, hrow + hd, r->data() + i * hd, hd);
  }
  MulInto(*r, h, rh);
  FusedLinear(*rh, whn, bhn, Activation::kNone, tmp);
  cand->Reshape(n, hd);
  for (size_t i = 0; i < n; ++i) {
    const double* xrow = xg->data() + i * 3 * hd + 2 * hd;
    simd::AddTanhN(isa, xrow, tmp->data() + i * hd, cand->data() + i * hd, hd);
  }
  out->Reshape(n, hd);
  // Same association as the tape expression Add(Sub(n, Mul(z, n)),
  // Mul(z, h)): (n + (-1)*(z*n)) + z*h.
  simd::GruCombineN(isa, z->data(), cand->data(), h.data(), out->data(),
                    n * hd);
}

void SoftmaxRow(const double* logits, size_t n, double* out) {
  KGPIP_CHECK(n > 0);
  double max_logit = logits[0];
  for (size_t j = 1; j < n; ++j) max_logit = std::max(max_logit, logits[j]);
  double z = 0.0;
  for (size_t j = 0; j < n; ++j) {
    out[j] = std::exp(logits[j] - max_logit);
    z += out[j];
  }
  for (size_t j = 0; j < n; ++j) out[j] /= z;
}

}  // namespace kgpip::nn
