// AVX2 kernel TU. Built with -mavx2 -ffp-contract=off; only ever entered
// through the dispatcher after a runtime CPUID check. Everything but the
// entry points stays in an anonymous namespace so no AVX2-coded comdat
// symbol can leak to scalar callers in other TUs.

#include "nn/simd_kernels_isa.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include "nn/simd_kernels_impl.h"

namespace kgpip::nn::simd::detail {
namespace {

struct OpsAvx2 {
  using V = __m256d;
  using MaskT = __m256i;  // per-64-bit-lane sign-bit mask (vmaskmov form)
  static constexpr size_t kW = 4;

  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static MaskT TailMask(size_t n) {
    const __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(n)),
                              idx);
  }
  // vmaskmovpd zero-fills disabled lanes on load and leaves memory
  // untouched on store — the tail semantics the kernels rely on.
  static V MaskLoad(const double* p, MaskT m) {
    return _mm256_maskload_pd(p, m);
  }
  static void MaskStore(double* p, MaskT m, V v) {
    _mm256_maskstore_pd(p, m, v);
  }

  static V Broadcast(double x) { return _mm256_set1_pd(x); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Div(V a, V b) { return _mm256_div_pd(a, b); }
  static V Sqrt(V a) { return _mm256_sqrt_pd(a); }

  // x > b ? b : x — ordered-quiet compare: a NaN lane compares false and
  // keeps x, matching the scalar ternary.
  static V SelGt(V x, V b) {
    return _mm256_blendv_pd(x, b, _mm256_cmp_pd(x, b, _CMP_GT_OQ));
  }
  static V SelLt(V x, V b) {
    return _mm256_blendv_pd(x, b, _mm256_cmp_pd(x, b, _CMP_LT_OQ));
  }

  static V And(V a, V b) { return _mm256_and_pd(a, b); }
  static V AndNot(V a, V b) { return _mm256_andnot_pd(a, b); }
  static V Or(V a, V b) { return _mm256_or_pd(a, b); }
  static V Xor(V a, V b) { return _mm256_xor_pd(a, b); }

  // 2^kd for integral kd in [-1022, 1022]: truncate (exact on integral
  // values, like the scalar static_cast<int>), bias, and place in the
  // exponent field — the same bits FastExp assembles through memcpy.
  static V ExpScale(V kd) {
    __m128i ki = _mm256_cvttpd_epi32(kd);
    ki = _mm_add_epi32(ki, _mm_set1_epi32(1023));
    __m256i wide = _mm256_cvtepi32_epi64(ki);
    wide = _mm256_slli_epi64(wide, 52);
    return _mm256_castsi256_pd(wide);
  }
};

using K = Kernels<OpsAvx2>;

}  // namespace

void GemmAvx2(GemmMode mode, const double* a, size_t a_row_stride,
              size_t a_col_stride, const double* b, double* c,
              size_t rows, size_t ac, size_t bc) {
  if (mode == GemmMode::kAdd) {
    K::Gemm<true>(a, a_row_stride, a_col_stride, b, c, rows, ac, bc);
  } else {
    K::Gemm<false>(a, a_row_stride, a_col_stride, b, c, rows, ac, bc);
  }
}
void BiasAvx2(double* c, const double* bias, size_t rows, size_t cols) {
  K::Bias(c, bias, rows, cols);
}
void SigmoidAvx2(double* d, size_t n) { K::Sigmoid(d, n); }
void TanhAvx2(double* d, size_t n) { K::Tanh(d, n); }
void AddSigmoidAvx2(const double* a, const double* b, double* out, size_t n) {
  K::AddSigmoid(a, b, out, n);
}
void AddTanhAvx2(const double* a, const double* b, double* out, size_t n) {
  K::AddTanh(a, b, out, n);
}
void MulAvx2(const double* a, const double* b, double* out, size_t n) {
  K::Mul(a, b, out, n);
}
void GruCombineAvx2(const double* z, const double* n, const double* h,
                    double* out, size_t count) {
  K::GruCombine(z, n, h, out, count);
}
void SigmoidGradAvx2(const double* dy, const double* y, double* g, size_t n) {
  K::SigmoidGrad(dy, y, g, n);
}
void TanhGradAvx2(const double* dy, const double* y, double* g, size_t n) {
  K::TanhGrad(dy, y, g, n);
}
void AdamAvx2(const AdamCoeffs& c, const double* grad, double* m, double* v,
         double* value, size_t n) {
  K::Adam(c, grad, m, v, value, n);
}

}  // namespace kgpip::nn::simd::detail

#endif  // __x86_64__ && __AVX2__
