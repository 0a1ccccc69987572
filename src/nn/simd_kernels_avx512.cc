// AVX-512F kernel TU. Built with -mavx512f -ffp-contract=off; only ever
// entered through the dispatcher after a runtime CPUID check. Bitwise
// double ops go through si512 (AVX-512F) — the _pd forms need AVX-512DQ,
// which we do not require.

#include "nn/simd_kernels_isa.h"

#if defined(__x86_64__) && defined(__AVX512F__)

#include <immintrin.h>

#include "nn/simd_kernels_impl.h"

namespace kgpip::nn::simd::detail {
namespace {

struct OpsAvx512 {
  using V = __m512d;
  using MaskT = __mmask8;
  static constexpr size_t kW = 8;
  static constexpr MaskT kAll = 0xff;

  static V Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static MaskT TailMask(size_t n) {
    return static_cast<__mmask8>((1u << n) - 1u);
  }
  static V MaskLoad(const double* p, MaskT m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void MaskStore(double* p, MaskT m, V v) {
    _mm512_mask_storeu_pd(p, m, v);
  }

  static V Broadcast(double x) { return _mm512_set1_pd(x); }
  static V Add(V a, V b) { return _mm512_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V Div(V a, V b) { return _mm512_div_pd(a, b); }
  // maskz form with an all-ones mask: same result, but GCC's plain
  // _mm512_sqrt_pd routes through _mm512_undefined_pd and trips
  // -Wmaybe-uninitialized.
  static V Sqrt(V a) { return _mm512_maskz_sqrt_pd(kAll, a); }

  // x > b ? b : x — ordered-quiet compare: a NaN lane compares false and
  // keeps x, matching the scalar ternary.
  static V SelGt(V x, V b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, b, _CMP_GT_OQ), x, b);
  }
  static V SelLt(V x, V b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, b, _CMP_LT_OQ), x, b);
  }

  static V And(V a, V b) {
    return _mm512_castsi512_pd(_mm512_and_si512(_mm512_castpd_si512(a),
                                                _mm512_castpd_si512(b)));
  }
  // The maskz forms here and in ExpScale, with an all-ones mask, give
  // the plain intrinsics' result without their _mm512_undefined_*
  // passthrough (see Sqrt).
  static V AndNot(V a, V b) {
    return _mm512_castsi512_pd(
        _mm512_maskz_andnot_epi64(kAll, _mm512_castpd_si512(a),
                                  _mm512_castpd_si512(b)));
  }
  static V Or(V a, V b) {
    return _mm512_castsi512_pd(_mm512_or_si512(_mm512_castpd_si512(a),
                                               _mm512_castpd_si512(b)));
  }
  static V Xor(V a, V b) {
    return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(a),
                                                _mm512_castpd_si512(b)));
  }

  // 2^kd for integral kd in [-1022, 1022]: truncate (exact on integral
  // values, like the scalar static_cast<int>), bias, and place in the
  // exponent field — the same bits FastExp assembles through memcpy.
  static V ExpScale(V kd) {
    __m256i ki = _mm512_maskz_cvttpd_epi32(kAll, kd);
    ki = _mm256_add_epi32(ki, _mm256_set1_epi32(1023));
    __m512i wide = _mm512_maskz_cvtepi32_epi64(kAll, ki);
    wide = _mm512_maskz_slli_epi64(kAll, wide, 52);
    return _mm512_castsi512_pd(wide);
  }

};

using K = Kernels<OpsAvx512>;

}  // namespace

void GemmAvx512(GemmMode mode, const double* a, size_t a_row_stride,
                size_t a_col_stride, const double* b, double* c,
                size_t rows, size_t ac, size_t bc) {
  if (mode == GemmMode::kAdd) {
    K::Gemm<true>(a, a_row_stride, a_col_stride, b, c, rows, ac, bc);
  } else {
    K::Gemm<false>(a, a_row_stride, a_col_stride, b, c, rows, ac, bc);
  }
}
void BiasAvx512(double* c, const double* bias, size_t rows, size_t cols) {
  K::Bias(c, bias, rows, cols);
}
void SigmoidAvx512(double* d, size_t n) { K::Sigmoid(d, n); }
void TanhAvx512(double* d, size_t n) { K::Tanh(d, n); }
void AddSigmoidAvx512(const double* a, const double* b, double* out,
                      size_t n) {
  K::AddSigmoid(a, b, out, n);
}
void AddTanhAvx512(const double* a, const double* b, double* out, size_t n) {
  K::AddTanh(a, b, out, n);
}
void MulAvx512(const double* a, const double* b, double* out, size_t n) {
  K::Mul(a, b, out, n);
}
void GruCombineAvx512(const double* z, const double* n, const double* h,
                      double* out, size_t count) {
  K::GruCombine(z, n, h, out, count);
}
void SigmoidGradAvx512(const double* dy, const double* y, double* g, size_t n) {
  K::SigmoidGrad(dy, y, g, n);
}
void TanhGradAvx512(const double* dy, const double* y, double* g, size_t n) {
  K::TanhGrad(dy, y, g, n);
}
void AdamAvx512(const AdamCoeffs& c, const double* grad, double* m, double* v,
           double* value, size_t n) {
  K::Adam(c, grad, m, v, value, n);
}

}  // namespace kgpip::nn::simd::detail

#endif  // __x86_64__ && __AVX512F__
