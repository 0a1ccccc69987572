#ifndef KGPIP_NN_SIMD_KERNELS_ISA_H_
#define KGPIP_NN_SIMD_KERNELS_ISA_H_

// Internal: entry points of the per-ISA kernel translation units.
// Declared unconditionally (harmless on non-x86); DEFINED only when the
// build adds the matching TU, and called only behind the dispatcher's
// KGPIP_SIMD_HAVE_* guards + runtime CPUID check (see simd_kernels.cc).

#include <cstddef>

#include "nn/simd_kernels.h"

namespace kgpip::nn::simd::detail {

void GemmAvx2(GemmMode mode, const double* a, size_t a_row_stride,
              size_t a_col_stride, const double* b, double* c, size_t rows,
              size_t ac, size_t bc);
void BiasAvx2(double* c, const double* bias, size_t rows, size_t cols);
void SigmoidAvx2(double* d, size_t n);
void TanhAvx2(double* d, size_t n);
void AddSigmoidAvx2(const double* a, const double* b, double* out, size_t n);
void AddTanhAvx2(const double* a, const double* b, double* out, size_t n);
void MulAvx2(const double* a, const double* b, double* out, size_t n);
void GruCombineAvx2(const double* z, const double* n, const double* h,
                    double* out, size_t count);
void SigmoidGradAvx2(const double* dy, const double* y, double* g, size_t n);
void TanhGradAvx2(const double* dy, const double* y, double* g, size_t n);
void AdamAvx2(const AdamCoeffs& c, const double* grad, double* m, double* v,
         double* value, size_t n);

void GemmAvx512(GemmMode mode, const double* a, size_t a_row_stride,
                size_t a_col_stride, const double* b, double* c, size_t rows,
                size_t ac, size_t bc);
void BiasAvx512(double* c, const double* bias, size_t rows, size_t cols);
void SigmoidAvx512(double* d, size_t n);
void TanhAvx512(double* d, size_t n);
void AddSigmoidAvx512(const double* a, const double* b, double* out, size_t n);
void AddTanhAvx512(const double* a, const double* b, double* out, size_t n);
void MulAvx512(const double* a, const double* b, double* out, size_t n);
void GruCombineAvx512(const double* z, const double* n, const double* h,
                      double* out, size_t count);
void SigmoidGradAvx512(const double* dy, const double* y, double* g, size_t n);
void TanhGradAvx512(const double* dy, const double* y, double* g, size_t n);
void AdamAvx512(const AdamCoeffs& c, const double* grad, double* m, double* v,
           double* value, size_t n);

}  // namespace kgpip::nn::simd::detail

#endif  // KGPIP_NN_SIMD_KERNELS_ISA_H_
