#include "nn/simd_kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "nn/fastmath.h"
#include "nn/simd_kernels_isa.h"
#include "obs/metrics.h"

namespace kgpip::nn::simd {

namespace {

// ---- Scalar reference kernels ------------------------------------------
// Same chains as the intrinsic kernels / the fastmath inline functions.

// The GEMM chain of every element of a kPanel-column slice of a row runs
// in a local accumulator array (the intrinsic kernels' registers), which
// the compiler vectorizes over j.
template <bool kAdd>
void GemmScalar(const double* a, size_t rs, size_t cs, const double* b,
                double* c, size_t rows, size_t ac, size_t bc) {
  constexpr size_t kPanel = 64;
  double acc[kPanel];
  for (size_t i = 0; i < rows; ++i) {
    const double* arow = a + i * rs;
    double* crow = c + i * bc;
    for (size_t j0 = 0; j0 < bc; j0 += kPanel) {
      const size_t w = std::min(kPanel, bc - j0);
      std::fill_n(acc, w, 0.0);
      for (size_t k = 0; k < ac; ++k) {
        const double aik = arow[k * cs];
        // A zero coefficient must be *skipped*, not added: acc += 0.0
        // would flip a -0.0 accumulator to +0.0.
        if (aik == 0.0) continue;
        const double* __restrict brow = b + k * bc + j0;
        for (size_t j = 0; j < w; ++j) acc[j] += aik * brow[j];
      }
      double* __restrict out = crow + j0;
      for (size_t j = 0; j < w; ++j) out[j] = kAdd ? out[j] + acc[j] : acc[j];
    }
  }
}

void BiasScalar(double* c, const double* bias, size_t rows, size_t cols) {
  for (size_t i = 0; i < rows; ++i) {
    double* row = c + i * cols;
    for (size_t j = 0; j < cols; ++j) row[j] += bias[j];
  }
}

void SigmoidScalar(double* d, size_t n) {
  for (size_t i = 0; i < n; ++i) d[i] = FastSigmoid(d[i]);
}

void TanhScalar(double* d, size_t n) {
  for (size_t i = 0; i < n; ++i) d[i] = FastTanh(d[i]);
}

void AddSigmoidScalar(const double* a, const double* b, double* out,
                      size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = FastSigmoid(a[i] + b[i]);
}

void AddTanhScalar(const double* a, const double* b, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = FastTanh(a[i] + b[i]);
}

void MulScalar(const double* a, const double* b, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void GruCombineScalar(const double* z, const double* n, const double* h,
                      double* out, size_t count) {
  for (size_t k = 0; k < count; ++k) {
    const double zn = z[k] * n[k];
    const double a = n[k] + (-1.0) * zn;
    out[k] = a + z[k] * h[k];
  }
}

void SigmoidGradScalar(const double* dy, const double* y, double* g,
                       size_t n) {
  for (size_t i = 0; i < n; ++i) g[i] += dy[i] * y[i] * (1.0 - y[i]);
}

void TanhGradScalar(const double* dy, const double* y, double* g, size_t n) {
  for (size_t i = 0; i < n; ++i) g[i] += dy[i] * (1.0 - y[i] * y[i]);
}

void AdamScalar(const AdamCoeffs& c, const double* grad, double* m,
                double* v, double* value, size_t n) {
  for (size_t k = 0; k < n; ++k) {
    const double g = grad[k] * c.scale;
    m[k] = c.beta1 * m[k] + c.one_minus_beta1 * g;
    v[k] = c.beta2 * v[k] + c.one_minus_beta2 * g * g;
    const double m_hat = m[k] / c.bc1;
    const double v_hat = v[k] / c.bc2;
    value[k] -= c.lr * m_hat / (std::sqrt(v_hat) + c.eps);
  }
}

// ---- Dispatch state ----------------------------------------------------

// -1 = unresolved; resolved values are the Isa enum. Resolution is
// idempotent (pure function of env + CPUID), so a startup race just
// publishes the same value twice.
std::atomic<int> g_active{-1};

Isa ClampToSupported(Isa isa) {
  if (isa == Isa::kAvx512 && !IsaSupported(Isa::kAvx512)) isa = Isa::kAvx2;
  if (isa == Isa::kAvx2 && !IsaSupported(Isa::kAvx2)) isa = Isa::kScalar;
  return isa;
}

Isa ResolveFromEnv() {
  Isa isa = BestSupportedIsa();
  if (const char* env = std::getenv("KGPIP_ISA")) {
    if (std::strcmp(env, "scalar") == 0) {
      isa = Isa::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      isa = Isa::kAvx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      isa = Isa::kAvx512;
    }
    // Unknown values keep the CPUID pick; a request for a level the host
    // lacks clamps down rather than crashing on illegal instructions.
    isa = ClampToSupported(isa);
  }
  return isa;
}

Isa Publish(Isa isa) {
  g_active.store(static_cast<int>(isa), std::memory_order_relaxed);
  obs::MetricsRegistry::Global()
      .GetGauge("nn.isa_level")
      ->Set(static_cast<double>(static_cast<int>(isa)));
  return isa;
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool IsaCompiled(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(KGPIP_SIMD_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(KGPIP_SIMD_HAVE_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool IsaSupported(Isa isa) {
  if (!IsaCompiled(isa)) return false;
  switch (isa) {
    case Isa::kScalar:
      return true;
    case Isa::kAvx2:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      // __builtin_cpu_supports folds in the XGETBV/OS-state checks.
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case Isa::kAvx512:
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

Isa BestSupportedIsa() {
  if (IsaSupported(Isa::kAvx512)) return Isa::kAvx512;
  if (IsaSupported(Isa::kAvx2)) return Isa::kAvx2;
  return Isa::kScalar;
}

Isa ActiveIsa() {
  const int v = g_active.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Isa>(v);
  return Publish(ResolveFromEnv());
}

Isa ForceIsa(Isa isa) { return Publish(ClampToSupported(isa)); }

Isa RefreshIsaFromEnv() { return Publish(ResolveFromEnv()); }

// ---- Dispatched kernels ------------------------------------------------
// The per-level cases collapse to scalar when the variant was not
// compiled in (non-x86 targets), keeping every call site portable.

void Gemm(Isa isa, GemmMode mode, const double* a, size_t a_row_stride,
          size_t a_col_stride, const double* b, double* c, size_t rows,
          size_t ac, size_t bc) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::GemmAvx512(mode, a, a_row_stride, a_col_stride, b, c, rows, ac,
                         bc);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::GemmAvx2(mode, a, a_row_stride, a_col_stride, b, c, rows, ac,
                       bc);
      return;
#endif
    default:
      if (mode == GemmMode::kAdd) {
        GemmScalar<true>(a, a_row_stride, a_col_stride, b, c, rows, ac, bc);
      } else {
        GemmScalar<false>(a, a_row_stride, a_col_stride, b, c, rows, ac, bc);
      }
      return;
  }
}

void BiasRows(Isa isa, double* c, const double* bias, size_t rows,
              size_t cols) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::BiasAvx512(c, bias, rows, cols);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::BiasAvx2(c, bias, rows, cols);
      return;
#endif
    default:
      BiasScalar(c, bias, rows, cols);
      return;
  }
}

void SigmoidN(Isa isa, double* d, size_t n) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::SigmoidAvx512(d, n);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::SigmoidAvx2(d, n);
      return;
#endif
    default:
      SigmoidScalar(d, n);
      return;
  }
}

void TanhN(Isa isa, double* d, size_t n) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::TanhAvx512(d, n);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::TanhAvx2(d, n);
      return;
#endif
    default:
      TanhScalar(d, n);
      return;
  }
}

void AddSigmoidN(Isa isa, const double* a, const double* b, double* out,
                 size_t n) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::AddSigmoidAvx512(a, b, out, n);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::AddSigmoidAvx2(a, b, out, n);
      return;
#endif
    default:
      AddSigmoidScalar(a, b, out, n);
      return;
  }
}

void AddTanhN(Isa isa, const double* a, const double* b, double* out,
              size_t n) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::AddTanhAvx512(a, b, out, n);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::AddTanhAvx2(a, b, out, n);
      return;
#endif
    default:
      AddTanhScalar(a, b, out, n);
      return;
  }
}

void MulN(Isa isa, const double* a, const double* b, double* out, size_t n) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::MulAvx512(a, b, out, n);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::MulAvx2(a, b, out, n);
      return;
#endif
    default:
      MulScalar(a, b, out, n);
      return;
  }
}

void GruCombineN(Isa isa, const double* z, const double* n, const double* h,
                 double* out, size_t count) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::GruCombineAvx512(z, n, h, out, count);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::GruCombineAvx2(z, n, h, out, count);
      return;
#endif
    default:
      GruCombineScalar(z, n, h, out, count);
      return;
  }
}

void SigmoidGradN(Isa isa, const double* dy, const double* y, double* g,
                  size_t n) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::SigmoidGradAvx512(dy, y, g, n);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::SigmoidGradAvx2(dy, y, g, n);
      return;
#endif
    default:
      SigmoidGradScalar(dy, y, g, n);
      return;
  }
}

void TanhGradN(Isa isa, const double* dy, const double* y, double* g,
               size_t n) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::TanhGradAvx512(dy, y, g, n);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::TanhGradAvx2(dy, y, g, n);
      return;
#endif
    default:
      TanhGradScalar(dy, y, g, n);
      return;
  }
}

void AdamN(Isa isa, const AdamCoeffs& c, const double* grad, double* m,
           double* v, double* value, size_t n) {
  switch (isa) {
#if defined(KGPIP_SIMD_HAVE_AVX512)
    case Isa::kAvx512:
      detail::AdamAvx512(c, grad, m, v, value, n);
      return;
#endif
#if defined(KGPIP_SIMD_HAVE_AVX2)
    case Isa::kAvx2:
      detail::AdamAvx2(c, grad, m, v, value, n);
      return;
#endif
    default:
      AdamScalar(c, grad, m, v, value, n);
      return;
  }
}

}  // namespace kgpip::nn::simd
