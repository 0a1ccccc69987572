#ifndef KGPIP_NN_SIMD_KERNELS_H_
#define KGPIP_NN_SIMD_KERNELS_H_

#include <cstddef>

namespace kgpip::nn::simd {

/// Hand-written SIMD micro-kernels for the generator's linear algebra:
/// the serve-time decode, and training's forward, backward and Adam.
///
/// Three implementations of every kernel — scalar reference, AVX2
/// intrinsics, AVX-512F intrinsics — all producing **byte-identical**
/// output:
///   - GEMM keeps one independent accumulation chain per output element,
///     walking k in ascending order from +0.0 and skipping zero A
///     coefficients, the chain the scalar reference runs.
///     SIMD lanes map to distinct output columns, and packed IEEE
///     mul/add round exactly like their scalar forms lane by lane, so
///     width cannot change a single bit. FMA contraction is forbidden
///     (these files build with -ffp-contract=off; the kernels issue
///     separate multiply and add).
///   - The activation kernels evaluate the *same* straight-line
///     expression as FastExp/FastSigmoid/FastTanh (fastmath.h), sharing
///     its constants, one lane per element; ragged tails fall back to
///     the scalar inline functions themselves.
///
/// Dispatch: the active level resolves once from CPUID, overridable via
/// the KGPIP_ISA environment variable ("scalar" / "avx2" / "avx512" —
/// clamped down to what the host supports) or ForceIsa() from tests.
/// "scalar" means the reference C++ kernels (the compiler may still
/// auto-vectorize them; output is bit-identical either way).

enum class Isa { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Stable lowercase name ("scalar", "avx2", "avx512").
const char* IsaName(Isa isa);

/// Whether the kernel variant was compiled into this binary (x86-64 +
/// GCC/Clang builds carry all three; other targets scalar only).
bool IsaCompiled(Isa isa);

/// Compiled AND executable on this host (CPUID + OS state checked).
bool IsaSupported(Isa isa);

/// The widest supported level.
Isa BestSupportedIsa();

/// The level the dispatched kernels currently run at. Resolves lazily on
/// first use: KGPIP_ISA override if set, else BestSupportedIsa(). Also
/// exported as the `nn.isa_level` gauge (0/1/2) for statusz/audit
/// attribution.
Isa ActiveIsa();

/// Overrides the active level (clamped down to IsaSupported); returns
/// the level actually applied. Not synchronized with in-flight kernel
/// calls — switch between decodes only (tests, startup).
Isa ForceIsa(Isa isa);

/// Re-resolves the active level from KGPIP_ISA + CPUID (used at startup
/// and by the dispatch-override tests after setenv).
Isa RefreshIsaFromEnv();

// --- Kernels. Every function takes the ISA level explicitly so tests
// can sweep levels in one process; callers wanting dispatch pass
// ActiveIsa(). Calling a level for which IsaSupported() is false is
// undefined behavior (illegal instruction on older hosts).

/// How Gemm writes its product into C.
enum class GemmMode {
  kStore,  // C = A * B
  kAdd,    // C += A * B
};

/// C(rows x bc) = A(rows x ac) * B(ac x bc), or C += it in kAdd mode.
/// B and C are row-major; A is read through strides, a(i, k) =
/// a[i * a_row_stride + k * a_col_stride], so a row-major A passes
/// (ac, 1) and the transpose of a row-major ac x rows matrix passes
/// (1, rows) and is read in place. Each element's product is one chain
/// from +0.0 over ascending k that skips a(i, k) == 0.0, finished in
/// registers, then stored, or added once as C + product: the bits of
/// forming the product in zeroed scratch and adding it elementwise.
/// C must not alias A or B.
void Gemm(Isa isa, GemmMode mode, const double* a, size_t a_row_stride,
          size_t a_col_stride, const double* b, double* c, size_t rows,
          size_t ac, size_t bc);

/// row[j] += bias[j] for every row of C (the bias tail of a fused linear
/// layer; one row at a time it also sums the bias gradient).
void BiasRows(Isa isa, double* c, const double* bias, size_t rows,
              size_t cols);

/// In-place elementwise activations over a flat buffer.
void SigmoidN(Isa isa, double* d, size_t n);
void TanhN(Isa isa, double* d, size_t n);

/// out[i] = FastSigmoid(a[i] + b[i]) / FastTanh(a[i] + b[i]) — the GRU
/// gate squash over pre-summed x/h affine panels. out may alias a or b.
void AddSigmoidN(Isa isa, const double* a, const double* b, double* out,
                 size_t n);
void AddTanhN(Isa isa, const double* a, const double* b, double* out,
              size_t n);

/// out[i] = a[i] * b[i]; out may alias b but not a (matches MulInto).
void MulN(Isa isa, const double* a, const double* b, double* out, size_t n);

/// The GRU output combine, association preserved from the tape
/// expression Add(Sub(n, Mul(z, n)), Mul(z, h)):
///   out[i] = (n[i] + (-1) * (z[i] * n[i])) + z[i] * h[i].
void GruCombineN(Isa isa, const double* z, const double* n, const double* h,
                 double* out, size_t count);

/// Training backward of the activations, accumulating into `g` with the
/// tape's association (y is the forward output, dy the output grad):
///   SigmoidGradN: g[i] += (dy[i] * y[i]) * (1.0 - y[i])
///   TanhGradN:    g[i] += dy[i] * (1.0 - y[i] * y[i])
void SigmoidGradN(Isa isa, const double* dy, const double* y, double* g,
                  size_t n);
void TanhGradN(Isa isa, const double* dy, const double* y, double* g,
               size_t n);

/// Per-step constants of an Adam update (nn::Adam::Step).
struct AdamCoeffs {
  double scale;            // global-norm clip factor applied to the grad
  double beta1, beta2;
  double one_minus_beta1;  // 1 - beta1
  double one_minus_beta2;  // 1 - beta2
  double bc1, bc2;         // bias corrections 1 - beta^t
  double lr, eps;
};

/// One Adam update of n parameters, per element exactly
///   g = grad * scale
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + ((1 - beta2) * g) * g
///   value -= (lr * (m / bc1)) / (sqrt(v / bc2) + eps)
/// sqrt and division are correctly rounded at every level.
void AdamN(Isa isa, const AdamCoeffs& c, const double* grad, double* m,
           double* v, double* value, size_t n);

}  // namespace kgpip::nn::simd

#endif  // KGPIP_NN_SIMD_KERNELS_H_
