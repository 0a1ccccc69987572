#ifndef KGPIP_NN_SIMD_KERNELS_IMPL_H_
#define KGPIP_NN_SIMD_KERNELS_IMPL_H_

// Templated bodies of the intrinsic kernels, included ONLY by the
// per-ISA translation units (simd_kernels_avx2.cc / _avx512.cc), each of
// which supplies a vector-ops trait and builds with the matching -m
// flag. One arithmetic expression, evaluated at different widths.
//
// Bit-identity ground rules (enforced by tests/simd_kernel_test.cc):
//   - Packed IEEE add/sub/mul/div round per lane exactly like their
//     scalar forms, so any kernel whose lanes map to independent output
//     elements is width-invariant by construction.
//   - No FMA: multiply and add are issued as separate intrinsics and
//     these TUs build with -ffp-contract=off, so the compiler may not
//     re-fuse them.
//   - GEMM keeps the scalar reference's exact chain per output element:
//     from +0.0, ascending k, the a(i,k)==0.0 *skip* (adding 0.0 would
//     flip a -0.0 accumulator to +0.0), finished in registers before it
//     is stored, or added to C once.
//   - The transcendental kernels evaluate FastExp/FastSigmoid/FastTanh
//     (fastmath.h) as the same straight-line expression over shared
//     constants; clamps use compare+blend so a NaN lane takes the same
//     path as the scalar ternary (NaN compares false, keeps x).
//   - Ragged tails use masked loads/stores of the SAME vector
//     expression rather than scalar cleanup calls: disabled lanes load
//     as 0.0, compute junk, and are never stored. (Calling the inline
//     fastmath functions here could let the linker keep THIS TU's
//     AVX-coded comdat copy for scalar callers elsewhere — an ISA trap
//     we avoid by never referencing them.)
//
// The Ops trait contract:
//   using V = <vector of kW doubles>;  using MaskT = <lane mask>;
//   static constexpr size_t kW;
//   Load/Store (unaligned), MaskLoad (zeroing)/MaskStore, TailMask(n)
//   Broadcast, Add, Sub, Mul, Div, Sqrt
//   SelGt(x, b) -> x > b ? b : x;  SelLt(x, b) -> x < b ? b : x
//   And/AndNot/Or/Xor (bitwise on the double pattern)
//   ExpScale(kd) -> 2^kd via exponent-bit construction (kd integral)

#include <cstddef>

#include "nn/fastmath.h"
#include "nn/simd_kernels.h"

namespace kgpip::nn::simd::detail {

template <class Ops>
struct Kernels {
  using V = typename Ops::V;
  using MaskT = typename Ops::MaskT;
  static constexpr size_t kW = Ops::kW;

  // ---- GEMM -------------------------------------------------------------

  // One register-blocked panel: MR rows x NV vector columns. Every
  // accumulator starts at +0.0 and takes its element's whole chain, k
  // ascending, in registers; the finished chain is stored (kAdd false)
  // or added to C once as C + chain. B's row vectors are loaded once per
  // k and shared by all MR rows; A is read through its strides, and the
  // zero-skip stays a scalar per-(row,k) branch. kUnitCs fixes A's
  // column stride at 1 (a row-major A): with the stride known, GCC
  // indexes A as a plain array, and the one-row panels of the forward
  // GEMMs ran ~20% slower with it read at run time.
  template <bool kAdd, bool kUnitCs, size_t MR, size_t NV, bool kMaskedTail>
  static inline void MicroPanel(const double* a, size_t rs, size_t cs_in,
                                const double* b, double* c, size_t i0,
                                size_t ac, size_t bc, size_t j, MaskT tail) {
    const size_t cs = kUnitCs ? 1 : cs_in;
    V acc[MR][NV];
    for (size_t m = 0; m < MR; ++m) {
      for (size_t v = 0; v < NV; ++v) acc[m][v] = Ops::Broadcast(0.0);
    }
    for (size_t k = 0; k < ac; ++k) {
      const double* brow = b + k * bc + j;
      V bv[NV];
      for (size_t v = 0; v < NV; ++v) {
        if constexpr (kMaskedTail) {
          bv[v] = Ops::MaskLoad(brow + v * kW, tail);
        } else {
          bv[v] = Ops::Load(brow + v * kW);
        }
      }
      for (size_t m = 0; m < MR; ++m) {
        const double amk = a[(i0 + m) * rs + k * cs];
        if (amk == 0.0) continue;
        const V va = Ops::Broadcast(amk);
        for (size_t v = 0; v < NV; ++v) {
          acc[m][v] = Ops::Add(acc[m][v], Ops::Mul(va, bv[v]));
        }
      }
    }
    for (size_t m = 0; m < MR; ++m) {
      double* crow = c + (i0 + m) * bc + j;
      for (size_t v = 0; v < NV; ++v) {
        V out = acc[m][v];
        if constexpr (kMaskedTail) {
          if constexpr (kAdd) {
            out = Ops::Add(Ops::MaskLoad(crow + v * kW, tail), out);
          }
          Ops::MaskStore(crow + v * kW, tail, out);
        } else {
          if constexpr (kAdd) out = Ops::Add(Ops::Load(crow + v * kW), out);
          Ops::Store(crow + v * kW, out);
        }
      }
    }
  }

  template <bool kAdd, bool kUnitCs, size_t MR>
  static inline void RowBlock(const double* a, size_t rs, size_t cs,
                              const double* b, double* c, size_t i0,
                              size_t ac, size_t bc) {
    size_t j = 0;
    const MaskT no_mask{};
    for (; j + 2 * kW <= bc; j += 2 * kW) {
      MicroPanel<kAdd, kUnitCs, MR, 2, false>(a, rs, cs, b, c, i0, ac, bc, j,
                                              no_mask);
    }
    for (; j + kW <= bc; j += kW) {
      MicroPanel<kAdd, kUnitCs, MR, 1, false>(a, rs, cs, b, c, i0, ac, bc, j,
                                              no_mask);
    }
    if (j < bc) {
      MicroPanel<kAdd, kUnitCs, MR, 1, true>(a, rs, cs, b, c, i0, ac, bc, j,
                                             Ops::TailMask(bc - j));
    }
  }

  template <bool kAdd, bool kUnitCs>
  static void Rows(const double* a, size_t rs, size_t cs, const double* b,
                   double* c, size_t rows, size_t ac, size_t bc) {
    size_t i = 0;
    for (; i + 4 <= rows; i += 4) {
      RowBlock<kAdd, kUnitCs, 4>(a, rs, cs, b, c, i, ac, bc);
    }
    for (; i < rows; ++i) {
      RowBlock<kAdd, kUnitCs, 1>(a, rs, cs, b, c, i, ac, bc);
    }
  }

  // C(rows x bc) = A * B (kAdd false) or C += A * B, with
  // a(i, k) = a[i * rs + k * cs]; see simd::Gemm.
  template <bool kAdd>
  static void Gemm(const double* a, size_t rs, size_t cs, const double* b,
                   double* c, size_t rows, size_t ac, size_t bc) {
    if (cs == 1) {
      Rows<kAdd, true>(a, rs, cs, b, c, rows, ac, bc);
    } else {
      Rows<kAdd, false>(a, rs, cs, b, c, rows, ac, bc);
    }
  }

  // ---- Transcendentals --------------------------------------------------

  // FastExp, lane-parallel. Same expression, same constants.
  static inline V ExpV(V x) {
    x = Ops::SelGt(x, Ops::Broadcast(fastexp::kClamp));
    x = Ops::SelLt(x, Ops::Broadcast(-fastexp::kClamp));
    const V shift = Ops::Broadcast(fastexp::kShift);
    const V t = Ops::Add(Ops::Mul(x, Ops::Broadcast(fastexp::kLog2e)), shift);
    const V kd = Ops::Sub(t, shift);
    const V r =
        Ops::Sub(Ops::Sub(x, Ops::Mul(kd, Ops::Broadcast(fastexp::kLn2Hi))),
                 Ops::Mul(kd, Ops::Broadcast(fastexp::kLn2Lo)));
    V p = Ops::Broadcast(fastexp::kPolyLead);
    for (double c : fastexp::kPoly) {
      p = Ops::Add(Ops::Mul(p, r), Ops::Broadcast(c));
    }
    return Ops::Mul(p, Ops::ExpScale(kd));
  }

  static inline V SigmoidV(V x) {
    const V one = Ops::Broadcast(1.0);
    // -x is a sign-bit flip in IEEE, like the scalar negation.
    const V nx = Ops::Xor(x, Ops::Broadcast(-0.0));
    return Ops::Div(one, Ops::Add(one, ExpV(nx)));
  }

  static inline V TanhV(V x) {
    const V sign = Ops::Broadcast(-0.0);
    V ax = Ops::AndNot(sign, x);  // fabs: clear the sign bit
    ax = Ops::SelGt(ax, Ops::Broadcast(fastexp::kTanhClamp));
    const V z = ExpV(Ops::Mul(Ops::Broadcast(2.0), ax));
    const V one = Ops::Broadcast(1.0);
    const V t = Ops::Div(Ops::Sub(z, one), Ops::Add(z, one));
    // copysign(t, x) bit for bit.
    return Ops::Or(Ops::AndNot(sign, t), Ops::And(sign, x));
  }

  static inline V GruCombineV(V z, V n, V h) {
    const V zn = Ops::Mul(z, n);
    const V a = Ops::Add(n, Ops::Mul(Ops::Broadcast(-1.0), zn));
    return Ops::Add(a, Ops::Mul(z, h));
  }

  // ---- Elementwise drivers (masked tails, no scalar cleanup) ------------

  static void Sigmoid(double* d, size_t n) {
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      Ops::Store(d + i, SigmoidV(Ops::Load(d + i)));
    }
    if (i < n) {
      const MaskT m = Ops::TailMask(n - i);
      Ops::MaskStore(d + i, m, SigmoidV(Ops::MaskLoad(d + i, m)));
    }
  }

  static void Tanh(double* d, size_t n) {
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      Ops::Store(d + i, TanhV(Ops::Load(d + i)));
    }
    if (i < n) {
      const MaskT m = Ops::TailMask(n - i);
      Ops::MaskStore(d + i, m, TanhV(Ops::MaskLoad(d + i, m)));
    }
  }

  static void AddSigmoid(const double* a, const double* b, double* out,
                         size_t n) {
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      Ops::Store(out + i,
                 SigmoidV(Ops::Add(Ops::Load(a + i), Ops::Load(b + i))));
    }
    if (i < n) {
      const MaskT m = Ops::TailMask(n - i);
      Ops::MaskStore(
          out + i, m,
          SigmoidV(Ops::Add(Ops::MaskLoad(a + i, m), Ops::MaskLoad(b + i, m))));
    }
  }

  static void AddTanh(const double* a, const double* b, double* out,
                      size_t n) {
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      Ops::Store(out + i, TanhV(Ops::Add(Ops::Load(a + i), Ops::Load(b + i))));
    }
    if (i < n) {
      const MaskT m = Ops::TailMask(n - i);
      Ops::MaskStore(
          out + i, m,
          TanhV(Ops::Add(Ops::MaskLoad(a + i, m), Ops::MaskLoad(b + i, m))));
    }
  }

  static void Mul(const double* a, const double* b, double* out, size_t n) {
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      Ops::Store(out + i, Ops::Mul(Ops::Load(a + i), Ops::Load(b + i)));
    }
    if (i < n) {
      const MaskT m = Ops::TailMask(n - i);
      Ops::MaskStore(out + i, m,
                     Ops::Mul(Ops::MaskLoad(a + i, m), Ops::MaskLoad(b + i, m)));
    }
  }

  static void GruCombine(const double* z, const double* n, const double* h,
                         double* out, size_t count) {
    size_t i = 0;
    for (; i + kW <= count; i += kW) {
      Ops::Store(out + i, GruCombineV(Ops::Load(z + i), Ops::Load(n + i),
                                      Ops::Load(h + i)));
    }
    if (i < count) {
      const MaskT m = Ops::TailMask(count - i);
      Ops::MaskStore(out + i, m,
                     GruCombineV(Ops::MaskLoad(z + i, m), Ops::MaskLoad(n + i, m),
                                 Ops::MaskLoad(h + i, m)));
    }
  }

  // ---- Training backward and optimizer ----------------------------------

  static inline V SigmoidGradV(V dy, V y) {
    return Ops::Mul(Ops::Mul(dy, y), Ops::Sub(Ops::Broadcast(1.0), y));
  }

  static inline V TanhGradV(V dy, V y) {
    return Ops::Mul(dy, Ops::Sub(Ops::Broadcast(1.0), Ops::Mul(y, y)));
  }

  static void SigmoidGrad(const double* dy, const double* y, double* g,
                          size_t n) {
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      Ops::Store(g + i, Ops::Add(Ops::Load(g + i),
                                 SigmoidGradV(Ops::Load(dy + i),
                                              Ops::Load(y + i))));
    }
    if (i < n) {
      const MaskT m = Ops::TailMask(n - i);
      Ops::MaskStore(g + i, m,
                     Ops::Add(Ops::MaskLoad(g + i, m),
                              SigmoidGradV(Ops::MaskLoad(dy + i, m),
                                           Ops::MaskLoad(y + i, m))));
    }
  }

  static void TanhGrad(const double* dy, const double* y, double* g,
                       size_t n) {
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      Ops::Store(g + i, Ops::Add(Ops::Load(g + i),
                                 TanhGradV(Ops::Load(dy + i),
                                           Ops::Load(y + i))));
    }
    if (i < n) {
      const MaskT m = Ops::TailMask(n - i);
      Ops::MaskStore(g + i, m,
                     Ops::Add(Ops::MaskLoad(g + i, m),
                              TanhGradV(Ops::MaskLoad(dy + i, m),
                                        Ops::MaskLoad(y + i, m))));
    }
  }

  // One Adam element per lane; updates m, v and value in registers.
  static inline void AdamV(const AdamCoeffs& c, V grad, V* m, V* v,
                           V* value) {
    const V g = Ops::Mul(grad, Ops::Broadcast(c.scale));
    *m = Ops::Add(Ops::Mul(Ops::Broadcast(c.beta1), *m),
                  Ops::Mul(Ops::Broadcast(c.one_minus_beta1), g));
    *v = Ops::Add(Ops::Mul(Ops::Broadcast(c.beta2), *v),
                  Ops::Mul(Ops::Mul(Ops::Broadcast(c.one_minus_beta2), g), g));
    const V m_hat = Ops::Div(*m, Ops::Broadcast(c.bc1));
    const V v_hat = Ops::Div(*v, Ops::Broadcast(c.bc2));
    const V step = Ops::Div(Ops::Mul(Ops::Broadcast(c.lr), m_hat),
                            Ops::Add(Ops::Sqrt(v_hat), Ops::Broadcast(c.eps)));
    *value = Ops::Sub(*value, step);
  }

  static void Adam(const AdamCoeffs& c, const double* grad, double* m,
                   double* v, double* value, size_t n) {
    size_t i = 0;
    for (; i + kW <= n; i += kW) {
      V mv = Ops::Load(m + i);
      V vv = Ops::Load(v + i);
      V pv = Ops::Load(value + i);
      AdamV(c, Ops::Load(grad + i), &mv, &vv, &pv);
      Ops::Store(m + i, mv);
      Ops::Store(v + i, vv);
      Ops::Store(value + i, pv);
    }
    if (i < n) {
      const MaskT mask = Ops::TailMask(n - i);
      V mv = Ops::MaskLoad(m + i, mask);
      V vv = Ops::MaskLoad(v + i, mask);
      V pv = Ops::MaskLoad(value + i, mask);
      AdamV(c, Ops::MaskLoad(grad + i, mask), &mv, &vv, &pv);
      Ops::MaskStore(m + i, mask, mv);
      Ops::MaskStore(v + i, mask, vv);
      Ops::MaskStore(value + i, mask, pv);
    }
  }

  static void Bias(double* c, const double* bias, size_t rows, size_t cols) {
    for (size_t r = 0; r < rows; ++r) {
      double* row = c + r * cols;
      size_t j = 0;
      for (; j + kW <= cols; j += kW) {
        Ops::Store(row + j, Ops::Add(Ops::Load(row + j), Ops::Load(bias + j)));
      }
      if (j < cols) {
        const MaskT m = Ops::TailMask(cols - j);
        Ops::MaskStore(row + j, m,
                       Ops::Add(Ops::MaskLoad(row + j, m),
                                Ops::MaskLoad(bias + j, m)));
      }
    }
  }
};

}  // namespace kgpip::nn::simd::detail

#endif  // KGPIP_NN_SIMD_KERNELS_IMPL_H_
