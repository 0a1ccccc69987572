// SIMD kernel equivalence suite: the dispatched AVX2/AVX-512 micro-
// kernels (nn/simd_kernels.h) must be BIT-identical to the scalar
// reference at every shape — including every masked-tail and partial-
// register-panel case — because the whole training/serving equivalence
// story (gen_equivalence_test.cc) rests on kernel output being a pure
// function of the math, not of the instruction set. Comparisons are
// memcmp over the raw doubles: "close" is a bug here.
//
// Levels the host cannot execute are skipped (the suite still proves
// scalar==AVX2 on an AVX2-only machine); KGPIP_ISA / ForceIsa dispatch
// plumbing is covered separately, and a final test pins the batched
// GenerateTopK decode to k independent Generate calls byte-for-byte.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/graph_generator.h"
#include "graph4ml/vocab.h"
#include "nn/fastmath.h"
#include "nn/matrix.h"
#include "nn/simd_kernels.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kgpip {
namespace {

using nn::simd::Isa;

std::vector<Isa> TestableSimdLevels() {
  std::vector<Isa> levels;
  if (nn::simd::IsaSupported(Isa::kAvx2)) levels.push_back(Isa::kAvx2);
  if (nn::simd::IsaSupported(Isa::kAvx512)) levels.push_back(Isa::kAvx512);
  return levels;
}

// Fills with a mix of normals, exact zeros (the GEMM zero-skip path),
// and negative zeros (which the skip must NOT normalize away on the
// SIMD side any differently than the scalar side).
std::vector<double> RandomBuffer(size_t n, Rng* rng) {
  std::vector<double> out(n);
  for (double& v : out) {
    const uint64_t roll = rng->UniformInt(uint64_t{10});
    if (roll == 0) {
      v = 0.0;
    } else if (roll == 1) {
      v = -0.0;
    } else {
      v = rng->Normal();
    }
  }
  return out;
}

void ExpectBitEqual(const std::vector<double>& ref,
                    const std::vector<double>& got, Isa isa,
                    const std::string& what) {
  ASSERT_EQ(ref.size(), got.size());
  if (std::memcmp(ref.data(), got.data(), ref.size() * sizeof(double)) ==
      0) {
    return;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    uint64_t rb = 0;
    uint64_t gb = 0;
    std::memcpy(&rb, &ref[i], sizeof(rb));
    std::memcpy(&gb, &got[i], sizeof(gb));
    ASSERT_EQ(rb, gb) << what << " diverges from scalar at element " << i
                      << " under " << nn::simd::IsaName(isa) << ": "
                      << ref[i] << " vs " << got[i];
  }
}

// Every M, N, K small enough to enumerate plus the first shapes on
// either side of the vector widths (4 for AVX2, 8 for AVX-512) and of
// the kernel's 2-vector column blocks — so full panels, lone-vector
// columns, masked tails, and single-row remainders all occur.
const size_t kShapeSweep[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17,
                              31, 32, 33, 64};

// GEMM inner sizes: the sweep plus sizes across the 64-wide k tile the
// kernel used to have (a chain must not notice where a tile ended).
std::vector<size_t> GemmInnerSweep() {
  std::vector<size_t> out(std::begin(kShapeSweep), std::end(kShapeSweep));
  out.insert(out.end(), {65, 127, 130});
  return out;
}

// Gemm at `isa` over a copy of `c0`. With `a_transposed`, `a` holds the
// k x m matrix whose transpose is read in place.
std::vector<double> RunGemm(Isa isa, nn::simd::GemmMode mode,
                            const std::vector<double>& a, bool a_transposed,
                            const std::vector<double>& b,
                            const std::vector<double>& c0, size_t m,
                            size_t k, size_t n) {
  std::vector<double> c = c0;
  nn::simd::Gemm(isa, mode, a.data(), a_transposed ? 1 : k,
                 a_transposed ? m : 1, b.data(), c.data(), m, k, n);
  return c;
}

const nn::simd::GemmMode kGemmModes[] = {nn::simd::GemmMode::kStore,
                                         nn::simd::GemmMode::kAdd};

TEST(SimdKernelTest, GemmMatchesScalarBitwiseAcrossShapeSweep) {
  // Both modes, with A row-major and read transposed in place, into a C
  // holding zeros of both signs: every level equals the scalar kernel.
  const std::vector<Isa> levels = TestableSimdLevels();
  if (levels.empty()) GTEST_SKIP() << "host has no SIMD kernel support";
  Rng rng(11);
  for (size_t m : kShapeSweep) {
    for (size_t n : kShapeSweep) {
      for (size_t k : GemmInnerSweep()) {
        const std::vector<double> a = RandomBuffer(m * k, &rng);
        const std::vector<double> b = RandomBuffer(k * n, &rng);
        const std::vector<double> c0 = RandomBuffer(m * n, &rng);
        for (nn::simd::GemmMode mode : kGemmModes) {
          for (bool transposed : {false, true}) {
            const std::vector<double> ref =
                RunGemm(Isa::kScalar, mode, a, transposed, b, c0, m, k, n);
            for (Isa isa : levels) {
              ExpectBitEqual(
                  ref, RunGemm(isa, mode, a, transposed, b, c0, m, k, n), isa,
                  std::string(mode == nn::simd::GemmMode::kAdd ? "add"
                                                               : "store") +
                      (transposed ? " gemm T " : " gemm ") +
                      std::to_string(m) + "x" + std::to_string(k) + "*" +
                      std::to_string(n));
              if (HasFatalFailure()) return;
            }
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, GemmModesEqualTheirScratchAndPackedForms) {
  // At every level, scalar included: store mode is each element's
  // ascending-k chain from +0.0 that skips zero coefficients, written
  // out here in plain C++; add mode equals MatMulInto into zeroed
  // scratch followed by an elementwise add (C first); and reading A
  // transposed in place equals reading a packed transpose.
  std::vector<Isa> levels = TestableSimdLevels();
  levels.insert(levels.begin(), Isa::kScalar);
  Rng rng(17);
  for (size_t m : kShapeSweep) {
    for (size_t n : kShapeSweep) {
      for (size_t k : GemmInnerSweep()) {
        nn::Matrix a(m, k);
        nn::Matrix b(k, n);
        const std::vector<double> a_data = RandomBuffer(m * k, &rng);
        const std::vector<double> b_data = RandomBuffer(k * n, &rng);
        std::copy(a_data.begin(), a_data.end(), a.data());
        std::copy(b_data.begin(), b_data.end(), b.data());
        const std::vector<double> c0 = RandomBuffer(m * n, &rng);
        std::vector<double> chains(m * n);
        for (size_t i = 0; i < m; ++i) {
          for (size_t j = 0; j < n; ++j) {
            double s = 0.0;
            for (size_t kk = 0; kk < k; ++kk) {
              if (a(i, kk) != 0.0) s += a(i, kk) * b(kk, j);
            }
            chains[i * n + j] = s;
          }
        }
        nn::Matrix scratch(m, n, 0.0);
        nn::Matrix::MatMulInto(a, b, &scratch);
        std::vector<double> added = c0;
        for (size_t e = 0; e < added.size(); ++e) added[e] += scratch.data()[e];
        const nn::Matrix at = a.Transposed();
        const std::vector<double> at_data(at.data(), at.data() + at.size());
        const std::string shape = std::to_string(m) + "x" +
                                  std::to_string(k) + "*" + std::to_string(n);
        for (Isa isa : levels) {
          const std::vector<double> stored = RunGemm(
              isa, nn::simd::GemmMode::kStore, a_data, false, b_data, c0, m,
              k, n);
          ExpectBitEqual(chains, stored, isa, "store chains " + shape);
          ExpectBitEqual(added,
                         RunGemm(isa, nn::simd::GemmMode::kAdd, a_data, false,
                                 b_data, c0, m, k, n),
                         isa, "add vs scratch + add " + shape);
          for (nn::simd::GemmMode mode : kGemmModes) {
            ExpectBitEqual(
                RunGemm(isa, mode, a_data, false, b_data, c0, m, k, n),
                RunGemm(isa, mode, at_data, true, b_data, c0, m, k, n), isa,
                "in-place vs packed transpose " + shape);
          }
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(SimdKernelTest, BiasRowsMatchesScalarBitwise) {
  const std::vector<Isa> levels = TestableSimdLevels();
  if (levels.empty()) GTEST_SKIP() << "host has no SIMD kernel support";
  Rng rng(12);
  for (size_t rows : {size_t{1}, size_t{3}, size_t{8}}) {
    for (size_t cols : kShapeSweep) {
      const std::vector<double> base = RandomBuffer(rows * cols, &rng);
      const std::vector<double> bias = RandomBuffer(cols, &rng);
      std::vector<double> ref = base;
      nn::simd::BiasRows(Isa::kScalar, ref.data(), bias.data(), rows, cols);
      for (Isa isa : levels) {
        std::vector<double> got = base;
        nn::simd::BiasRows(isa, got.data(), bias.data(), rows, cols);
        ExpectBitEqual(ref, got, isa, "bias cols=" + std::to_string(cols));
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(SimdKernelTest, ActivationKernelsMatchScalarBitwise) {
  const std::vector<Isa> levels = TestableSimdLevels();
  if (levels.empty()) GTEST_SKIP() << "host has no SIMD kernel support";
  Rng rng(13);
  for (size_t n : kShapeSweep) {
    // Values spanning the interesting activation regions: the FastExp
    // clamp boundaries, the tanh saturation clamp, zeros of both signs,
    // and ordinary magnitudes.
    std::vector<double> a = RandomBuffer(n, &rng);
    std::vector<double> b = RandomBuffer(n, &rng);
    const double specials[] = {708.5,  -708.5, 707.9, -707.9, 20.5,
                               -20.5,  19.9,   -19.9, 0.0,    -0.0,
                               1e-300, -1e-300};
    for (size_t i = 0; i < n; ++i) {
      if (rng.UniformInt(uint64_t{4}) == 0) {
        a[i] = specials[rng.UniformInt(
            uint64_t{sizeof(specials) / sizeof(specials[0])})];
      }
    }
    const std::vector<double> z = RandomBuffer(n, &rng);

    std::vector<double> ref = a;
    nn::simd::SigmoidN(Isa::kScalar, ref.data(), n);
    for (Isa isa : levels) {
      std::vector<double> got = a;
      nn::simd::SigmoidN(isa, got.data(), n);
      ExpectBitEqual(ref, got, isa, "sigmoid n=" + std::to_string(n));
    }

    ref = a;
    nn::simd::TanhN(Isa::kScalar, ref.data(), n);
    for (Isa isa : levels) {
      std::vector<double> got = a;
      nn::simd::TanhN(isa, got.data(), n);
      ExpectBitEqual(ref, got, isa, "tanh n=" + std::to_string(n));
    }

    std::vector<double> ref2(n);
    nn::simd::AddSigmoidN(Isa::kScalar, a.data(), b.data(), ref2.data(), n);
    for (Isa isa : levels) {
      std::vector<double> got(n);
      nn::simd::AddSigmoidN(isa, a.data(), b.data(), got.data(), n);
      ExpectBitEqual(ref2, got, isa, "add+sigmoid n=" + std::to_string(n));
    }

    nn::simd::AddTanhN(Isa::kScalar, a.data(), b.data(), ref2.data(), n);
    for (Isa isa : levels) {
      std::vector<double> got(n);
      nn::simd::AddTanhN(isa, a.data(), b.data(), got.data(), n);
      ExpectBitEqual(ref2, got, isa, "add+tanh n=" + std::to_string(n));
    }

    nn::simd::MulN(Isa::kScalar, a.data(), b.data(), ref2.data(), n);
    for (Isa isa : levels) {
      std::vector<double> got(n);
      nn::simd::MulN(isa, a.data(), b.data(), got.data(), n);
      ExpectBitEqual(ref2, got, isa, "mul n=" + std::to_string(n));
    }

    nn::simd::GruCombineN(Isa::kScalar, z.data(), a.data(), b.data(),
                          ref2.data(), n);
    for (Isa isa : levels) {
      std::vector<double> got(n);
      nn::simd::GruCombineN(isa, z.data(), a.data(), b.data(), got.data(),
                            n);
      ExpectBitEqual(ref2, got, isa, "gru combine n=" + std::to_string(n));
    }
    if (HasFatalFailure()) return;
  }
}

TEST(SimdKernelTest, TrainingKernelsMatchScalarBitwise) {
  // The activation backward and Adam kernels that training runs on; the
  // scalar Adam kernel must also equal nn::Adam's per-element update
  // written out in plain C++.
  const std::vector<Isa> levels = TestableSimdLevels();
  Rng rng(16);
  nn::simd::AdamCoeffs c;
  c.scale = 0.7;
  c.beta1 = 0.9;
  c.beta2 = 0.999;
  c.one_minus_beta1 = 1.0 - c.beta1;
  c.one_minus_beta2 = 1.0 - c.beta2;
  c.bc1 = 1.0 - std::pow(c.beta1, 3.0);
  c.bc2 = 1.0 - std::pow(c.beta2, 3.0);
  c.lr = 3e-3;
  c.eps = 1e-8;
  for (size_t n : kShapeSweep) {
    const std::vector<double> dy = RandomBuffer(n, &rng);
    const std::vector<double> y = RandomBuffer(n, &rng);
    const std::vector<double> g0 = RandomBuffer(n, &rng);

    std::vector<double> ref = g0;
    nn::simd::SigmoidGradN(Isa::kScalar, dy.data(), y.data(), ref.data(), n);
    for (Isa isa : levels) {
      std::vector<double> got = g0;
      nn::simd::SigmoidGradN(isa, dy.data(), y.data(), got.data(), n);
      ExpectBitEqual(ref, got, isa, "sigmoid grad n=" + std::to_string(n));
    }
    ref = g0;
    nn::simd::TanhGradN(Isa::kScalar, dy.data(), y.data(), ref.data(), n);
    for (Isa isa : levels) {
      std::vector<double> got = g0;
      nn::simd::TanhGradN(isa, dy.data(), y.data(), got.data(), n);
      ExpectBitEqual(ref, got, isa, "tanh grad n=" + std::to_string(n));
    }

    const std::vector<double> grad = RandomBuffer(n, &rng);
    const std::vector<double> m0 = RandomBuffer(n, &rng);
    std::vector<double> v0 = RandomBuffer(n, &rng);
    for (double& v : v0) v = std::fabs(v);
    const std::vector<double> p0 = RandomBuffer(n, &rng);
    std::vector<double> want_m = m0;
    std::vector<double> want_v = v0;
    std::vector<double> want_p = p0;
    for (size_t k = 0; k < n; ++k) {
      double g = grad[k] * c.scale;
      double& m = want_m[k];
      double& v = want_v[k];
      m = c.beta1 * m + (1.0 - c.beta1) * g;
      v = c.beta2 * v + (1.0 - c.beta2) * g * g;
      double m_hat = m / c.bc1;
      double v_hat = v / c.bc2;
      want_p[k] -= c.lr * m_hat / (std::sqrt(v_hat) + c.eps);
    }
    std::vector<Isa> all = levels;
    all.insert(all.begin(), Isa::kScalar);
    for (Isa isa : all) {
      std::vector<double> m = m0;
      std::vector<double> v = v0;
      std::vector<double> p = p0;
      nn::simd::AdamN(isa, c, grad.data(), m.data(), v.data(), p.data(), n);
      const std::string what = "adam n=" + std::to_string(n);
      ExpectBitEqual(want_m, m, isa, what + " m");
      ExpectBitEqual(want_v, v, isa, what + " v");
      ExpectBitEqual(want_p, p, isa, what + " value");
    }
    if (HasFatalFailure()) return;
  }
}

TEST(SimdKernelTest, ActivationsMatchFastmathReference) {
  // The vector activations must reproduce the *scalar inline* fastmath
  // functions (the tape path) — not merely each other.
  Rng rng(14);
  std::vector<double> x = RandomBuffer(97, &rng);
  x.insert(x.end(), {708.5, -708.5, 20.5, -20.5, 0.0, -0.0});
  for (Isa isa : TestableSimdLevels()) {
    std::vector<double> sig = x;
    nn::simd::SigmoidN(isa, sig.data(), sig.size());
    std::vector<double> th = x;
    nn::simd::TanhN(isa, th.data(), th.size());
    for (size_t i = 0; i < x.size(); ++i) {
      uint64_t got = 0;
      uint64_t want = 0;
      const double s = nn::FastSigmoid(x[i]);
      std::memcpy(&got, &sig[i], sizeof(got));
      std::memcpy(&want, &s, sizeof(want));
      ASSERT_EQ(got, want) << "sigmoid(" << x[i] << ") under "
                           << nn::simd::IsaName(isa);
      const double t = nn::FastTanh(x[i]);
      std::memcpy(&got, &th[i], sizeof(got));
      std::memcpy(&want, &t, sizeof(want));
      ASSERT_EQ(got, want) << "tanh(" << x[i] << ") under "
                           << nn::simd::IsaName(isa);
    }
  }
}

TEST(SimdKernelTest, KgpipIsaEnvOverridesDispatch) {
  // Remember the ambient state to restore (other suites in this process
  // would otherwise observe the override).
  const char* prior = std::getenv("KGPIP_ISA");
  const std::string saved = prior != nullptr ? prior : "";
  const Isa before = nn::simd::ActiveIsa();

  ASSERT_EQ(setenv("KGPIP_ISA", "scalar", 1), 0);
  EXPECT_EQ(nn::simd::RefreshIsaFromEnv(), Isa::kScalar);
  EXPECT_EQ(nn::simd::ActiveIsa(), Isa::kScalar);

  if (nn::simd::IsaSupported(Isa::kAvx2)) {
    ASSERT_EQ(setenv("KGPIP_ISA", "avx2", 1), 0);
    EXPECT_EQ(nn::simd::RefreshIsaFromEnv(), Isa::kAvx2);
  }
  // An unsupported or unknown request clamps to something the host can
  // run instead of crashing on an illegal instruction later.
  ASSERT_EQ(setenv("KGPIP_ISA", "avx9000", 1), 0);
  const Isa clamped = nn::simd::RefreshIsaFromEnv();
  EXPECT_TRUE(nn::simd::IsaSupported(clamped));

  ASSERT_EQ(setenv("KGPIP_ISA", "avx512", 1), 0);
  const Isa wide = nn::simd::RefreshIsaFromEnv();
  EXPECT_TRUE(nn::simd::IsaSupported(wide));
  if (nn::simd::IsaSupported(Isa::kAvx512)) {
    EXPECT_EQ(wide, Isa::kAvx512);
  }

  // ForceIsa applies the same clamp.
  EXPECT_EQ(nn::simd::ForceIsa(Isa::kScalar), Isa::kScalar);
  EXPECT_TRUE(nn::simd::IsaSupported(nn::simd::ForceIsa(Isa::kAvx512)));

  if (saved.empty()) {
    unsetenv("KGPIP_ISA");
    nn::simd::ForceIsa(before);
  } else {
    setenv("KGPIP_ISA", saved.c_str(), 1);
    nn::simd::RefreshIsaFromEnv();
  }
}

TEST(SimdKernelTest, BatchedTopKMatchesIndependentGenerates) {
  // The cross-lane batched decode must be invisible: GenerateTopK(k),
  // k independent Generate calls, and k tape decodes on the same forked
  // streams produce byte-identical graphs and log-probs. This is the
  // contract that lets the shard boundaries (and therefore the thread
  // count) vary freely. Generate runs the same decoder as GenerateTopK,
  // so the tape is the independent oracle here.
  gen::GeneratorConfig config;
  config.vocab_size = graph4ml::PipelineVocab::Get().size();
  config.hidden = 24;
  config.prop_rounds = 2;
  config.max_nodes = 8;
  config.condition_dims = 2;
  gen::GraphGenerator generator(config, 7);

  graph4ml::TypedGraph seed;
  seed.node_types = {graph4ml::PipelineVocab::kDatasetType,
                     graph4ml::PipelineVocab::kReadCsvType};
  seed.edges = {{0, 1}};
  const std::vector<double> condition = {0.25, -1.5};

  for (double temperature : {0.9, 0.0}) {
    const size_t k = 9;
    Rng topk_rng(42);
    const std::vector<gen::GeneratedGraph> batched = generator.GenerateTopK(
        seed, condition, k, &topk_rng, temperature);
    ASSERT_EQ(batched.size(), k);

    Rng single_rng(42);
    std::vector<Rng> lanes = util::ForkRngs(&single_rng, k);
    std::vector<Rng> tape_lanes = lanes;
    for (size_t i = 0; i < k; ++i) {
      const gen::GeneratedGraph solo =
          generator.Generate(seed, condition, &lanes[i], temperature);
      const gen::GeneratedGraph tape = generator.GenerateTape(
          seed, condition, &tape_lanes[i], temperature);
      uint64_t bb = 0;
      std::memcpy(&bb, &batched[i].log_prob, sizeof(bb));
      for (const gen::GeneratedGraph* other : {&solo, &tape}) {
        const char* what = other == &solo ? "Generate" : "GenerateTape";
        EXPECT_EQ(batched[i].graph.node_types, other->graph.node_types)
            << what << " lane " << i << " t=" << temperature;
        EXPECT_EQ(batched[i].graph.edges, other->graph.edges)
            << what << " lane " << i << " t=" << temperature;
        uint64_t ob = 0;
        std::memcpy(&ob, &other->log_prob, sizeof(ob));
        EXPECT_EQ(bb, ob) << what << " lane " << i << " log-prob t="
                          << temperature;
      }
    }
  }
}

}  // namespace
}  // namespace kgpip
