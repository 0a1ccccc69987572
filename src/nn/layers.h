#ifndef KGPIP_NN_LAYERS_H_
#define KGPIP_NN_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/autograd.h"
#include "nn/inference.h"
#include "util/json.h"
#include "util/status.h"

namespace kgpip::nn {

/// Owns every trainable parameter of a model; the optimizer and the
/// (de)serializer iterate over it. Parameters live here, not on a tape.
class ParamStore {
 public:
  /// Registers a parameter (Xavier-initialized) and returns its Var.
  Var Create(const std::string& name, size_t rows, size_t cols, Rng* rng);

  /// All registered parameters in registration order.
  const std::vector<Var>& params() const { return params_; }

  void ZeroGrads();

  /// Serializes all parameter values to JSON (name -> flat array + shape).
  Json ToJson() const;

  /// Restores values from `ToJson` output; shapes must match.
  Status FromJson(const Json& json);

 private:
  std::vector<std::unique_ptr<VarNode>> nodes_;
  std::vector<Var> params_;
  std::vector<std::string> names_;
};

/// Fully connected layer: y = x W + b.
class Linear {
 public:
  Linear() = default;
  Linear(ParamStore* store, const std::string& name, size_t in, size_t out,
         Rng* rng);

  /// One Affine node on the active tape.
  Var Forward(const Var& x) const;

  /// Tape-free forward into a caller-owned buffer, optionally fused with
  /// an activation. Bit-identical to `Act(Forward(Var(x))).value()` but
  /// never touches the autograd tape and performs no allocation once
  /// `out` has capacity.
  void ForwardValue(const Matrix& x, Matrix* out,
                    Activation act = Activation::kNone) const;

  const Matrix& weight_value() const { return weight_.value(); }
  const Matrix& bias_value() const { return bias_.value(); }

 private:
  Var weight_;
  Var bias_;
};

/// Caller-owned temporaries for GruFusedForward (nn/inference.h); sized
/// lazily and reused across calls so steady-state propagation allocates
/// nothing.
struct GruScratch {
  Matrix z;     // update gate
  Matrix r;     // reset gate
  Matrix cand;  // candidate state
  Matrix tmp;   // shared per-gate second operand
  Matrix rh;    // r ⊙ h
};

/// Batched GRU cell applied row-wise: every row of `h` (one graph node) is
/// updated from the matching row of `x` (its aggregated message). This is
/// the propagation-update used by the Li et al. (2018) graph generator.
class GruCell {
 public:
  GruCell() = default;
  GruCell(ParamStore* store, const std::string& name, size_t input,
          size_t hidden, Rng* rng);

  Var Forward(const Var& x, const Var& h) const;

  /// Packs the gate weights into column-concatenated panels for
  /// GruFusedForward: `wx = [Wxz | Wxr | Wxn]` (input x 3h) with bias
  /// row `bx`, and `wh2 = [Whz | Whr]` (hidden x 2h) with bias `bh2`.
  /// A single GEMM against a panel produces every output column through
  /// the same ascending-k accumulation chain as the per-gate GEMMs, so
  /// fusion is bit-identical; it just amortizes kernel dispatch and
  /// widens the vectorized panels. Cheap enough to call per decode,
  /// which also keeps the panels fresh after further training.
  void PackFused(Matrix* wx, Matrix* bx, Matrix* wh2, Matrix* bh2) const;

  /// Candidate-gate hidden projection, needed separately by the fused
  /// path (its input is r ⊙ h, which depends on the fused gate output).
  const Linear& hn() const { return hn_; }

 private:
  Linear xz_, hz_;  // update gate
  Linear xr_, hr_;  // reset gate
  Linear xn_, hn_;  // candidate
};

/// Adam optimizer over a ParamStore.
class Adam {
 public:
  explicit Adam(ParamStore* store, double lr = 1e-3, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8);

  /// Applies one update from the accumulated gradients, then zeroes them.
  /// Gradients are clipped to a global norm of `clip` first (0 = off);
  /// the norm is one ordered sum, and the update runs on simd::AdamN,
  /// one pool item per parameter.
  void Step(double clip = 5.0);

  void set_learning_rate(double lr) { lr_ = lr; }
  double learning_rate() const { return lr_; }

 private:
  ParamStore* store_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  int64_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace kgpip::nn

#endif  // KGPIP_NN_LAYERS_H_
