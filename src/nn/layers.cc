#include "nn/layers.h"

#include <cmath>
#include <cstring>

#include "nn/simd_kernels.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace kgpip::nn {

Var ParamStore::Create(const std::string& name, size_t rows, size_t cols,
                       Rng* rng) {
  auto node = std::make_unique<VarNode>();
  node->value = Matrix::Randn(rows, cols, rng);
  node->requires_grad = true;
  params_.emplace_back(node.get());
  nodes_.push_back(std::move(node));
  names_.push_back(name);
  return params_.back();
}

void ParamStore::ZeroGrads() {
  for (Var& p : params_) p.ZeroGrad();
}

Json ParamStore::ToJson() const {
  Json out = Json::Object();
  for (size_t i = 0; i < params_.size(); ++i) {
    Json entry = Json::Object();
    entry.Set("rows", Json(params_[i].value().rows()));
    entry.Set("cols", Json(params_[i].value().cols()));
    Json values = Json::Array();
    const Matrix& m = params_[i].value();
    for (size_t k = 0; k < m.size(); ++k) values.Append(Json(m.data()[k]));
    entry.Set("values", std::move(values));
    out.Set(names_[i], std::move(entry));
  }
  return out;
}

Status ParamStore::FromJson(const Json& json) {
  for (size_t i = 0; i < params_.size(); ++i) {
    if (!json.Has(names_[i])) {
      return Status::NotFound("missing parameter '" + names_[i] + "'");
    }
    const Json& entry = json.Get(names_[i]);
    Matrix& m = params_[i].mutable_value();
    if (static_cast<size_t>(entry.Get("rows").AsInt()) != m.rows() ||
        static_cast<size_t>(entry.Get("cols").AsInt()) != m.cols()) {
      return Status::InvalidArgument("shape mismatch for parameter '" +
                                     names_[i] + "'");
    }
    const Json& values = entry.Get("values");
    if (!values.is_array() || values.size() != m.size()) {
      return Status::InvalidArgument("value count mismatch for '" +
                                     names_[i] + "'");
    }
    for (size_t k = 0; k < m.size(); ++k) {
      m.data()[k] = values.at(k).AsDouble();
    }
  }
  return Status::Ok();
}

Linear::Linear(ParamStore* store, const std::string& name, size_t in,
               size_t out, Rng* rng) {
  weight_ = store->Create(name + ".weight", in, out, rng);
  bias_ = store->Create(name + ".bias", 1, out, rng);
  bias_.mutable_value().Fill(0.0);
}

Var Linear::Forward(const Var& x) const {
  return Affine(x, weight_, bias_);
}

void Linear::ForwardValue(const Matrix& x, Matrix* out, Activation act) const {
  FusedLinear(x, weight_.value(), bias_.value(), act, out);
}

GruCell::GruCell(ParamStore* store, const std::string& name, size_t input,
                 size_t hidden, Rng* rng)
    : xz_(store, name + ".xz", input, hidden, rng),
      hz_(store, name + ".hz", hidden, hidden, rng),
      xr_(store, name + ".xr", input, hidden, rng),
      hr_(store, name + ".hr", hidden, hidden, rng),
      xn_(store, name + ".xn", input, hidden, rng),
      hn_(store, name + ".hn", hidden, hidden, rng) {}

Var GruCell::Forward(const Var& x, const Var& h) const {
  Var z = Sigmoid(Add(xz_.Forward(x), hz_.Forward(h)));
  Var r = Sigmoid(Add(xr_.Forward(x), hr_.Forward(h)));
  Var n = Tanh(Add(xn_.Forward(x), hn_.Forward(Mul(r, h))));
  // h' = (1 - z) * n + z * h  ==  n - z*n + z*h
  return Add(Sub(n, Mul(z, n)), Mul(z, h));
}

void GruCell::PackFused(Matrix* wx, Matrix* bx, Matrix* wh2,
                        Matrix* bh2) const {
  const auto pack = [](const Linear* const* gates, size_t count, Matrix* w,
                       Matrix* b) {
    const Matrix& w0 = gates[0]->weight_value();
    const size_t rows = w0.rows();
    const size_t h = w0.cols();
    w->Reshape(rows, count * h);
    b->Reshape(1, count * h);
    for (size_t g = 0; g < count; ++g) {
      const Matrix& wg = gates[g]->weight_value();
      const Matrix& bg = gates[g]->bias_value();
      for (size_t i = 0; i < rows; ++i) {
        std::memcpy(w->data() + i * count * h + g * h, wg.data() + i * h,
                    h * sizeof(double));
      }
      std::memcpy(b->data() + g * h, bg.data(), h * sizeof(double));
    }
  };
  const Linear* x_gates[] = {&xz_, &xr_, &xn_};
  pack(x_gates, 3, wx, bx);
  const Linear* h_gates[] = {&hz_, &hr_};
  pack(h_gates, 2, wh2, bh2);
}

Adam::Adam(ParamStore* store, double lr, double beta1, double beta2,
           double eps)
    : store_(store), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  for (const Var& p : store_->params()) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::Step(double clip) {
  const std::vector<Var>& params = store_->params();
  KGPIP_CHECK(m_.size() == params.size())
      << "parameters registered after optimizer construction";
  ++t_;
  // Global-norm gradient clipping.
  double scale = 1.0;
  if (clip > 0.0) {
    double norm_sq = 0.0;
    for (const Var& p : params) {
      const Matrix& g = p.grad();
      if (g.size() != p.value().size()) continue;
      for (size_t k = 0; k < g.size(); ++k) {
        norm_sq += g.data()[k] * g.data()[k];
      }
    }
    double norm = std::sqrt(norm_sq);
    if (norm > clip) scale = clip / norm;
  }
  const simd::AdamCoeffs coeffs{
      scale,
      beta1_,
      beta2_,
      1.0 - beta1_,
      1.0 - beta2_,
      1.0 - std::pow(beta1_, static_cast<double>(t_)),
      1.0 - std::pow(beta2_, static_cast<double>(t_)),
      lr_,
      eps_};
  const simd::Isa isa = simd::ActiveIsa();
  // Each parameter's update reads and writes only its own buffers, so
  // the parameters are pool items.
  util::ThreadPool::Global().ParallelFor(params.size(), [&](size_t i) {
    Var p = params[i];
    Matrix& value = p.mutable_value();
    if (p.grad().size() == value.size()) {  // else never touched this step
      simd::AdamN(isa, coeffs, p.grad().data(), m_[i].data(), v_[i].data(),
                  value.data(), value.size());
    }
    p.ZeroGrad();
  });
}

}  // namespace kgpip::nn
