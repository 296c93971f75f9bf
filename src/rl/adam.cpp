#include "rl/adam.hpp"

#include <cmath>
#include <utility>

#include "rl/kernels.hpp"

namespace pet::rl {

void Adam::step() {
  ++t_;
  double scale = 1.0;
  if (cfg_.max_grad_norm > 0.0) {
    // One sequential sum on every backend: a reordered (vector) sum would
    // round differently and move the clip factor.
    double sq = 0.0;
    for (const double* g : refs_.grads) sq += (*g) * (*g);
    const double norm = std::sqrt(sq);
    if (norm > cfg_.max_grad_norm) scale = cfg_.max_grad_norm / norm;
  }
  const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
  kern::adam_update_f64(refs_.params.data(), refs_.grads.data(), m_.data(),
                        v_.data(), refs_.size(),
                        kern::AdamStep{.lr = cfg_.lr,
                                       .beta1 = cfg_.beta1,
                                       .beta2 = cfg_.beta2,
                                       .eps = cfg_.eps,
                                       .bc1 = bc1,
                                       .bc2 = bc2,
                                       .scale = scale});
}

void Adam::save_state(sim::ByteSink& out) const {
  out.f64(cfg_.lr);
  out.i64(t_);
  out.f64_vec(m_);
  out.f64_vec(v_);
}

bool Adam::load_state(sim::ByteSource& in) {
  const double lr = in.f64();
  const std::int64_t t = in.i64();
  std::vector<double> m = in.f64_vec();
  std::vector<double> v = in.f64_vec();
  if (!in.ok() || t < 0 || m.size() != refs_.size() ||
      v.size() != refs_.size()) {
    return false;
  }
  cfg_.lr = lr;
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
  return true;
}

}  // namespace pet::rl
