#include "rl/adam.hpp"

#include <cmath>

#include "rl/kernels.hpp"

namespace pet::rl {

void Adam::step() {
  ++t_;
  double scale = 1.0;
  if (cfg_.max_grad_norm > 0.0) {
    // One sequential sum in flat order on every backend: a reordered
    // (vector) sum would round differently and move the clip factor.
    double sq = 0.0;
    for (const Linear* layer : refs_.layers) {
      for (const double g : layer->weight_grads()) sq += g * g;
      for (const double g : layer->bias_grads()) sq += g * g;
    }
    const double norm = std::sqrt(sq);
    if (norm > cfg_.max_grad_norm) scale = cfg_.max_grad_norm / norm;
  }
  const double bc1 = 1.0 - std::pow(cfg_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(cfg_.beta2, static_cast<double>(t_));
  const kern::AdamStep step{.lr = cfg_.lr,
                            .beta1 = cfg_.beta1,
                            .beta2 = cfg_.beta2,
                            .eps = cfg_.eps,
                            .bc1 = bc1,
                            .bc2 = bc2,
                            .scale = scale};
  std::size_t off = 0;
  for (Linear* layer : refs_.layers) {
    const std::size_t n = layer->num_params();
    layer->adam_step(step, std::span<double>(m_).subspan(off, n),
                     std::span<double>(v_).subspan(off, n));
    off += n;
  }
}

}  // namespace pet::rl
