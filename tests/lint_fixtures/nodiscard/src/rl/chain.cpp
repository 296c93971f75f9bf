#include "rl/chain.hpp"

namespace pet::rl {

bool Model::set_weights(const std::vector<double>& w) { return !w.empty(); }

bool Model::load(const std::string& path) { return !path.empty(); }

bool Model::install_weights(const std::vector<double>& w) {
  return !w.empty();
}

bool Model::install_learned_weights(const std::vector<double>& w) {
  return install_weights(w);
}

void restore(Model& m, const std::string& path) {
  m.load(path);
}

void deploy(Model& m, const std::vector<double>& w) {
  m.install_learned_weights(w);
}

}  // namespace pet::rl
