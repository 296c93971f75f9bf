#pragma once
#include <string>
#include <vector>

namespace pet::rl {

class Model {
 public:
  bool set_weights(const std::vector<double>& w);
  [[nodiscard]] bool load(const std::string& path);
  bool install_weights(const std::vector<double>& w);
  [[nodiscard]] bool install_learned_weights(const std::vector<double>& w);
};

}  // namespace pet::rl
