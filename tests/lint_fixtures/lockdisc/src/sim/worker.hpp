#pragma once
#include <mutex>

#include "sim/annot.hpp"

namespace pet::sim {
class Worker {
 public:
  void step();

 private:
  std::mutex mu_;
  int queued_ PET_GUARDED_BY(mu_) = 0;
};
}  // namespace pet::sim
