#include "sim/worker.hpp"

#include <mutex>

namespace pet::sim {

void Worker::step() {
  std::unique_lock<std::mutex> lock(mu_);
  queued_ += 1;
  lock.unlock();
  const int seen = queued_;
  lock.lock();
  queued_ -= seen;
}

}  // namespace pet::sim
