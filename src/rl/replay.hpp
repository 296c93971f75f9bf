#pragma once
// Experience replay for DQN-family agents. ACC's distinguishing (and
// costly) design is a *global* replay shared by all switch agents; the
// buffer therefore tracks per-writer byte accounting so the overhead bench
// can quantify exactly what the paper's Goal 3 avoids.

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/rng.hpp"

namespace pet::rl {

struct DqnTransition {
  std::vector<double> state;
  std::vector<std::int32_t> actions;
  double reward = 0.0;
  std::vector<double> next_state;

  [[nodiscard]] std::size_t wire_bytes() const {
    // What a switch would ship to share this sample: two states, the
    // factored action, and the reward.
    return sizeof(double) * (state.size() + next_state.size() + 1) +
           sizeof(std::int32_t) * actions.size();
  }
};

class ReplayBuffer {
 public:
  explicit ReplayBuffer(std::size_t capacity) : capacity_(capacity) {}

  void push(DqnTransition t, std::int32_t writer_id = 0) {
    bytes_pushed_ += t.wire_bytes();
    bytes_by_writer_[writer_id] += t.wire_bytes();
    if (items_.size() < capacity_) {
      items_.push_back(std::move(t));
    } else {
      items_[next_slot_] = std::move(t);
    }
    next_slot_ = (next_slot_ + 1) % capacity_;
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] const DqnTransition& at(std::size_t i) const {
    return items_[i];
  }

  /// Uniform random sample of `n` indices (with replacement).
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                        sim::Rng& rng) const {
    std::vector<std::size_t> idx(n);
    for (auto& i : idx) i = rng.uniform_int(items_.size());
    return idx;
  }

  /// Resident memory of the stored experience (the per-switch memory cost
  /// ACC pays for its global replay).
  [[nodiscard]] std::size_t resident_bytes() const {
    std::size_t total = 0;
    for (const auto& t : items_) total += t.wire_bytes();
    return total;
  }

  [[nodiscard]] std::size_t bytes_pushed() const { return bytes_pushed_; }
  /// Bytes this buffer received from writers other than `reader_id` — the
  /// traffic a switch would need to fetch to mirror the global replay.
  [[nodiscard]] std::size_t bytes_from_others(std::int32_t reader_id) const {
    std::size_t total = 0;
    // pet-lint: allow(nondet-iteration): order-insensitive sum reduction
    for (const auto& [writer, bytes] : bytes_by_writer_) {
      if (writer != reader_id) total += bytes;
    }
    return total;
  }

 private:
  std::size_t capacity_;
  std::vector<DqnTransition> items_;
  std::size_t next_slot_ = 0;
  std::size_t bytes_pushed_ = 0;
  std::unordered_map<std::int32_t, std::size_t> bytes_by_writer_;
};

}  // namespace pet::rl
