#pragma once
// FIFO byte-accounted packet queue with optional time-weighted occupancy
// statistics (used by Table I and the reward's average queue length).
//
// Entries live in a sim::Ring rather than a std::deque: the deque paid a
// node allocation every few entries on the per-packet hot path, while the
// ring reaches its high-water capacity once and then serves push/pop
// allocation-free (pinned by tests/test_alloc_steady.cpp).

#include <cstdint>

#include "net/packet.hpp"
#include "sim/ring.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace pet::net {

/// A packet queued at a switch remembers the ingress port it arrived on so
/// PFC ingress accounting can be released when it leaves, and the data
/// queue it was placed in so per-queue egress counters stay exact.
struct QueueEntry {
  Packet pkt;
  std::int32_t ingress_port = -1;  // -1: locally generated
  std::int32_t queue_idx = -1;     // -1: control queue
};

class FifoQueue {
 public:
  void push(const QueueEntry& entry, sim::Time now) {
    note_change(now);
    bytes_ += entry.pkt.size_bytes;
    ring_.push_back(entry);
  }

  /// Pop the head into `out`; false (and `out` untouched) when empty.
  [[nodiscard]] bool pop(QueueEntry& out, sim::Time now) {
    if (ring_.empty()) return false;
    note_change(now);
    out = ring_.front();
    ring_.pop_front();
    bytes_ -= out.pkt.size_bytes;
    return true;
  }

  [[nodiscard]] bool empty() const { return ring_.empty(); }
  [[nodiscard]] std::int64_t bytes() const { return bytes_; }
  [[nodiscard]] std::int64_t packets() const {
    return static_cast<std::int64_t>(ring_.size());
  }

  /// Ring capacity (high-water mark observability for the bench gate).
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }

  /// Enable/disable occupancy tracking (adds O(1) work per push/pop).
  void track_occupancy(bool enabled, sim::Time now) {
    tracking_ = enabled;
    last_change_ = now;
    occupancy_.reset();
  }

  /// Close the current occupancy interval and return the stats so far.
  [[nodiscard]] const sim::TimeWeightedStats& occupancy(sim::Time now) {
    note_change(now);
    return occupancy_;
  }

  void reset_occupancy(sim::Time now) {
    occupancy_.reset();
    last_change_ = now;
  }

 private:
  void note_change(sim::Time now) {
    if (!tracking_) return;
    occupancy_.add(static_cast<double>(bytes_), (now - last_change_).us());
    last_change_ = now;
  }

  sim::Ring<QueueEntry> ring_;
  std::int64_t bytes_ = 0;
  bool tracking_ = false;
  sim::Time last_change_;
  sim::TimeWeightedStats occupancy_;
};

}  // namespace pet::net
