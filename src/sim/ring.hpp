#pragma once
// sim::Ring — a FIFO on a flat power-of-two ring buffer (head index +
// count). It grows by doubling, unwrapping the live window to index 0, up
// to its high-water mark and never shrinks, so a warmed ring serves
// push/pop without allocating (pinned by tests/test_alloc_steady.cpp). The
// scheduler's lanes, the ports' packet queues and the packets on a link
// all ride one.

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace pet::sim {

template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  /// Slots allocated (high-water mark, always a power of two or zero).
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }

  void push_back(const T& value) {
    if (count_ == buf_.size()) grow();
    at(count_) = value;
    ++count_;
  }

  void pop_front() {
    assert(count_ > 0 && "pop from an empty ring");
    head_ = (head_ + 1) & (buf_.size() - 1);
    --count_;
  }

  /// Keep only the entries `keep` accepts, in FIFO order.
  template <typename Pred>
  void retain(Pred keep) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count_; ++i) {
      T value = std::move(at(i));
      if (keep(value)) at(kept++) = std::move(value);
    }
    count_ = kept;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  /// The i-th entry from the front.
  [[nodiscard]] T& at(std::size_t i) {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void grow() {
    std::vector<T> bigger(buf_.empty() ? kMinCapacity : 2 * buf_.size());
    for (std::size_t i = 0; i < count_; ++i) bigger[i] = std::move(at(i));
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace pet::sim
