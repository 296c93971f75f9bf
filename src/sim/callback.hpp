#pragma once
// SmallCallback — the event core's type-erased `void()` callable.
//
// std::function heap-allocates once a capture outgrows its (typically 16-
// or 24-byte) small-buffer, so a scheduler built on it paid one heap round
// trip per event whose capture carried a packet. SmallCallback keeps an
// inline buffer and only falls back to the heap beyond it, so the DES
// steady state performs zero allocations. Move-only, like the events it
// carries.
//
// The per-hop datapath builds none for its arrivals and constant-delay
// transmit completions: ports own their in-flight packets and post
// record-free lane items (Scheduler::post_on). A transmit completion that
// falls back to the heap (a flow's tail frame) captures only the port. The
// other callbacks are timers, host kicks, traffic arrivals, agent ticks and
// fault events, all small captures.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace pet::sim {

class SmallCallback {
 public:
  /// Inline capture budget. No datapath capture sizes it; it keeps a
  /// packet-sized capture (a QueueEntry plus a pointer, 72 bytes) inline.
  /// Callables beyond it still work via a heap box, they are just not
  /// allocation-free (tests/test_callback.cpp pins both regimes).
  static constexpr std::size_t kInlineBytes = 88;

  constexpr SmallCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallCallback(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                          // std::function at every schedule_at call site
    emplace(std::forward<F>(f));
  }

  /// Construct a callable in place (destroying any current one), skipping
  /// the intermediate SmallCallback a `cb = fn` assignment would build and
  /// then relocate — the scheduler's schedule fast path.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void emplace(F&& f) {
    reset();
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &boxed_ops<Fn>;
    }
  }

  SmallCallback(SmallCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  SmallCallback& operator=(SmallCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  /// Invoke then destroy in one type-erased call (the scheduler's run loop:
  /// every event fires exactly once, so invoke/destroy pay a single indirect
  /// call instead of two). Leaves the callback empty.
  void consume() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(buf_);
  }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

  /// Drop the held callable (and free a heap box, if any).
  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// True when the held callable lives in the inline buffer (test hook for
  /// the zero-allocation contract).
  [[nodiscard]] bool is_inline() const {
    return ops_ != nullptr && ops_->inline_storage;
  }

  template <typename Fn>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    void (*invoke_destroy)(void* buf);
    void (*relocate)(void* dst, void* src);  // move-construct dst, destroy src
    void (*destroy)(void* buf);
    bool inline_storage;
  };

  template <typename Fn>
  static constexpr Ops inline_ops = {
      [](void* buf) { (*std::launder(reinterpret_cast<Fn*>(buf)))(); },
      [](void* buf) {
        Fn* fn = std::launder(reinterpret_cast<Fn*>(buf));
        (*fn)();
        fn->~Fn();
      },
      [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* buf) { std::launder(reinterpret_cast<Fn*>(buf))->~Fn(); },
      /*inline_storage=*/true,
  };

  template <typename Fn>
  static constexpr Ops boxed_ops = {
      [](void* buf) { (**reinterpret_cast<Fn**>(buf))(); },
      [](void* buf) {
        Fn* fn = *reinterpret_cast<Fn**>(buf);
        (*fn)();
        delete fn;
      },
      [](void* dst, void* src) {
        *reinterpret_cast<Fn**>(dst) = *reinterpret_cast<Fn**>(src);
      },
      [](void* buf) { delete *reinterpret_cast<Fn**>(buf); },
      /*inline_storage=*/false,
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace pet::sim
