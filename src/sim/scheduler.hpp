#pragma once
// Discrete-event scheduler: the heart of the simulator.
//
// The event loop is single-threaded (determinism is a hard requirement for
// the RL experiments); ties in event time are broken by insertion order so
// two runs with the same seed replay the exact same event sequence. One
// event may fork-join work that touches only agent-local state on a
// sim::ForkJoinPool (sim/fork_join.hpp); it joins before the event returns,
// so no other event ever sees a worker running.
//
// Hot-path layout (see DESIGN.md "DES hot path & bench gate"):
//   * events live in a chunked slot pool with per-slot generation counters;
//     an EventId is (generation, slot), so cancel() is one array index and a
//     tombstone-bit flip — no hashing, no per-event bookkeeping sets. Chunks
//     never move, so callbacks run in place straight out of their slot;
//   * pending events are keyed by (time, sequence) and queued in one of two
//     places. Most go to a flat 4-ary min-heap. Events a caller always
//     schedules a fixed delay ahead go to that delay's FIFO lane instead:
//     now() never decreases and sequence numbers only grow, so appending
//     keeps a lane sorted by (time, seq) for free. A pop takes the least key
//     among the heap root and the few lane heads. The key order is total,
//     so pop order — and therefore every golden artifact — is bitwise
//     independent of heap arity, layout and which events ride lanes;
//   * a lane entry is either the key of a pool record (schedule_on:
//     cancellable, any callable) or a record-free item (post_on: a member
//     function, its object and its tag, carried in the lane ring itself, not
//     cancellable). The per-hop datapath posts its link arrivals and its
//     constant-delay transmit completions (control and full-size frames)
//     as record-free items, so such a hop touches no pool record and
//     builds no callback;
//   * callbacks are sim::SmallCallback: capture storage is inline in the
//     pool record, so a warmed-up schedule/run steady state performs zero
//     heap allocations (pinned by tests/test_alloc_steady.cpp);
//   * tombstoned entries (heap or lane) are compacted away once they
//     outnumber the live half of all queued entries, so schedule-then-cancel
//     patterns (retransmit and watchdog timers) run in bounded memory.

#include <cassert>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/ring.hpp"
#include "sim/time.hpp"

namespace pet::sim {

class Profiler;

/// Handle to a scheduled event; allows cancellation. Encodes the pool slot
/// plus its generation at schedule time, so stale handles (already run,
/// already cancelled, slot since reused) are recognized and ignored.
class EventId {
 public:
  constexpr EventId() = default;
  [[nodiscard]] constexpr bool valid() const { return token_ != 0; }

 private:
  friend class Scheduler;
  constexpr explicit EventId(std::uint64_t token) : token_(token) {}
  std::uint64_t token_ = 0;
};

/// Handle to a constant-delay FIFO lane; only Scheduler::lane makes one.
/// Equal delays share one lane, so equal handles mean equal delays.
class LaneId {
 public:
  friend constexpr bool operator==(LaneId, LaneId) = default;

 private:
  friend class Scheduler;
  constexpr explicit LaneId(std::uint32_t index) : index_(index) {}
  std::uint32_t index_;
};

class Scheduler {
 public:
  using Callback = SmallCallback;

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()).
  /// `kind` is an optional string-literal tag under which an attached
  /// Profiler attributes the event's execution; untagged events are counted
  /// (but not wall-timed) under "event". Accepts any void() callable and
  /// constructs it directly into the slot pool (no intermediate Callback).
  template <typename Fn, typename = std::enable_if_t<std::is_invocable_r_v<
                             void, std::decay_t<Fn>&>>>
  EventId schedule_at(Time at, Fn&& fn, const char* kind = nullptr) {
    assert(at >= now_ && "cannot schedule into the past");
    const std::uint32_t slot = store(std::forward<Fn>(fn), kind);
    heap_push(HeapItem{{at, next_seq_++}, slot});
    return hand_out(slot);
  }

  /// Schedule `fn` to run `delay` from now.
  template <typename Fn, typename = std::enable_if_t<std::is_invocable_r_v<
                             void, std::decay_t<Fn>&>>>
  EventId schedule_in(Time delay, Fn&& fn, const char* kind = nullptr) {
    return schedule_at(now_ + delay, std::forward<Fn>(fn), kind);
  }

  /// The FIFO lane for events scheduled exactly `delay` (>= 0) ahead; equal
  /// delays share one lane. Meant for callers whose delay is a constant of
  /// their configuration (link propagation, protocol timer periods): take
  /// the handle once, at construction, or when a new constant first shows.
  LaneId lane(Time delay);

  /// Schedule `fn` to run the lane's delay from now. Same ordering, tags and
  /// cancellation as schedule_in with that delay, without the heap push.
  template <typename Fn, typename = std::enable_if_t<std::is_invocable_r_v<
                             void, std::decay_t<Fn>&>>>
  EventId schedule_on(LaneId lane, Fn&& fn, const char* kind = nullptr) {
    LaneItem item;
    item.slot = store(std::forward<Fn>(fn), kind);
    lane_push(lane, item);
    return hand_out(item.slot);
  }

  /// Run `(obj->*Method)()` the lane's delay from now, as a record-free
  /// lane item: (time, seq, function, object, tag) ride in the lane ring
  /// and no pool record is taken. Ordered, counted (pending, heap_size,
  /// executed) and profiled exactly like schedule_on on the same lane, but
  /// it cannot be cancelled, so `obj` must outlive the item. Whatever the
  /// call needs beyond `obj` lives in `obj` (a port keeps the frame it is
  /// serializing and the packets on its wire).
  template <auto Method, typename T>
  void post_on(LaneId lane, T* obj, const char* kind = nullptr) {
    static_assert(std::is_invocable_r_v<void, decltype(Method), T&>,
                  "post_on takes a void() member function of T");
    assert(obj != nullptr && "post_on needs an object");
    LaneItem item;
    item.fn = &call_member<Method, T>;
    item.obj = obj;
    item.kind = kind;
    lane_push(lane, item);
    ++live_;
  }

  /// Cancel a pending event. Cancelling an already-run or already-cancelled
  /// event is a harmless no-op. Returns true if the event was still pending.
  /// O(1): flips the slot's tombstone bit and releases the captured
  /// callback immediately (timers that never fire hold no resources).
  bool cancel(EventId id);

  /// Run events until the queue drains or `until` is reached (events at
  /// exactly `until` DO run; now() ends at `until` if reached).
  /// Returns the number of events executed.
  std::size_t run_until(Time until);

  /// Run all remaining events (use only in tests/bounded scenarios).
  std::size_t run_all() { return run_until(Time::max()); }

  /// Number of live (non-cancelled) pending events, record-free ones
  /// included.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  // --- capacity observability (leak regression tests, bench reports) -------
  /// Queued entries, heap and lanes, including not-yet-compacted tombstones.
  [[nodiscard]] std::size_t heap_size() const {
    return heap_.size() + lane_entries_;
  }
  /// Pool slots ever created (high-water mark of concurrent events).
  [[nodiscard]] std::size_t pool_size() const { return pool_count_; }
  /// Lanes handed out so far: one per distinct delay asked of lane().
  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  /// Cancelled entries still awaiting compaction or expiry.
  [[nodiscard]] std::size_t tombstones() const { return tombstones_; }

  /// Attach a profiler: every executed event is counted under its kind tag,
  /// and tagged events are additionally wall-timed (untagged events skip
  /// the clock samples so micro-bench numbers stay undistorted); the
  /// profiler's span clock follows now(). Detach with nullptr. Profiling
  /// observes only — the event sequence is bit-identical with or without it.
  void set_profiler(Profiler* profiler);
  [[nodiscard]] Profiler* profiler() const { return profiler_; }

 private:
  /// Pool record: callback + tag live here (stable address — chunks never
  /// move — reused via the free list); the heap and the lanes carry only
  /// the ordering key and the slot.
  struct Record {
    Callback cb;
    const char* kind = nullptr;
    std::uint32_t gen = 0;
    bool cancelled = false;
    std::uint32_t next_free = kNilSlot;
  };

  /// The (time, seq) total order every queued entry is popped in.
  struct Key {
    Time at;
    std::uint64_t seq;
    [[nodiscard]] bool before(const Key& other) const {
      if (at != other.at) return at < other.at;
      return seq < other.seq;
    }
  };

  struct HeapItem : Key {
    std::uint32_t slot;
  };

  /// A lane entry: record-free when `fn` is set (post_on: run fn(obj) under
  /// `kind`), else the key of pool record `slot` (schedule_on).
  struct LaneItem : Key {
    void (*fn)(void*) = nullptr;
    union {
      void* obj;
      std::uint32_t slot;
    };
    const char* kind = nullptr;
  };

  /// Constant-delay FIFO, sorted by (at, seq) because every push is now() +
  /// delay with a fresh sequence number.
  struct Lane {
    Time delay;
    Ring<LaneItem> ring;
  };

  template <auto Method, typename T>
  static void call_member(void* obj) {
    (static_cast<T*>(obj)->*Method)();
  }

  static constexpr std::uint32_t kNilSlot = 0xffffffffu;
  /// 4-ary heap indexing: children of i are 4i+1..4i+4.
  static constexpr std::size_t kArity = 4;
  /// Compaction kicks in only past this many tombstones, so small schedulers
  /// never pay the rebuild.
  static constexpr std::size_t kCompactMinTombstones = 64;
  /// Pool chunking: 256 records per chunk. Growth allocates a fresh chunk
  /// and never relocates existing records, so in-flight callbacks and the
  /// free list survive any reentrant schedule_at.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  [[nodiscard]] Record& record(std::uint32_t slot) {
    return pool_[slot >> kChunkShift][slot & kChunkMask];
  }

  /// Stamp `item` with the lane's due time and a fresh sequence number and
  /// append it: the lane's largest key, so the lane stays sorted.
  void lane_push(LaneId lane, LaneItem item) {
    assert(lane.index_ < lanes_.size() && "unknown lane");
    Lane& ln = lanes_[lane.index_];
    item.at = now_ + ln.delay;
    item.seq = next_seq_++;
    ln.ring.push_back(item);
    ++lane_entries_;
  }

  /// Park `fn` and its tag in a fresh pool slot; the caller queues the key.
  template <typename Fn>
  [[nodiscard]] std::uint32_t store(Fn&& fn, const char* kind) {
    const std::uint32_t slot = acquire_slot();
    Record& rec = record(slot);
    if constexpr (std::is_same_v<std::decay_t<Fn>, Callback>) {
      assert(fn && "null event callback");
      rec.cb = std::forward<Fn>(fn);
    } else {
      rec.cb.emplace(std::forward<Fn>(fn));
    }
    rec.kind = kind;
    return slot;
  }

  /// Count a just-queued event as live and hand out its handle.
  [[nodiscard]] EventId hand_out(std::uint32_t slot) {
    ++live_;
    return EventId((static_cast<std::uint64_t>(record(slot).gen) << 32) |
                   (static_cast<std::uint64_t>(slot) + 1));
  }

  [[nodiscard]] std::uint32_t acquire_slot() {
    if (free_head_ != kNilSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = record(slot).next_free;
      return slot;
    }
    const std::uint32_t slot = pool_count_++;
    if ((slot & kChunkMask) == 0) grow_pool();
    return slot;
  }

  void heap_push(HeapItem item) {
    // Hole insertion: bubble the hole up with single copies, then place the
    // item once (a swap chain would move three times per level).
    std::size_t i = heap_.size();
    heap_.push_back(item);
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!item.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = item;
  }

  void grow_pool();
  void release_slot(std::uint32_t slot);
  void heap_pop_root();
  void sift_down(std::size_t i, HeapItem item);
  /// Free a popped or swept tombstone's slot; false if `slot` is live.
  bool sweep_if_cancelled(std::uint32_t slot);
  void compact_tombstones();
  /// Count one due event, advance now() to `at` and run its body under
  /// `kind`: the one profiler timing path for record-backed and record-free
  /// events alike.
  template <typename Body>
  void dispatch(Time at, const char* kind, Body&& body);

  std::vector<HeapItem> heap_;  // flat 4-ary min-heap by (at, seq)
  std::vector<Lane> lanes_;     // one per distinct constant delay
  std::size_t lane_entries_ = 0;
  std::vector<std::unique_ptr<Record[]>> pool_;
  std::uint32_t pool_count_ = 0;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t live_ = 0;
  std::size_t tombstones_ = 0;
  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  Profiler* profiler_ = nullptr;
};

}  // namespace pet::sim
