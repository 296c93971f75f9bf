#include "sim/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "sim/profiler.hpp"

namespace pet::sim {

void Scheduler::grow_pool() {
  pool_.push_back(std::make_unique<Record[]>(kChunkSize));
}

void Scheduler::release_slot(std::uint32_t slot) {
  Record& rec = record(slot);
  rec.cb.reset();
  rec.kind = nullptr;
  ++rec.gen;  // invalidate every EventId issued for the previous occupant
  rec.next_free = free_head_;
  free_head_ = slot;
}

LaneId Scheduler::lane(Time delay) {
  assert(delay >= Time::zero() && "a lane cannot run into the past");
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    if (lanes_[i].delay == delay) return LaneId(static_cast<std::uint32_t>(i));
  }
  lanes_.emplace_back().delay = delay;
  return LaneId(static_cast<std::uint32_t>(lanes_.size() - 1));
}

void Scheduler::sift_down(std::size_t i, HeapItem item) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap_[c].before(heap_[best])) best = c;
    }
    if (!heap_[best].before(item)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = item;
}

void Scheduler::heap_pop_root() {
  const HeapItem last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  sift_down(0, last);
}

bool Scheduler::sweep_if_cancelled(std::uint32_t slot) {
  Record& rec = record(slot);
  if (!rec.cancelled) return false;
  rec.cancelled = false;
  release_slot(slot);
  return true;
}

void Scheduler::compact_tombstones() {
  // Drop every tombstoned entry, free its slot, and re-heapify in place.
  // Pop order is a pure function of the (at, seq) total order, so the
  // rebuilt heap replays the exact same event sequence.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (!sweep_if_cancelled(heap_[i].slot)) heap_[kept++] = heap_[i];
  }
  heap_.resize(kept);
  if (kept > 1) {
    for (std::size_t start = (kept - 2) / kArity + 1; start-- > 0;) {
      sift_down(start, heap_[start]);
    }
  }
  // Lanes filter in place, front to back, so survivors stay in FIFO order.
  // Record-free items cannot be cancelled and always stay.
  lane_entries_ = 0;
  for (Lane& lane : lanes_) {
    lane.ring.retain([this](const LaneItem& item) {
      return item.fn != nullptr || !sweep_if_cancelled(item.slot);
    });
    lane_entries_ += lane.ring.size();
  }
  tombstones_ = 0;
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  const std::uint32_t slot =
      static_cast<std::uint32_t>((id.token_ & 0xffffffffu) - 1);
  const std::uint32_t gen = static_cast<std::uint32_t>(id.token_ >> 32);
  // Only a genuinely pending event may be cancelled; stale ids (already run
  // or already cancelled — the slot's generation moved on) are ignored so
  // callers can cancel defensively.
  if (slot >= pool_count_) return false;
  Record& rec = record(slot);
  if (rec.gen != gen || rec.cancelled) return false;
  rec.cancelled = true;
  // Release the capture now: a cancelled retransmit/watchdog timer must not
  // pin its captured state until the (possibly far-future) deadline pops.
  rec.cb.reset();
  --live_;
  ++tombstones_;
  if (tombstones_ > kCompactMinTombstones && tombstones_ * 2 > heap_size()) {
    compact_tombstones();
  }
  return true;
}

void Scheduler::set_profiler(Profiler* profiler) {
  profiler_ = profiler;
  if (profiler_ != nullptr) {
    profiler_->set_time_source([this] { return now_.us(); });
  }
}

template <typename Body>
void Scheduler::dispatch(Time at, const char* kind, Body&& body) {
  --live_;
  now_ = at;
  ++executed_;
  if (profiler_ != nullptr && kind != nullptr) {
    // pet-lint: allow(banned-api): wall-clock timing of the event body
    const auto t0 = std::chrono::steady_clock::now();
    body();
    // pet-lint: allow(banned-api): wall-clock timing of the event body
    const auto t1 = std::chrono::steady_clock::now();
    profiler_->record_event(
        kind, std::chrono::duration<double, std::milli>(t1 - t0).count());
  } else {
    body();
    // Untagged events are counted but not wall-timed: two steady_clock
    // samples per event would distort the numbers the profiler exists to
    // report (and the micro benches gate on).
    if (profiler_ != nullptr) profiler_->count_untagged_event();
  }
}

std::size_t Scheduler::run_until(Time until) {
  std::size_t ran = 0;
  for (;;) {
    // The next event is the least (at, seq) key among the heap root and the
    // lane heads; each lane is sorted already, so only its head competes.
    const Key* next = heap_.empty() ? nullptr : &heap_[0];
    Lane* from = nullptr;
    for (Lane& lane : lanes_) {
      if (!lane.ring.empty() &&
          (next == nullptr || lane.ring.front().before(*next))) {
        next = &lane.ring.front();
        from = &lane;
      }
    }
    if (next == nullptr || next->at > until) break;
    const Time at = next->at;
    std::uint32_t slot = 0;
    if (from == nullptr) {
      slot = heap_[0].slot;
      heap_pop_root();
    } else {
      const LaneItem item = from->ring.front();
      from->ring.pop_front();
      --lane_entries_;
      if (item.fn != nullptr) {
        // Record-free: nothing to sweep, invalidate or free.
        ++ran;
        dispatch(at, item.kind, [&item] { item.fn(item.obj); });
        continue;
      }
      slot = item.slot;
    }
    if (sweep_if_cancelled(slot)) {
      --tombstones_;
      continue;
    }
    Record& rec = record(slot);
    // Invalidate outstanding EventIds before invoking: the callback runs in
    // place out of its pool slot (chunks never move), so a self-cancel from
    // inside the body must already see a stale handle.
    ++rec.gen;
    ++ran;
    dispatch(at, rec.kind, [&rec] { rec.cb.consume(); });
    // The body may have scheduled (into other slots — this one is not on the
    // free list yet) or cancelled (compacting the heap); both leave rec's
    // address intact. Free the slot without a second generation bump.
    rec.kind = nullptr;
    rec.next_free = free_head_;
    free_head_ = slot;
  }
  if (until != Time::max() && now_ < until) now_ = until;
  return ran;
}

}  // namespace pet::sim
