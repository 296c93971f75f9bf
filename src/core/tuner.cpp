#include "core/tuner.hpp"

namespace pet::core {

void EcnTuner::start() {
  if (running_) return;
  running_ = true;
  next_tick_ = sched_.schedule_in(interval_, [this] { fire(); }, tag_);
}

void EcnTuner::stop() {
  running_ = false;
  if (next_tick_.valid()) {
    sched_.cancel(next_tick_);
    next_tick_ = sim::EventId{};
  }
}

void EcnTuner::fire() {
  if (!running_) return;
  tick();
  // Re-arm only after the tick body ran: the event order depends on the
  // next tick being scheduled after everything the tick scheduled.
  next_tick_ = sched_.schedule_in(interval_, [this] { fire(); }, tag_);
}

}  // namespace pet::core
