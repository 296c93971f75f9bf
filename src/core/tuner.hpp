#pragma once
// EcnTuner: the one interface every dynamic ECN scheme sits behind (PET,
// ACC, and the rule-based AMT/QAECN comparators). The base owns the
// periodic tick: start() arms it, and every firing runs the scheme's tick()
// and then re-arms one interval later under the scheme's profiler tag.
//
// The learning hooks default to no-ops, so a rule-based tuner implements
// only tick() and an experiment drives every scheme through the same calls.

#include <span>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pet::core {

class EcnTuner {
 public:
  /// `tag` names the tick event in the profiler; it must be a string
  /// literal (the profiler caches tags by pointer).
  EcnTuner(sim::Scheduler& sched, sim::Time interval, const char* tag)
      : sched_(sched), interval_(interval), tag_(tag) {}
  virtual ~EcnTuner() = default;
  // The pending tick event captures `this`.
  EcnTuner(const EcnTuner&) = delete;
  EcnTuner& operator=(const EcnTuner&) = delete;
  EcnTuner(EcnTuner&&) = delete;
  EcnTuner& operator=(EcnTuner&&) = delete;

  /// Begin (or resume) periodic ticks; the first fires one interval later.
  void start();
  void stop();

  /// Scale every agent's learning rates relative to the configured ones
  /// (offline pre-training boosts them).
  virtual void set_lr_scale(double /*scale*/) {}
  /// Offline pre-training is over: restore the configured learning rates
  /// and switch to the deployed online behaviour.
  virtual void enter_deployment() {}
  /// Install one pre-trained weight vector into every agent. Returns false
  /// when it does not fit the model; agents then keep their current
  /// weights.
  [[nodiscard]] virtual bool install_weights(
      std::span<const double> /*weights*/) {
    return true;
  }
  /// The first agent's current model (what offline pre-training exports);
  /// empty for rule-based tuners.
  [[nodiscard]] virtual std::vector<double> weights() const { return {}; }

 protected:
  /// One tuning step across every managed switch.
  virtual void tick() = 0;

 private:
  void fire();

  sim::Scheduler& sched_;
  sim::Time interval_;
  const char* tag_;
  sim::EventId next_tick_;
  bool running_ = false;
};

}  // namespace pet::core
