#pragma once
// EcnTuner: the one interface both learning ECN schemes sit behind (PET and
// ACC). The base owns the periodic tick: start() arms it, and every firing
// runs the scheme's tick() and then re-arms one interval later under the
// scheme's profiler tag. An experiment drives either scheme's learning
// through the same calls.

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
  virtual void set_lr_scale(double scale) = 0;
  /// Offline pre-training is over: restore the configured learning rates
  /// and switch to the deployed online behaviour.
  virtual void enter_deployment() = 0;
  /// Install one pre-trained weight vector into every agent. Returns false
  /// when it does not fit the model; agents then keep their current
  /// weights.
  [[nodiscard]] virtual bool install_weights(
      std::span<const double> weights) = 0;
  /// The first agent's current model (what offline pre-training exports).
  [[nodiscard]] virtual std::vector<double> weights() const = 0;

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
