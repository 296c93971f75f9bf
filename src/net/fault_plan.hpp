#pragma once
// FaultPlan: scheduled link failures on the simulator clock, the one fault
// the paper's robustness study (Fig. 7) injects. Generalizes the one-shot
// Network::fail_random_switch_links into a plan of random link flaps: each
// fails a fraction of the switch-switch links and later restores exactly
// those. Every fired fault goes to the plan's event sink (the experiment's
// EventLog), so experiments can report metrics per fault phase.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace pet::net {

enum class FaultKind {
  kLinkDown,
  kLinkUp,
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

class FaultPlan {
 public:
  /// Sink invoked for every fired fault, with a human-readable detail.
  using EventSink =
      // pet-lint: allow(hot-path-alloc): fault injection is control-plane —
      // a handful of scheduled events per run, not the per-packet path
      std::function<void(sim::Time, FaultKind, const std::string&)>;

  FaultPlan(Network& net, std::uint64_t seed);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  void set_event_sink(EventSink sink) { sink_ = std::move(sink); }

  /// Fail `fraction` of switch-switch links (chosen at `down_at` with this
  /// plan's RNG) and restore exactly those links at `up_at`. Both times
  /// are absolute simulation times (must be >= now).
  void random_link_flap(double fraction, sim::Time down_at, sim::Time up_at);

 private:
  void fire(FaultKind kind, DeviceId a, DeviceId b);

  Network& net_;
  sim::Rng rng_;
  EventSink sink_;
};

}  // namespace pet::net
