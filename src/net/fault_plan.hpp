#pragma once
// FaultPlan: scheduled fault injection on the simulator clock. Generalizes
// the one-shot Network::fail_random_switch_links into a declarative plan of
// link flaps (down/up at given times), degraded-rate links, probabilistic
// per-port packet drop/corruption windows, and switch reboots that reset
// queue/ECN state. Every fired fault is recorded (and optionally forwarded
// to an event sink) so experiments can report metrics per fault phase.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/gilbert_elliott.hpp"
#include "net/network.hpp"
#include "net/red_ecn.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace pet::net {

enum class FaultKind {
  kLinkDown,
  kLinkUp,
  kLinkDegrade,
  kLinkRestoreRate,
  kPacketLossStart,
  kPacketLossEnd,
  kPacketCorruptStart,
  kPacketCorruptEnd,
  kBurstLossStart,
  kBurstLossEnd,
  kSwitchReboot,
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

/// One fault that actually fired, with a human-readable detail string.
struct FaultEvent {
  sim::Time at;
  FaultKind kind;
  std::string detail;
};

class FaultPlan {
 public:
  /// Sink invoked for every fired fault (in addition to the internal log).
  using EventSink =
      // pet-lint: allow(hot-path-alloc): fault injection is control-plane —
      // a handful of scheduled events per run, not the per-packet path
      std::function<void(sim::Time, FaultKind, const std::string&)>;

  FaultPlan(Network& net, std::uint64_t seed);

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  void set_event_sink(EventSink sink) { sink_ = std::move(sink); }

  // All times are absolute simulation times (must be >= now).

  /// Take the (a, b) link down at `down_at` and back up at `up_at`.
  void link_flap(DeviceId a, DeviceId b, sim::Time down_at, sim::Time up_at);

  /// Fail `fraction` of switch-switch links (chosen at `down_at` with this
  /// plan's RNG) and restore exactly those links at `up_at`.
  void random_link_flap(double fraction, sim::Time down_at, sim::Time up_at);

  /// Run both directions of the (a, b) link at `factor` of nominal rate
  /// during [from, to).
  void link_degrade(DeviceId a, DeviceId b, double factor, sim::Time from,
                    sim::Time to);

  /// Drop each packet leaving any port of device `dev` with probability
  /// `drop_prob` during [from, to).
  void packet_loss(DeviceId dev, double drop_prob, sim::Time from,
                   sim::Time to);

  /// Corrupt (receiver discards) each packet leaving any port of device
  /// `dev` with probability `prob` during [from, to).
  void packet_corruption(DeviceId dev, double prob, sim::Time from,
                         sim::Time to);

  /// Correlated (bursty) loss on every port of device `dev` during
  /// [from, to): packets traverse a Gilbert–Elliott two-state chain, so
  /// losses cluster into bursts instead of the independent drops of
  /// packet_loss(). Each window starts its chains in the Good state.
  void burst_loss(DeviceId dev, const GilbertElliottConfig& cfg,
                  sim::Time from, sim::Time to);

  /// Reboot switch `sw` at `at`: flush queues, reset ECN to `ecn_after`.
  void switch_reboot(DeviceId sw, sim::Time at, RedEcnConfig ecn_after);

  /// Every fault fired so far, in firing order.
  [[nodiscard]] const std::vector<FaultEvent>& fired() const { return fired_; }
  /// Number of faults scheduled but not yet fired.
  [[nodiscard]] std::size_t pending() const { return pending_; }

 private:
  void fire(FaultKind kind, std::string detail);
  // pet-lint: allow(hot-path-alloc): control-plane, O(faults) per run
  void schedule(sim::Time at, std::function<void()> fn);

  Network& net_;
  sim::Rng rng_;
  EventSink sink_;
  std::vector<FaultEvent> fired_;
  std::size_t pending_ = 0;
};

}  // namespace pet::net
