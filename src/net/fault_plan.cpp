#include "net/fault_plan.hpp"

#include <cstdio>
#include <memory>

#include "net/port.hpp"
#include "net/switch.hpp"
#include "sim/log.hpp"

namespace pet::net {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kLinkRestoreRate: return "link-restore-rate";
    case FaultKind::kSwitchReboot: return "switch-reboot";
  }
  return "?";
}

FaultPlan::FaultPlan(Network& net, std::uint64_t seed)
    : net_(net), rng_(sim::derive_seed(seed, "fault-plan")) {}

void FaultPlan::fire(FaultKind kind, std::string detail) {
  const sim::Time now = net_.scheduler().now();
  PET_LOG_INFO(net_.scheduler(), "fault: %s %s", fault_kind_name(kind),
               detail.c_str());
  if (sink_) sink_(now, kind, detail);
  fired_.push_back(FaultEvent{now, kind, std::move(detail)});
}

// pet-lint: allow(hot-path-alloc): control-plane, O(faults) per run
void FaultPlan::schedule(sim::Time at, std::function<void()> fn) {
  ++pending_;
  net_.scheduler().schedule_at(
      at,
      [this, fn = std::move(fn)] {
        --pending_;
        fn();
      },
      "fault.inject");
}

void FaultPlan::link_flap(DeviceId a, DeviceId b, sim::Time down_at,
                          sim::Time up_at) {
  schedule(down_at, [this, a, b] {
    if (net_.set_link_state(a, b, false)) {
      fire(FaultKind::kLinkDown, "link " + std::to_string(a) + "-" +
                                     std::to_string(b));
    }
  });
  schedule(up_at, [this, a, b] {
    if (net_.set_link_state(a, b, true)) {
      fire(FaultKind::kLinkUp,
           "link " + std::to_string(a) + "-" + std::to_string(b));
    }
  });
}

void FaultPlan::random_link_flap(double fraction, sim::Time down_at,
                                 sim::Time up_at) {
  // The victim set is drawn when the down event fires, so it reflects the
  // live topology (earlier flaps in the plan are excluded automatically).
  auto failed = std::make_shared<std::vector<std::pair<DeviceId, DeviceId>>>();
  schedule(down_at, [this, fraction, failed] {
    *failed = net_.fail_random_switch_links(fraction, rng_);
    for (const auto& [a, b] : *failed) {
      fire(FaultKind::kLinkDown,
           "link " + std::to_string(a) + "-" + std::to_string(b));
    }
  });
  schedule(up_at, [this, failed] {
    for (const auto& [a, b] : *failed) {
      if (net_.set_link_state(a, b, true)) {
        fire(FaultKind::kLinkUp,
             "link " + std::to_string(a) + "-" + std::to_string(b));
      }
    }
  });
}

void FaultPlan::link_degrade(DeviceId a, DeviceId b, double factor,
                             sim::Time from, sim::Time to) {
  const auto apply = [this, a, b](double f) {
    EgressPort* pa = net_.link_port(a, b);
    EgressPort* pb = net_.link_port(b, a);
    if (pa == nullptr || pb == nullptr) return false;
    pa->set_rate_factor(f);
    pb->set_rate_factor(f);
    return true;
  };
  schedule(from, [this, apply, factor, a, b] {
    if (apply(factor)) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "link %d-%d at %.0f%% rate", a, b,
                    factor * 100.0);
      fire(FaultKind::kLinkDegrade, buf);
    }
  });
  schedule(to, [this, apply, a, b] {
    if (apply(1.0)) {
      fire(FaultKind::kLinkRestoreRate,
           "link " + std::to_string(a) + "-" + std::to_string(b));
    }
  });
}

void FaultPlan::switch_reboot(DeviceId sw, sim::Time at,
                              RedEcnConfig ecn_after) {
  schedule(at, [this, sw, ecn_after] {
    auto* dev = dynamic_cast<SwitchDevice*>(&net_.device(sw));
    if (dev == nullptr) return;
    dev->reboot(ecn_after);
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s dropped=%lld", dev->name().c_str(),
                  static_cast<long long>(dev->dropped_on_reboot()));
    fire(FaultKind::kSwitchReboot, buf);
  });
}

}  // namespace pet::net
