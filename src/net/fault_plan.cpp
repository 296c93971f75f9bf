#include "net/fault_plan.hpp"

#include <memory>
#include <vector>

#include "sim/log.hpp"

namespace pet::net {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
  }
  return "?";
}

FaultPlan::FaultPlan(Network& net, std::uint64_t seed)
    : net_(net), rng_(sim::derive_seed(seed, "fault-plan")) {}

void FaultPlan::fire(FaultKind kind, DeviceId a, DeviceId b) {
  const std::string detail =
      "link " + std::to_string(a) + "-" + std::to_string(b);
  PET_LOG_INFO(net_.scheduler(), "fault: %s %s", fault_kind_name(kind),
               detail.c_str());
  if (sink_) sink_(net_.scheduler().now(), kind, detail);
}

void FaultPlan::random_link_flap(double fraction, sim::Time down_at,
                                 sim::Time up_at) {
  // The victim set is drawn when the down event fires, so it reflects the
  // live topology (earlier flaps in the plan are excluded automatically).
  auto failed = std::make_shared<std::vector<std::pair<DeviceId, DeviceId>>>();
  net_.scheduler().schedule_at(
      down_at,
      [this, fraction, failed] {
        *failed = net_.fail_random_switch_links(fraction, rng_);
        for (const auto& [a, b] : *failed) fire(FaultKind::kLinkDown, a, b);
      },
      "fault.inject");
  net_.scheduler().schedule_at(
      up_at,
      [this, failed] {
        for (const auto& [a, b] : *failed) {
          if (net_.set_link_state(a, b, true)) fire(FaultKind::kLinkUp, a, b);
        }
      },
      "fault.inject");
}

}  // namespace pet::net
