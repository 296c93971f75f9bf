#pragma once
// LeafSpineConfig describes the paper's two-tier fabric (12 leaves x
// 24 hosts @25G up, 6 spines @100G; benches default to a proportionally
// scaled-down instance preserving the 4:1 spine/leaf speedup and the
// oversubscription ratio). It is one alternative of net::TopologySpec
// (topology_spec.hpp): pass it to ExperimentBuilder::topology() or
// net::build_fabric() and query the resulting net::Fabric.

#include <cstdint>

#include "net/switch.hpp"
#include "sim/time.hpp"

namespace pet::net {

struct LeafSpineConfig {
  std::int32_t num_spines = 2;
  std::int32_t num_leaves = 4;
  std::int32_t hosts_per_leaf = 8;
  sim::Rate host_link_rate = sim::gbps(10);
  sim::Rate spine_link_rate = sim::gbps(40);
  sim::Time host_link_delay = sim::nanoseconds(1000);
  sim::Time spine_link_delay = sim::nanoseconds(1000);
  SwitchConfig switch_cfg{};

  /// The paper's large-scale setup (Section 5.2).
  [[nodiscard]] static LeafSpineConfig paper_scale() {
    LeafSpineConfig cfg;
    cfg.num_spines = 6;
    cfg.num_leaves = 12;
    cfg.hosts_per_leaf = 24;
    cfg.host_link_rate = sim::gbps(25);
    cfg.spine_link_rate = sim::gbps(100);
    return cfg;
  }
};

}  // namespace pet::net
