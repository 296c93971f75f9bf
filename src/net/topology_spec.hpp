#pragma once
// TopologySpec: the tagged fabric description every experiment builds from.
//
// Three families subsume the paper's fixture and the production-scale
// scenarios ROADMAP item 1 asks for:
//
//   * LeafSpineConfig   — the paper's two-tier fabric (see topology.hpp);
//   * FatTreeSpec       — a k-ary fat-tree with configurable per-edge host
//                         fan-out (oversubscription) and heterogeneous
//                         per-tier link speeds (e.g. 25/100/400 Gbps);
//   * InterDcSpec       — two datacenters joined through border routers
//                         over long-RTT WAN links.
//
// A TopologySpec is pure data: build_fabric() (fabric.hpp) turns it into
// devices + links inside a Network and returns the Fabric query interface.
// Downstream code (ScenarioConfig, traffic generators, DCQCN tuning,
// artifact manifests) reads only the kind-agnostic accessors here.

#include <cstdint>
#include <variant>

#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/time.hpp"

namespace pet::net {

struct FatTreeSpec {
  /// Pod count; even and >= 2. A pod has k/2 edge and k/2 aggregation
  /// switches; (k/2)^2 core switches join the pods.
  std::int32_t k = 4;
  /// Hosts per edge switch; 0 means the canonical k/2 (1:1 at the edge).
  /// Raising it oversubscribes the edge tier without touching link rates.
  std::int32_t hosts_per_edge = 0;
  sim::Rate host_link_rate = sim::gbps(25);
  sim::Rate edge_agg_rate = sim::gbps(100);
  sim::Rate agg_core_rate = sim::gbps(400);
  sim::Time host_link_delay = sim::nanoseconds(1000);
  sim::Time edge_agg_delay = sim::nanoseconds(1000);
  sim::Time agg_core_delay = sim::nanoseconds(1000);
  SwitchConfig switch_cfg{};

  [[nodiscard]] std::int32_t hosts_per_edge_effective() const {
    return hosts_per_edge > 0 ? hosts_per_edge : k / 2;
  }
  [[nodiscard]] std::int32_t edges_per_pod() const { return k / 2; }
  [[nodiscard]] std::int32_t aggs_per_pod() const { return k / 2; }
  [[nodiscard]] std::int32_t num_edges() const { return k * edges_per_pod(); }
  [[nodiscard]] std::int32_t num_aggs() const { return k * aggs_per_pod(); }
  [[nodiscard]] std::int32_t num_cores() const {
    return (k / 2) * (k / 2);
  }
  [[nodiscard]] std::int32_t num_hosts() const {
    return num_edges() * hosts_per_edge_effective();
  }
  /// Host ingress capacity over uplink capacity at one edge switch
  /// (1.0 = non-blocking; > 1 oversubscribed).
  [[nodiscard]] double edge_oversubscription() const;
  /// Edge-facing capacity over core-facing capacity at one agg switch.
  [[nodiscard]] double agg_oversubscription() const;

  /// k=8 with 16 hosts per edge at 25/100/400 Gbps: 512 hosts behind
  /// 144 switch agents — the production-scale demo configuration.
  [[nodiscard]] static FatTreeSpec production_scale() {
    FatTreeSpec spec;
    spec.k = 8;
    spec.hosts_per_edge = 16;
    return spec;
  }
};

/// One datacenter inside an inter-DC scenario.
using DcSpec = std::variant<LeafSpineConfig, FatTreeSpec>;

struct InterDcSpec {
  DcSpec dc_a = LeafSpineConfig{};
  DcSpec dc_b = LeafSpineConfig{};
  /// Parallel WAN links between the two border routers (ECMP sprays
  /// across all of them).
  std::int32_t border_links = 1;
  sim::Rate wan_rate = sim::gbps(100);
  /// One-way WAN propagation delay — the long-RTT axis.
  sim::Time wan_delay = sim::milliseconds(1);
  SwitchConfig border_switch_cfg{};
};

[[nodiscard]] std::int32_t dc_num_hosts(const DcSpec& dc);
[[nodiscard]] std::int32_t dc_num_switches(const DcSpec& dc);
[[nodiscard]] sim::Rate dc_host_link_rate(const DcSpec& dc);

class TopologySpec {
 public:
  enum class Kind { kLeafSpine, kFatTree, kInterDc };

  /// Defaults to the scaled-down leaf-spine the benches always used.
  TopologySpec() : spec_(LeafSpineConfig{}) {}
  // NOLINTNEXTLINE(google-explicit-constructor): specs convert implicitly
  TopologySpec(const LeafSpineConfig& cfg) : spec_(cfg) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  TopologySpec(const FatTreeSpec& cfg) : spec_(cfg) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  TopologySpec(const InterDcSpec& cfg) : spec_(cfg) {}

  [[nodiscard]] Kind kind() const {
    return static_cast<Kind>(spec_.index());
  }
  /// "leaf-spine" | "fat-tree" | "inter-dc" (manifest / CLI vocabulary).
  [[nodiscard]] const char* kind_name() const;

  [[nodiscard]] bool is_leaf_spine() const {
    return kind() == Kind::kLeafSpine;
  }
  [[nodiscard]] bool is_inter_dc() const { return kind() == Kind::kInterDc; }

  /// Kind-specific access; throws std::bad_variant_access on a mismatch.
  [[nodiscard]] const LeafSpineConfig& leaf_spine() const {
    return std::get<LeafSpineConfig>(spec_);
  }
  [[nodiscard]] LeafSpineConfig& leaf_spine() {
    return std::get<LeafSpineConfig>(spec_);
  }
  [[nodiscard]] const FatTreeSpec& fat_tree() const {
    return std::get<FatTreeSpec>(spec_);
  }
  [[nodiscard]] FatTreeSpec& fat_tree() { return std::get<FatTreeSpec>(spec_); }
  [[nodiscard]] const InterDcSpec& inter_dc() const {
    return std::get<InterDcSpec>(spec_);
  }
  [[nodiscard]] InterDcSpec& inter_dc() {
    return std::get<InterDcSpec>(spec_);
  }

  [[nodiscard]] std::int32_t num_hosts() const;
  [[nodiscard]] std::int32_t num_switches() const;
  /// Slowest host NIC rate in the fabric — the per-host line rate that
  /// workload generators and DCQCN tuning key off.
  [[nodiscard]] sim::Rate host_link_rate() const;
  /// ToR-tier switch config (buffer/PFC thresholds); agent state
  /// normalization keys off its pfc_xoff_bytes.
  [[nodiscard]] const SwitchConfig& switch_config() const;

  /// Structural validation; throws std::invalid_argument naming the
  /// offending field ("topology.<field> <why>").
  void validate() const;

 private:
  std::variant<LeafSpineConfig, FatTreeSpec, InterDcSpec> spec_;
};

}  // namespace pet::net
