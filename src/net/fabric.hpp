#pragma once
// Fabric: the topology-agnostic query interface over a built TopologySpec.
//
// build_fabric() materializes a spec inside a Network — hosts first (so
// HostIds stay dense 0..H-1), then switches tier by tier, then links in a
// fixed order — and returns a Fabric exposing exactly what downstream code
// needs: host count, the ToR a host hangs off, labeled per-tier device
// lists, and analytic base-RTT queries. Experiment, benches and tooling go
// through this interface instead of poking leaf/spine device vectors.
//
// The leaf-spine path reproduces the pre-Fabric builder's device and link
// creation order exactly, so pre-redesign scenarios stay bitwise identical
// (tests/test_fabric.cpp keeps that builder as the reference).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "net/topology_spec.hpp"
#include "sim/time.hpp"

namespace pet::net {

/// One switch tier of a built fabric, bottom-up (ToR tier first). Inter-DC
/// fabrics prefix tier labels with "a."/"b." and add a final "border"
/// tier.
struct FabricTier {
  std::string label;
  std::vector<DeviceId> devices;
};

class Fabric {
 public:
  [[nodiscard]] const TopologySpec& spec() const { return spec_; }

  [[nodiscard]] std::int32_t num_hosts() const {
    return static_cast<std::int32_t>(host_devices_.size());
  }
  [[nodiscard]] const std::vector<DeviceId>& host_devices() const {
    return host_devices_;
  }

  /// The ToR switch `h` hangs off. Throws std::out_of_range for an id
  /// outside 0..num_hosts()-1.
  [[nodiscard]] DeviceId tor_of(HostId h) const;

  [[nodiscard]] const std::vector<FabricTier>& tiers() const { return tiers_; }
  [[nodiscard]] bool has_tier(std::string_view label) const;
  /// Devices of a tier by label; throws std::out_of_range for an unknown
  /// label (tiers() lists the valid ones).
  [[nodiscard]] const std::vector<DeviceId>& tier(std::string_view label) const;
  /// Tier label of a switch device; empty for hosts / unknown ids.
  [[nodiscard]] std::string_view tier_of(DeviceId device) const;

  /// Every host-facing (ToR) switch, across all tiers and datacenters.
  [[nodiscard]] const std::vector<DeviceId>& tor_devices() const {
    return tor_devices_;
  }
  /// The topmost switch tier (spines, cores, or the WAN border routers).
  [[nodiscard]] const std::vector<DeviceId>& top_devices() const {
    return tiers_.back().devices;
  }

  /// Unloaded RTT between two hosts: per-hop propagation plus one-MTU
  /// serialization along the shortest path, both ways. Symmetric; zero for
  /// src == dst. Throws std::out_of_range for bad host ids.
  [[nodiscard]] sim::Time base_rtt(HostId src, HostId dst,
                                   std::int32_t mtu_bytes) const;
  /// RTT across the fabric diameter (two maximally distant hosts) — the
  /// scenario-level number metrics normalize against.
  [[nodiscard]] sim::Time diameter_rtt(std::int32_t mtu_bytes) const;

 private:
  friend Fabric build_fabric(Network& net, const TopologySpec& spec);

  /// One link class on a host's path: propagation delay plus one-MTU
  /// serialization at the link rate.
  struct Hop {
    sim::Rate rate;
    sim::Time delay;
  };
  /// Shape of one datacenter for analytic RTT: the per-tier hop profiles
  /// on a host's path to the DC's top tier, bottom-up (host link first).
  struct DcShape {
    std::vector<Hop> up_hops;
    std::int32_t first_host = 0;  // dense HostId range [first, first+count)
    std::int32_t num_hosts = 0;
  };
  struct HostLoc {
    std::int32_t dc = 0;
    std::int32_t pod = 0;  // fat-tree pod; leaf-spine: same as tor
    std::int32_t tor = 0;  // index into tor_devices_
  };

  [[nodiscard]] const HostLoc& loc_of(HostId h, const char* who) const;
  [[nodiscard]] sim::Time one_way(const HostLoc& src, const HostLoc& dst,
                                  std::int32_t mtu_bytes) const;

  TopologySpec spec_;
  std::vector<DeviceId> host_devices_;
  std::vector<DeviceId> tor_devices_;
  std::vector<FabricTier> tiers_;
  std::vector<HostLoc> host_loc_;
  std::vector<DcShape> dc_shapes_;  // 1 entry, or 2 for inter-DC
  Hop wan_hop_{};                   // inter-DC only
};

/// Build `spec` inside `net` (hosts, switches, links, routes) and return
/// the query interface. Hosts are created first so HostIds are 0..H-1.
[[nodiscard]] Fabric build_fabric(Network& net, const TopologySpec& spec);

}  // namespace pet::net
