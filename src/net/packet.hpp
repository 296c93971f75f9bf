#pragma once
// Packet representation. Value semantics: packets are small PODs copied
// through the simulator; no heap payloads.

#include <cstdint>

#include "sim/time.hpp"

namespace pet::net {

enum class PacketType : std::uint8_t {
  kData = 0,   // flow payload
  kCnp,        // DCQCN congestion notification (receiver -> sender)
  kPfcPause,   // link-local PFC pause (consumed by the directly attached peer)
  kPfcResume,  // link-local PFC resume
};

/// Identifier types. Hosts are numbered 0..H-1 across the topology; flows
/// are globally unique.
using HostId = std::int32_t;
using FlowId = std::uint64_t;

inline constexpr std::int32_t kControlPacketBytes = 64;

struct Packet {
  FlowId flow_id = 0;
  HostId src = -1;
  HostId dst = -1;
  PacketType type = PacketType::kData;
  std::int32_t size_bytes = 0;     // wire size including headers
  std::int32_t payload_bytes = 0;  // flow payload carried (kData only)
  std::uint32_t seq = 0;           // packet index within the flow
  bool ecn_capable = true;         // ECT codepoint set
  bool ce_marked = false;          // CE codepoint (set by switches)
  bool last_of_flow = false;
  sim::Time sent_at;               // emission time at the source host

  [[nodiscard]] bool is_control() const {
    return type != PacketType::kData;
  }
  [[nodiscard]] bool is_link_local() const {
    return type == PacketType::kPfcPause || type == PacketType::kPfcResume;
  }
};

}  // namespace pet::net
