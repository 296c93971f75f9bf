#pragma once
// Command-line flag values. parse_flag_number reads any tool's numeric flag
// strictly; ScenarioFlags holds the scenario flags pet_sim_cli and
// pet_sweep share (the workload name, the fabric shape, the phase lengths
// and --no-incast). A value that does not parse throws
// std::invalid_argument reading "bad value for --<flag>: <text>"; each tool
// prints it after its own name and exits 2.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "exp/experiment.hpp"
#include "exp/scheme.hpp"
#include "net/topology_spec.hpp"
#include "workload/distributions.hpp"

namespace pet::exp {

/// Throws std::invalid_argument("bad value for <flag>: <text>").
[[noreturn]] void bad_flag_value(std::string_view flag, std::string_view text);

/// `text` read whole as a T within [lo, hi]. An empty value, a trailing
/// character, a value out of range or a non-finite float throws
/// (bad_flag_value).
template <typename T>
[[nodiscard]] T parse_flag_number(std::string_view flag, std::string_view text,
                                  T lo = std::numeric_limits<T>::lowest(),
                                  T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  bool ok = ec == std::errc() && ptr == end && value >= lo && value <= hi;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) bad_flag_value(flag, text);
  return value;
}

/// A --scheme name: secn1|secn2|acc|pet|pet-ablation.
[[nodiscard]] Scheme parse_scheme_flag(std::string_view text);

/// A --topo name: leaf-spine|fat-tree|inter-dc.
[[nodiscard]] std::string parse_topo_flag(std::string_view text);

/// The scenario flags both command-line tools read. The defaults are
/// pet_sim_cli's; pet_sweep sets its own before parse().
struct ScenarioFlags {
  workload::WorkloadKind workload = workload::WorkloadKind::kWebSearch;
  // Fabric shape: leaf-spine reads spines/leaves/hosts_per_leaf, fat-tree
  // k/hosts_per_edge, and inter-dc joins two identical leaf-spine DCs over
  // border_links WAN links of wan_delay_us.
  std::int32_t spines = 2;
  std::int32_t leaves = 4;
  std::int32_t hosts_per_leaf = 8;
  std::int32_t fat_tree_k = 4;
  std::int32_t hosts_per_edge = 0;  // 0 = canonical k/2
  std::int32_t border_links = 1;
  std::int64_t wan_delay_us = 1000;
  std::int64_t pretrain_ms = 40;
  std::int64_t measure_ms = 40;
  bool incast = true;

  /// Usage lines for these flags.
  static constexpr const char* kHelp =
      "  --workload=websearch|datamining\n"
      "  --spines=N --leaves=N --hosts-per-leaf=N   (leaf-spine / inter-dc)\n"
      "  --k=N --hosts-per-edge=N                   (fat-tree; 0 = k/2)\n"
      "  --border-links=N --wan-delay-us=N          (inter-dc)\n"
      "  --pretrain-ms=N --measure-ms=N [--no-incast]\n";

  /// Reads `arg` and returns true when it is one of these flags; returns
  /// false for any other argument.
  bool parse(std::string_view arg);

  /// The fabric of `topo` (a parse_topo_flag name) in this shape.
  [[nodiscard]] net::TopologySpec topology(std::string_view topo) const;

  /// Writes the workload, phases and incast switch into `cfg`.
  void apply(ScenarioConfig& cfg) const;
};

}  // namespace pet::exp
