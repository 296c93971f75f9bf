#include "exp/cli_flags.hpp"

#include <stdexcept>
#include <utility>

#include "net/topology.hpp"
#include "sim/time.hpp"

namespace pet::exp {

namespace {

// Millisecond and microsecond flags stay inside sim::Time's range.
constexpr std::int64_t kMaxMs =
    std::numeric_limits<std::int64_t>::max() / 1'000'000'000;
constexpr std::int64_t kMaxUs =
    std::numeric_limits<std::int64_t>::max() / 1'000'000;

template <typename T, std::size_t N>
T lookup(std::string_view flag, std::string_view text,
         const std::pair<std::string_view, T> (&names)[N]) {
  for (const auto& [name, value] : names) {
    if (name == text) return value;
  }
  bad_flag_value(flag, text);
}

constexpr std::pair<std::string_view, Scheme> kSchemes[] = {
    {"secn1", Scheme::kSecn1}, {"secn2", Scheme::kSecn2},
    {"amt", Scheme::kAmt},     {"qaecn", Scheme::kQaecn},
    {"acc", Scheme::kAcc},     {"pet", Scheme::kPet},
    {"pet-ablation", Scheme::kPetAblation}};

constexpr std::pair<std::string_view, workload::WorkloadKind> kWorkloads[] = {
    {"websearch", workload::WorkloadKind::kWebSearch},
    {"datamining", workload::WorkloadKind::kDataMining}};

}  // namespace

void bad_flag_value(std::string_view flag, std::string_view text) {
  throw std::invalid_argument("bad value for " + std::string(flag) + ": " +
                              std::string(text));
}

Scheme parse_scheme_flag(std::string_view text) {
  return lookup("--scheme", text, kSchemes);
}

std::string parse_topo_flag(std::string_view text) {
  if (text != "leaf-spine" && text != "fat-tree" && text != "inter-dc") {
    bad_flag_value("--topo", text);
  }
  return std::string(text);
}

bool ScenarioFlags::parse(std::string_view arg) {
  if (arg == "--no-incast") {
    incast = false;
    return true;
  }
  const std::size_t eq = arg.find('=');
  if (eq == std::string_view::npos) return false;
  const std::string_view flag = arg.substr(0, eq);
  const std::string_view text = arg.substr(eq + 1);
  const auto count = [&](std::int32_t& field) {
    field = parse_flag_number<std::int32_t>(flag, text);
  };
  if (flag == "--workload") {
    workload = lookup(flag, text, kWorkloads);
  } else if (flag == "--spines") {
    count(spines);
  } else if (flag == "--leaves") {
    count(leaves);
  } else if (flag == "--hosts-per-leaf") {
    count(hosts_per_leaf);
  } else if (flag == "--k") {
    count(fat_tree_k);
  } else if (flag == "--hosts-per-edge") {
    count(hosts_per_edge);
  } else if (flag == "--border-links") {
    count(border_links);
  } else if (flag == "--wan-delay-us") {
    wan_delay_us = parse_flag_number<std::int64_t>(flag, text, -kMaxUs, kMaxUs);
  } else if (flag == "--pretrain-ms") {
    pretrain_ms = parse_flag_number<std::int64_t>(flag, text, -kMaxMs, kMaxMs);
  } else if (flag == "--measure-ms") {
    measure_ms = parse_flag_number<std::int64_t>(flag, text, -kMaxMs, kMaxMs);
  } else {
    return false;
  }
  return true;
}

net::TopologySpec ScenarioFlags::topology(std::string_view topo) const {
  net::LeafSpineConfig ls;
  ls.num_spines = spines;
  ls.num_leaves = leaves;
  ls.hosts_per_leaf = hosts_per_leaf;
  if (parse_topo_flag(topo) == "fat-tree") {
    net::FatTreeSpec ft;
    ft.k = fat_tree_k;
    ft.hosts_per_edge = hosts_per_edge;
    return ft;
  }
  if (topo == "inter-dc") {
    net::InterDcSpec idc;
    idc.dc_a = ls;
    idc.dc_b = ls;
    idc.border_links = border_links;
    idc.wan_delay = sim::microseconds(wan_delay_us);
    return idc;
  }
  return ls;
}

void ScenarioFlags::apply(ScenarioConfig& cfg) const {
  cfg.workload = workload;
  cfg.pretrain = sim::milliseconds(pretrain_ms);
  cfg.measure = sim::milliseconds(measure_ms);
  cfg.incast_enabled = incast;
}

}  // namespace pet::exp
