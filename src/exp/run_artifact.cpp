#include "exp/run_artifact.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "core/pet_agent.hpp"
#include "exp/scheme.hpp"
#include "net/topology.hpp"
#include "sim/fs_atomic.hpp"
#include "workload/distributions.hpp"

// Injected by src/exp/CMakeLists.txt from `git rev-parse` at configure
// time; "unknown" outside a git checkout.
#ifndef PET_GIT_SHA
#define PET_GIT_SHA "unknown"
#endif

namespace pet::exp {

RunArtifact::RunArtifact(std::string name) : name_(std::move(name)) {}

void RunArtifact::set_mode(std::string mode) { mode_ = std::move(mode); }
void RunArtifact::set_seed(std::uint64_t seed) { seed_ = seed; }
void RunArtifact::set_threads(std::int32_t threads) { threads_ = threads; }

void RunArtifact::set_scenario(const ScenarioConfig& cfg) {
  has_scenario_ = true;
  scenario_ = scenario_json(cfg);
}

void RunArtifact::add_metric(std::string key, double value) {
  metrics_.set(std::move(key), value);
}

void RunArtifact::add_metric(std::string key, std::string value) {
  metrics_.set(std::move(key), JsonValue(std::move(value)));
}

void RunArtifact::add_metric(std::string key, JsonValue value) {
  metrics_.set(std::move(key), std::move(value));
}

void RunArtifact::set_manifest_extra(std::string key, JsonValue value) {
  manifest_extra_.set(std::move(key), std::move(value));
}

void RunArtifact::add_metrics(const std::string& label, const Metrics& m) {
  const std::string p = label.empty() ? "" : label + ".";
  add_metric(p + "overall.avg_fct_us", m.overall.avg_us);
  add_metric(p + "overall.p99_fct_us", m.overall.p99_us);
  add_metric(p + "overall.avg_slowdown", m.overall.avg_slowdown);
  add_metric(p + "overall.flows", static_cast<double>(m.overall.count));
  add_metric(p + "mice.avg_fct_us", m.mice.avg_us);
  add_metric(p + "mice.p99_fct_us", m.mice.p99_us);
  add_metric(p + "elephants.avg_fct_us", m.elephants.avg_us);
  add_metric(p + "latency.avg_us", m.latency_avg_us);
  add_metric(p + "latency.p99_us", m.latency_p99_us);
  add_metric(p + "queue.avg_kb", m.queue_avg_kb);
  add_metric(p + "queue.std_kb", m.queue_std_kb);
  add_metric(p + "flows_incomplete", static_cast<double>(m.flows_incomplete));
  add_metric(p + "switch_drops", static_cast<double>(m.switch_drops));
  add_metric(p + "pfc_pauses", static_cast<double>(m.pfc_pauses));
}

namespace {

/// Counters summed over one switch or a tier of them, and the envelope of
/// their ECN thresholds. The switch rows and the tier rows both write it.
struct SwitchRollup {
  std::int64_t tx_bytes = 0;
  std::int64_t marked_bytes = 0;
  std::int64_t dropped = 0;
  std::int64_t no_route = 0;
  std::int64_t buffer_full = 0;
  std::int64_t pauses = 0;
  std::int64_t installs = 0;
  std::int64_t kmin_min = 0;
  std::int64_t kmin_max = 0;
  std::int64_t kmax_min = 0;
  std::int64_t kmax_max = 0;
  bool empty = true;

  void add(const net::SwitchDevice& sw, const net::EcnConfigSummary& ecn) {
    for (std::int32_t p = 0; p < sw.num_ports(); ++p) {
      tx_bytes += sw.port(p).tx_bytes();
      marked_bytes += sw.port(p).tx_marked_bytes();
      dropped += sw.port(p).dropped_packets();
    }
    no_route += sw.dropped_no_route();
    buffer_full += sw.dropped_buffer_full();
    pauses += sw.pfc_pauses_sent();
    installs += sw.ecn_installs();
    if (empty) {
      kmin_min = ecn.kmin_min_bytes;
      kmin_max = ecn.kmin_max_bytes;
      kmax_min = ecn.kmax_min_bytes;
      kmax_max = ecn.kmax_max_bytes;
      empty = false;
    } else {
      kmin_min = std::min(kmin_min, ecn.kmin_min_bytes);
      kmin_max = std::max(kmin_max, ecn.kmin_max_bytes);
      kmax_min = std::min(kmax_min, ecn.kmax_min_bytes);
      kmax_max = std::max(kmax_max, ecn.kmax_max_bytes);
    }
  }

  /// The seven counter keys, in artifact order.
  void set_counters(JsonValue& row) const {
    row.set("tx_bytes", tx_bytes);
    row.set("tx_marked_bytes", marked_bytes);
    row.set("port_dropped_packets", dropped);
    row.set("dropped_no_route", no_route);
    row.set("dropped_buffer_full", buffer_full);
    row.set("pfc_pauses_sent", pauses);
    row.set("ecn_installs", installs);
  }

  /// The "ecn_config" object's four threshold keys.
  [[nodiscard]] JsonValue ecn_json() const {
    JsonValue ecn = JsonValue::object();
    ecn.set("kmin_min_bytes", kmin_min);
    ecn.set("kmin_max_bytes", kmin_max);
    ecn.set("kmax_min_bytes", kmax_min);
    ecn.set("kmax_max_bytes", kmax_max);
    return ecn;
  }
};

void set_leaf_spine_fields(JsonValue& out, const net::LeafSpineConfig& ls) {
  out.set("spines", ls.num_spines);
  out.set("leaves", ls.num_leaves);
  out.set("hosts_per_leaf", ls.hosts_per_leaf);
  out.set("host_gbps", ls.host_link_rate.gbps());
  out.set("spine_gbps", ls.spine_link_rate.gbps());
}

void set_fat_tree_fields(JsonValue& out, const net::FatTreeSpec& ft) {
  out.set("k", ft.k);
  out.set("hosts_per_edge", ft.hosts_per_edge_effective());
  out.set("host_gbps", ft.host_link_rate.gbps());
  out.set("edge_agg_gbps", ft.edge_agg_rate.gbps());
  out.set("agg_core_gbps", ft.agg_core_rate.gbps());
  out.set("edge_oversubscription", ft.edge_oversubscription());
  out.set("agg_oversubscription", ft.agg_oversubscription());
}

JsonValue dc_spec_json(const net::DcSpec& dc) {
  JsonValue out = JsonValue::object();
  if (const auto* ls = std::get_if<net::LeafSpineConfig>(&dc)) {
    out.set("kind", "leaf-spine");
    set_leaf_spine_fields(out, *ls);
  } else {
    out.set("kind", "fat-tree");
    set_fat_tree_fields(out, std::get<net::FatTreeSpec>(dc));
  }
  return out;
}

}  // namespace

void RunArtifact::add_switch_summaries(
    const std::vector<net::SwitchDevice*>& switches) {
  switches_ = JsonValue::array();
  for (const net::SwitchDevice* sw : switches) {
    JsonValue row = JsonValue::object();
    row.set("id", sw->id());
    row.set("name", sw->name());
    const net::EcnConfigSummary ecn = sw->ecn_config_summary();
    SwitchRollup rollup;
    rollup.add(*sw, ecn);
    rollup.set_counters(row);
    row.set("reboots", sw->reboots());
    JsonValue cfg = rollup.ecn_json();
    cfg.set("pmax_min", ecn.pmax_min);
    cfg.set("pmax_max", ecn.pmax_max);
    cfg.set("uniform", JsonValue(ecn.uniform));
    cfg.set("queues", ecn.queues);
    row.set("ecn_config", std::move(cfg));
    switches_.push_back(std::move(row));
  }
}

JsonValue scenario_json(const ScenarioConfig& cfg) {
  JsonValue out = JsonValue::object();
  out.set("scheme", scheme_name(cfg.scheme));
  out.set("workload", workload::workload_name(cfg.workload));
  out.set("load", cfg.load);
  out.set("seed", cfg.seed);
  out.set("topology", topology_spec_json(cfg.topo));
  out.set("pretrain_ms", cfg.pretrain.ms());
  out.set("measure_ms", cfg.measure.ms());
  // Every dynamic scheme ticks at its config's default interval. The key
  // stays, so sweep artifacts that recorded it still match on --resume.
  out.set("tuning_interval_us", core::PetAgentConfig{}.tuning_interval.us());
  out.set("incast_enabled", JsonValue(cfg.incast_enabled));
  out.set("flow_size_cap_bytes", cfg.flow_size_cap_bytes);
  return out;
}

JsonValue topology_spec_json(const net::TopologySpec& spec) {
  JsonValue topo = JsonValue::object();
  topo.set("kind", spec.kind_name());
  topo.set("hosts", spec.num_hosts());
  topo.set("switches", spec.num_switches());
  switch (spec.kind()) {
    case net::TopologySpec::Kind::kLeafSpine:
      set_leaf_spine_fields(topo, spec.leaf_spine());
      break;
    case net::TopologySpec::Kind::kFatTree:
      set_fat_tree_fields(topo, spec.fat_tree());
      break;
    case net::TopologySpec::Kind::kInterDc: {
      const net::InterDcSpec& idc = spec.inter_dc();
      topo.set("dc_a", dc_spec_json(idc.dc_a));
      topo.set("dc_b", dc_spec_json(idc.dc_b));
      topo.set("border_links", idc.border_links);
      topo.set("wan_gbps", idc.wan_rate.gbps());
      topo.set("wan_delay_us", idc.wan_delay.us());
      break;
    }
  }
  return topo;
}

JsonValue tier_summaries_json(const net::Fabric& fabric, net::Network& net) {
  JsonValue tiers = JsonValue::array();
  for (const net::FabricTier& tier : fabric.tiers()) {
    JsonValue row = JsonValue::object();
    row.set("label", tier.label);
    row.set("switches", static_cast<std::int64_t>(tier.devices.size()));
    SwitchRollup rollup;
    for (const net::DeviceId id : tier.devices) {
      const auto* sw = dynamic_cast<const net::SwitchDevice*>(&net.device(id));
      if (sw == nullptr) continue;
      rollup.add(*sw, sw->ecn_config_summary());
    }
    rollup.set_counters(row);
    row.set("ecn_config", rollup.ecn_json());
    tiers.push_back(std::move(row));
  }
  return tiers;
}

void RunArtifact::add_tier_summaries(const net::Fabric& fabric,
                                     net::Network& net) {
  tiers_ = tier_summaries_json(fabric, net);
}

void RunArtifact::add_event_counts(const EventLog& log) {
  // Deterministic key order for byte-stable artifacts.
  std::map<std::string, std::int64_t> counts;
  for (const TelemetryEvent& e : log.events()) ++counts[e.kind];
  event_counts_ = JsonValue::object();
  for (const auto& [kind, n] : counts) event_counts_.set(kind, n);
}

void RunArtifact::set_profiler(const sim::Profiler& profiler) {
  profiler_ = JsonValue::object();
  JsonValue sections = JsonValue::array();
  for (const sim::Profiler::Section& s : profiler.sections()) {
    JsonValue row = JsonValue::object();
    row.set("name", s.name);
    row.set("calls", s.calls);
    row.set("wall_ms", s.wall_ms);
    sections.push_back(std::move(row));
  }
  profiler_.set("sections", std::move(sections));
  JsonValue spans = JsonValue::array();
  for (const sim::Profiler::Span& sp : profiler.spans()) {
    JsonValue row = JsonValue::object();
    row.set("name", sp.name);
    row.set("sim_t0_us", sp.t0_us);
    row.set("sim_t1_us", sp.t1_us);
    row.set("wall_ms", sp.wall_ms);
    spans.push_back(std::move(row));
  }
  profiler_.set("spans", std::move(spans));
}

void RunArtifact::record_run(Experiment& experiment) {
  set_scenario(experiment.config());
  add_switch_summaries(experiment.network().switches());
  add_tier_summaries(experiment.topology(), experiment.network());
  add_event_counts(experiment.event_log());
  set_profiler(experiment.profiler());
}

JsonValue RunArtifact::to_json() const {
  JsonValue root = JsonValue::object();
  root.set("schema", std::string(kSchemaVersion));
  JsonValue manifest = JsonValue::object();
  manifest.set("name", name_);
  manifest.set("git_sha", PET_GIT_SHA);
  manifest.set("seed", seed_);
  manifest.set("mode", mode_);
  manifest.set("threads", threads_);
  if (has_scenario_) manifest.set("scenario", scenario_);
  for (const auto& [key, value] : manifest_extra_.members()) {
    manifest.set(key, value);
  }
  root.set("manifest", std::move(manifest));
  root.set("metrics", metrics_);
  if (switches_.size() > 0) root.set("switches", switches_);
  if (tiers_.size() > 0) root.set("tiers", tiers_);
  if (!event_counts_.members().empty()) root.set("events", event_counts_);
  JsonValue prof = profiler_;
  if (prof.find("sections") == nullptr) {
    prof = JsonValue::object();
    prof.set("sections", JsonValue::array());
    prof.set("spans", JsonValue::array());
  }
  root.set("profiler", std::move(prof));
  return root;
}

bool RunArtifact::write(const std::string& path) const {
  const std::string target = path.empty() ? default_path() : path;
  // Atomic replace: resume detection and golden gates treat an existing
  // artifact as proof of a completed run, so a torn write must be
  // impossible.
  if (!sim::atomic_write_file(target, to_json_text() + '\n')) {
    std::fprintf(stderr, "run-artifact: failed to write %s\n", target.c_str());
    return false;
  }
  return true;
}

bool RunArtifact::validate_text(std::string_view text, std::string* error) {
  const auto set_error = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  std::string parse_error;
  const auto doc = JsonValue::parse(text, &parse_error);
  if (!doc) return set_error("invalid JSON: " + parse_error);
  if (!doc->is_object()) return set_error("top level is not an object");
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string()) {
    return set_error("missing \"schema\"");
  }
  if (schema->as_string() != kSchemaVersion) {
    return set_error("unexpected schema version: " + schema->as_string());
  }
  const JsonValue* manifest = doc->find("manifest");
  if (manifest == nullptr || !manifest->is_object()) {
    return set_error("missing \"manifest\" object");
  }
  for (const char* key : {"name", "git_sha", "mode"}) {
    const JsonValue* v = manifest->find(key);
    if (v == nullptr || !v->is_string() || v->as_string().empty()) {
      return set_error(std::string("manifest missing string \"") + key + '"');
    }
  }
  const JsonValue* seed = manifest->find("seed");
  if (seed == nullptr || !seed->is_number()) {
    return set_error("manifest missing numeric \"seed\"");
  }
  const JsonValue* scenario = manifest->find("scenario");
  if (scenario != nullptr) {
    // A recorded scenario must carry the full topology spec.
    if (!scenario->is_object()) {
      return set_error("manifest \"scenario\" is not an object");
    }
    const JsonValue* topo = scenario->find("topology");
    if (topo == nullptr || !topo->is_object()) {
      return set_error("scenario missing \"topology\" object");
    }
    const JsonValue* kind = topo->find("kind");
    if (kind == nullptr || !kind->is_string() || kind->as_string().empty()) {
      return set_error("scenario topology missing string \"kind\"");
    }
    const JsonValue* hosts = topo->find("hosts");
    if (hosts == nullptr || !hosts->is_number()) {
      return set_error("scenario topology missing numeric \"hosts\"");
    }
  }
  const JsonValue* metrics = doc->find("metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    return set_error("missing \"metrics\" object");
  }
  const JsonValue* profiler = doc->find("profiler");
  if (profiler == nullptr || !profiler->is_object() ||
      profiler->find("sections") == nullptr ||
      !profiler->find("sections")->is_array()) {
    return set_error("missing \"profiler\" section with \"sections\" array");
  }
  return true;
}

}  // namespace pet::exp
