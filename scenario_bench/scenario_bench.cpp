// scenario_bench: whole-scenario benchmark of the PET simulator.
//
// Runs one named workload (a fixed pretrain + measure timeline on the 32-host
// leaf-spine) for about --seconds of host time, checks the modelled outputs,
// and prints one JSON result line as the last line of stdout:
//
//   scenario_bench --workload=websearch_pet --seed=7 --seconds=20 --trace=0
//                  --weights-dir=scenario_bench/weights
//
// --trace=0 repeats untraced runs and reports the end-to-end metrics.
// --trace=1 alternates an untraced and a traced (sim::Profiler) run of the
// same seed and reports the per-layer split. Only the public API of the
// sim/net/transport/workload/core/rl/acc/exp modules is used; layer walls
// come from the profiler's per-event-tag sections (see README.md for the
// tag-to-layer map and its limits).
//
//   scenario_bench --make-weights=DIR
//
// regenerates the pretrained PET and ACC weight files with
// exp::offline_pretrain (about 80 s single-threaded).

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment_builder.hpp"
#include "exp/pretrain.hpp"

namespace {

using namespace pet;
using Clock = std::chrono::steady_clock;

/// One benchmark workload. Why each exists is recorded in README.md.
struct Workload {
  std::string_view name;
  exp::Scheme scheme;
  workload::WorkloadKind traffic;
  sim::Time pretrain;
  sim::Time measure;
  /// Weight file stem under --weights-dir; empty for static schemes.
  std::string_view weights;
};

const std::array<Workload, 3> kWorkloads{{
    {"websearch_secn1", exp::Scheme::kSecn1,
     workload::WorkloadKind::kWebSearch, sim::milliseconds(10),
     sim::milliseconds(70), ""},
    {"websearch_pet", exp::Scheme::kPet, workload::WorkloadKind::kWebSearch,
     sim::milliseconds(10), sim::milliseconds(70), "websearch_pet"},
    {"datamining_acc", exp::Scheme::kAcc, workload::WorkloadKind::kDataMining,
     sim::milliseconds(10), sim::milliseconds(35), "datamining_acc"},
}};

/// The pretrained weights never depend on the traffic seed: they come from
/// one offline sandbox at this fixed seed.
constexpr std::uint64_t kWeightsSeed = 20250704;
/// p99 over fewer mice leaves under ten samples beyond the percentile.
constexpr std::size_t kMinMice = 1000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

volatile double g_probe_sink = 0.0;
/// What host_probe_ms() takes on an unloaded host of the kind the baseline
/// was measured on; host times are reported at this probe speed.
constexpr double kProbeNominalMs = 50.0;

/// Host-speed probe: a fixed, benchmark-owned mix of heap churn, random
/// reads over 8 MiB and small dense matrix-vector products, roughly the
/// simulator's own mix. Co-tenants on a shared host slow the simulator by
/// tens of percent for minutes at a time; timing this probe right before
/// and after each timeline run and scaling by it removes most of that
/// drift. Program changes cannot move it. Returns wall ms.
double host_probe_ms() {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::uint64_t> heap;
  std::vector<std::uint32_t> table(1u << 21);
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (auto& t : table) t = static_cast<std::uint32_t>(next());
  double acc = 0.0;
  for (int i = 0; i < 200000; ++i) {
    heap.push_back(next() >> 20);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 4096) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      acc += static_cast<double>(table[heap.back() & (table.size() - 1)]);
      heap.pop_back();
    }
  }
  std::vector<double> m(64 * 64, 0.5);
  std::vector<double> v(64, 0.25);
  std::vector<double> o(64, 0.0);
  for (int r = 0; r < 1500; ++r) {
    for (int i = 0; i < 64; ++i) {
      double sum = 0.0;
      for (int j = 0; j < 64; ++j) sum += m[i * 64 + j] * v[j];
      o[i] = sum * 1e-3;
    }
    v.swap(o);
  }
  g_probe_sink = acc + v[0];
  return ms_between(t0, Clock::now());
}

exp::ExperimentBuilder scenario(const Workload& w, std::uint64_t seed,
                                bool traced) {
  net::LeafSpineConfig fabric;
  fabric.num_spines = 2;
  fabric.num_leaves = 4;
  fabric.hosts_per_leaf = 8;
  // A leaf has 10 ingress ports with a 256 KiB PFC XOFF each, more than the
  // default 2 MiB shared buffer, so it can overflow before PFC pauses
  // anyone. 4 MiB makes the fabric lossless by construction. The buffer
  // size only decides drops, so runs that never fill 2 MiB are unchanged.
  fabric.switch_cfg.buffer_bytes = 4 * 1024 * 1024;
  exp::ExperimentBuilder b;
  b.scheme(w.scheme)
      .workload(w.traffic)
      .load(0.6)
      .topology(net::TopologySpec(fabric))
      .flow_size_cap(8e6)
      .phases(w.pretrain, w.measure)
      .incast(8, 32 * 1024, sim::milliseconds(1))
      .seed(seed)
      .profiling(traced)
      .tuned_dcqcn();
  if (!w.weights.empty()) b.expects_pretrained(true).pretrain_lr_boost(1.0);
  return b;
}

/// Everything one timeline run produced that the benchmark reports or checks.
struct Run {
  double build_ms = 0.0;
  double weights_ms = 0.0;
  double pretrain_wall_ms = 0.0;
  double measure_wall_ms = 0.0;
  double collect_ms = 0.0;
  exp::Metrics m;
  /// Modelled outputs as raw bits: Metrics fields, events executed and the
  /// per-port tx counters. Equal fingerprints mean bit-identical outputs.
  std::vector<std::uint64_t> fingerprint;
  /// Exact counts from public getters (identical traced or untraced).
  std::map<std::string, double> counts;
  /// Traced runs only: profiler wall per layer, and per-tag event calls.
  std::map<std::string, double> layer_wall_ms;
  std::map<std::string, double> tag_calls;
  std::vector<std::string> failures;

  [[nodiscard]] double run_until_ms() const {
    return pretrain_wall_ms + measure_wall_ms;
  }
};

/// Event-tag prefix -> layer. Untagged events are not timed by the profiler,
/// so their cost stays in sim.self_ms.
const char* layer_of_tag(std::string_view tag) {
  if (tag.starts_with("net.")) return "net";
  if (tag.starts_with("transport.")) return "transport";
  if (tag.starts_with("workload.")) return "workload";
  if (tag == "rl.pet-tick") return "core";
  if (tag == "rl.acc-tick") return "acc";
  if (tag.starts_with("telemetry.")) return "exp";
  return nullptr;
}

void push_double(std::vector<std::uint64_t>& out, double v) {
  out.push_back(std::bit_cast<std::uint64_t>(v));
}

void push_bucket(std::vector<std::uint64_t>& out,
                 const exp::FctBucketStats& b) {
  out.push_back(b.count);
  push_double(out, b.avg_us);
  push_double(out, b.p99_us);
  push_double(out, b.avg_slowdown);
  push_double(out, b.p99_slowdown);
}

std::vector<std::uint64_t> fingerprint_of(const exp::Metrics& m,
                                          exp::Experiment& ex) {
  std::vector<std::uint64_t> out;
  push_bucket(out, m.overall);
  push_bucket(out, m.mice);
  push_bucket(out, m.elephants);
  push_double(out, m.latency_avg_us);
  push_double(out, m.latency_p99_us);
  push_double(out, m.queue_avg_kb);
  push_double(out, m.queue_std_kb);
  for (const std::int64_t v : {m.flows_measured, m.flows_incomplete,
                               m.switch_drops, m.pfc_pauses}) {
    out.push_back(static_cast<std::uint64_t>(v));
  }
  out.push_back(ex.scheduler().executed());
  net::Network& network = ex.network();
  for (std::int32_t d = 0; d < network.num_devices(); ++d) {
    net::Device& dev = network.device(d);
    for (std::int32_t p = 0; p < dev.num_ports(); ++p) {
      const net::EgressPort& port = dev.port(p);
      for (const std::int64_t v : {port.tx_packets(), port.tx_bytes(),
                                   port.tx_marked_packets()}) {
        out.push_back(static_cast<std::uint64_t>(v));
      }
    }
  }
  return out;
}

/// Exact per-layer counts from public getters.
std::map<std::string, double> counts_of(const exp::Metrics& m,
                                        exp::Experiment& ex) {
  std::map<std::string, double> c;
  const auto add = [&c](const char* key, auto v) {
    c[key] += static_cast<double>(v);
  };
  add("sim.events", ex.scheduler().executed());
  add("sim.pool_slots", ex.scheduler().pool_size());

  std::int64_t hops = 0;
  std::int64_t marked = 0;
  std::int64_t port_drops = 0;
  net::Network& network = ex.network();
  for (std::int32_t d = 0; d < network.num_devices(); ++d) {
    net::Device& dev = network.device(d);
    for (std::int32_t p = 0; p < dev.num_ports(); ++p) {
      const net::EgressPort& port = dev.port(p);
      hops += port.tx_packets();
      marked += port.tx_marked_packets();
      port_drops += port.dropped_packets() + port.fault_dropped_packets() +
                    port.fault_corrupted_packets() +
                    port.burst_dropped_packets();
    }
  }
  add("net.packet_hops", hops);
  add("net.ecn_marked_share",
      hops > 0 ? static_cast<double>(marked) / static_cast<double>(hops) : 0.0);
  add("net.pfc_pauses", m.pfc_pauses);
  add("net.drops", m.switch_drops + port_drops);

  transport::RdmaTransport& tr = ex.transport();
  add("transport.flows_started", tr.flows_started());
  add("transport.flows_completed", tr.flows_completed());
  add("transport.flows_incomplete", m.flows_incomplete);

  const std::int64_t incast_flows =
      ex.incast() != nullptr
          ? ex.incast()->epochs() * ex.config().incast_fan_in
          : 0;
  add("workload.flows_generated",
      ex.background().flows_generated() + incast_flows);

  std::int64_t pet_decisions = 0;
  std::int64_t ppo_updates = 0;
  std::int64_t transitions = 0;
  std::int64_t rollbacks = 0;
  std::int64_t unhealthy = 0;
  if (core::PetController* pet = ex.pet()) {
    for (std::size_t i = 0; i < pet->num_agents(); ++i) {
      const core::PetAgent& a = pet->agent(i);
      pet_decisions += a.steps();
      ppo_updates += a.updates();
      transitions += static_cast<std::int64_t>(a.health_transitions().size());
      if (a.health() != core::AgentHealth::kHealthy) ++unhealthy;
    }
    rollbacks = pet->total_rollbacks();
  }
  add("core.decisions", pet_decisions);
  add("core.health_transitions", transitions);
  add("core.rollbacks", rollbacks);
  add("core.unhealthy_agents", unhealthy);
  add("rl.ppo_updates", ppo_updates);

  std::int64_t acc_decisions = 0;
  std::size_t exchange = 0;
  if (acc::AccController* acc = ex.acc()) {
    for (std::size_t i = 0; i < acc->num_agents(); ++i) {
      acc_decisions += acc->agent(i).steps();
    }
    exchange = acc->replay_exchange_bytes();
  }
  add("acc.decisions", acc_decisions);
  add("acc.replay_exchange_bytes", exchange);
  return c;
}

/// Build, load weights, run the whole timeline, collect and check.
Run run_once(const Workload& w, std::uint64_t seed, bool traced,
             const std::string& weights_dir) {
  Run r;
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<exp::Experiment> ex = scenario(w, seed, traced).build();
  const Clock::time_point t1 = Clock::now();
  bool installed = true;
  if (!w.weights.empty()) {
    // The model's parameter count rejects a weight file for another
    // architecture; a missing or mismatched file fails the run.
    const std::uint64_t expected = ex->learned_weights().size();
    const std::optional<std::vector<double>> weights =
        exp::WeightCache(weights_dir).load(std::string(w.weights), expected);
    installed = weights.has_value() && ex->install_learned_weights(*weights);
  }
  const Clock::time_point t2 = Clock::now();
  r.build_ms = ms_between(t0, t1);
  r.weights_ms = ms_between(t1, t2);
  if (!installed) r.failures.push_back("weights not installed");

  const sim::Time end = w.pretrain + w.measure;
  const Clock::time_point t3 = Clock::now();
  ex->run_until(w.pretrain);
  const Clock::time_point t4 = Clock::now();
  ex->mark_measurement_start();
  const Clock::time_point t5 = Clock::now();
  ex->run_until(end);
  const Clock::time_point t6 = Clock::now();
  r.m = ex->collect(w.pretrain, end);
  const Clock::time_point t7 = Clock::now();
  r.pretrain_wall_ms = ms_between(t3, t4);
  r.measure_wall_ms = ms_between(t5, t6);
  r.collect_ms = ms_between(t6, t7);

  r.fingerprint = fingerprint_of(r.m, *ex);
  r.counts = counts_of(r.m, *ex);

  if (ex->scheduler().now() != end) r.failures.push_back("timeline incomplete");
  if (r.m.mice.count < kMinMice) r.failures.push_back("fewer than 1000 mice");
  if (r.counts["net.drops"] != 0) r.failures.push_back("packets dropped");
  if (r.counts["core.unhealthy_agents"] != 0 ||
      r.counts["core.health_transitions"] != 0) {
    r.failures.push_back("an agent left Healthy");
  }

  if (traced) {
    for (const sim::Profiler::Section& s : ex->profiler().sections()) {
      if (s.name == "event") continue;  // untagged: counted, never timed
      r.tag_calls[s.name] += static_cast<double>(s.calls);
      const char* layer = layer_of_tag(s.name);
      if (layer == nullptr) {
        r.failures.push_back("event tag without a layer: " + s.name);
        continue;
      }
      r.layer_wall_ms[layer] += s.wall_ms;
    }
  }
  return r;
}

/// FNV-1a over a fingerprint, printed so runs can be compared by eye.
std::uint64_t digest(const std::vector<std::uint64_t>& fingerprint) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint64_t word : fingerprint) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((word >> (8 * byte)) & 0xff)) * 1099511628211ULL;
    }
  }
  return h;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double calls_with_prefix(const Run& r, std::string_view prefix) {
  double n = 0.0;
  for (const auto& [tag, calls] : r.tag_calls) {
    if (std::string_view(tag).starts_with(prefix)) n += calls;
  }
  return n;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Modelled outcomes of one timeline, in simulated time.
std::vector<Metric> outcome_metrics(const exp::Metrics& m) {
  return {
      {"outcome.fct_avg_us", m.overall.avg_us, "us"},
      {"outcome.mice_fct_p99_us", m.mice.p99_us, "us"},
      {"outcome.mice_samples", static_cast<double>(m.mice.count), "count"},
      {"outcome.elephant_fct_avg_us", m.elephants.avg_us, "us"},
      {"outcome.queue_avg_kb", m.queue_avg_kb, "KB"},
  };
}

/// Per-layer metrics of one (untraced, traced) pair of the same seed.
std::vector<Metric> layer_metrics(const Workload& w, const Run& plain,
                                  const Run& traced) {
  const auto& c = traced.counts;
  const auto wall = [&traced](const char* layer) {
    const auto it = traced.layer_wall_ms.find(layer);
    return it == traced.layer_wall_ms.end() ? 0.0 : it->second;
  };
  const double total_ms = traced.run_until_ms();
  double tagged_ms = 0.0;
  for (const auto& [layer, ms] : traced.layer_wall_ms) tagged_ms += ms;
  const double hops = c.at("net.packet_hops");
  const double events = c.at("sim.events");
  const double net_events = calls_with_prefix(traced, "net.tx") +
                            calls_with_prefix(traced, "net.prop");
  std::vector<Metric> out{
      {"sim.events", events, "count"},
      {"sim.ns_per_event", ratio(plain.run_until_ms() * 1e6, events), "ns"},
      {"sim.self_ms", total_ms - tagged_ms, "ms"},
      {"sim.pool_slots", c.at("sim.pool_slots"), "count"},
      {"net.packet_hops", hops, "count"},
      {"net.events_per_hop", ratio(net_events, hops), "ratio"},
      {"net.wall_ms", wall("net"), "ms"},
      {"net.share", ratio(wall("net"), total_ms), "ratio"},
      {"net.ns_per_hop", ratio(wall("net") * 1e6, hops), "ns"},
      {"net.ecn_marked_share", c.at("net.ecn_marked_share"), "ratio"},
      {"net.pfc_pauses", c.at("net.pfc_pauses"), "count"},
      {"net.drops", c.at("net.drops"), "count"},
      {"transport.flows_started", c.at("transport.flows_started"), "count"},
      {"transport.flows_completed", c.at("transport.flows_completed"),
       "count"},
      {"transport.flows_incomplete", c.at("transport.flows_incomplete"),
       "count"},
      {"transport.timer_events", calls_with_prefix(traced, "transport."),
       "count"},
      {"transport.wall_ms", wall("transport"), "ms"},
      {"transport.share", ratio(wall("transport"), total_ms), "ratio"},
      {"workload.flows_generated", c.at("workload.flows_generated"), "count"},
      {"workload.events", calls_with_prefix(traced, "workload."), "count"},
      {"workload.wall_ms", wall("workload"), "ms"},
      {"core.ticks", calls_with_prefix(traced, "rl.pet-tick"), "count"},
      {"core.decisions", c.at("core.decisions"), "count"},
      {"core.tick_wall_ms", wall("core"), "ms"},
      {"core.share", ratio(wall("core"), total_ms), "ratio"},
      {"core.us_per_decision", ratio(wall("core") * 1e3, c.at("core.decisions")),
       "us"},
      {"core.health_transitions", c.at("core.health_transitions"), "count"},
      {"core.rollbacks", c.at("core.rollbacks"), "count"},
      {"rl.ppo_updates", c.at("rl.ppo_updates"), "count"},
      {"acc.ticks", calls_with_prefix(traced, "rl.acc-tick"), "count"},
      {"acc.decisions", c.at("acc.decisions"), "count"},
      {"acc.tick_wall_ms", wall("acc"), "ms"},
      {"acc.share", ratio(wall("acc"), total_ms), "ratio"},
      {"acc.us_per_decision", ratio(wall("acc") * 1e3, c.at("acc.decisions")),
       "us"},
      {"acc.replay_exchange_bytes", c.at("acc.replay_exchange_bytes"),
       "bytes"},
      {"exp.build_ms", plain.build_ms, "ms"},
      {"exp.weights_ms", plain.weights_ms, "ms"},
      {"exp.collect_ms", plain.collect_ms, "ms"},
      {"exp.telemetry_wall_ms", wall("exp"), "ms"},
      {"exp.pretrain_phase_sim_ms_per_wall_s",
       ratio(w.pretrain.ms() * 1e3, plain.pretrain_wall_ms), "ms/s"},
      {"exp.measure_phase_sim_ms_per_wall_s",
       ratio(w.measure.ms() * 1e3, plain.measure_wall_ms), "ms/s"},
      {"trace.overhead_ratio", ratio(total_ms, plain.run_until_ms()),
       "ratio"},
  };
  for (Metric& m : outcome_metrics(plain.m)) out.push_back(std::move(m));
  return out;
}

/// Element-wise median of several metric lists with the same names.
std::vector<Metric> median_metrics(
    const std::vector<std::vector<Metric>>& runs) {
  std::vector<Metric> out = runs.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const auto& r : runs) values.push_back(r[i].value);
    out[i].value = median(values);
  }
  return out;
}

/// Peak resident set of this process image in MB. VmHWM restarts at exec,
/// unlike getrusage's ru_maxrss, which keeps the parent's peak.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void report_failures(const Run& r, const char* label) {
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "scenario_bench: %s run failed: %s\n", label,
                 f.c_str());
  }
}

int run_untraced(const Workload& w, std::uint64_t seed, double seconds,
                 const std::string& weights_dir) {
  std::vector<Run> runs;
  std::vector<double> raw_rate;
  std::vector<double> rate;
  std::vector<double> setup;
  std::vector<double> probes{host_probe_ms()};
  std::size_t failed = 0;
  const Clock::time_point start = Clock::now();
  do {
    Run r = run_once(w, seed, false, weights_dir);
    if (!runs.empty() && r.fingerprint != runs.front().fingerprint) {
      r.failures.push_back("outputs differ from the first run of this seed");
    }
    report_failures(r, "untraced");
    if (!r.failures.empty()) ++failed;
    probes.push_back(host_probe_ms());
    // Host time scaled to the nominal probe speed (see host_probe_ms).
    const double slowdown =
        0.5 * (probes[probes.size() - 2] + probes.back()) / kProbeNominalMs;
    raw_rate.push_back((w.pretrain + w.measure).ms() * 1e3 / r.run_until_ms());
    rate.push_back(raw_rate.back() * slowdown);
    setup.push_back((r.build_ms + r.weights_ms) / 1e3 / slowdown);
    runs.push_back(std::move(r));
  } while (ms_between(start, Clock::now()) < seconds * 1e3);

  std::printf("%s seed %llu: %zu runs, outputs digest %016llx, host probe "
              "%.4g ms (nominal %.4g), unscaled sim ms per wall s %.4g\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(seed), runs.size(),
              static_cast<unsigned long long>(digest(runs.front().fingerprint)),
              median(probes), kProbeNominalMs, median(raw_rate));
  for (const Metric& m : outcome_metrics(runs.front().m)) {
    std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(failed == 0, runs.size(), failed,
               {{"sim_ms_per_wall_s", median(rate), "ms/s"},
                {"setup_s", median(setup), "s"},
                {"peak_rss_mb", peak_rss_mb(), "MB"}});
  return 0;
}

int run_traced(const Workload& w, std::uint64_t seed, double seconds,
               const std::string& weights_dir) {
  std::vector<std::vector<Metric>> pairs;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const Clock::time_point start = Clock::now();
  do {
    Run plain = run_once(w, seed, false, weights_dir);
    Run traced = run_once(w, seed, true, weights_dir);
    if (traced.fingerprint != plain.fingerprint) {
      traced.failures.push_back("traced outputs differ from untraced");
    }
    if (traced.counts != plain.counts) {
      traced.failures.push_back("traced counts differ from untraced");
    }
    report_failures(plain, "untraced");
    report_failures(traced, "traced");
    attempted += 2;
    failed += (plain.failures.empty() ? 0 : 1) +
              (traced.failures.empty() ? 0 : 1);
    pairs.push_back(layer_metrics(w, plain, traced));
  } while (ms_between(start, Clock::now()) < seconds * 1e3);

  std::printf("%s seed %llu: %zu untraced+traced pairs\n",
              std::string(w.name).c_str(),
              static_cast<unsigned long long>(seed), pairs.size());
  print_result(failed == 0, attempted, failed, median_metrics(pairs));
  return 0;
}

int make_weights(const std::string& dir) {
  const exp::WeightCache cache(dir);
  for (const Workload& w : kWorkloads) {
    if (w.weights.empty()) continue;
    exp::ScenarioConfig base = scenario(w, kWeightsSeed, false).config();
    base.expects_pretrained = false;  // the sandbox trains from scratch
    const std::vector<double> weights =
        exp::offline_pretrain(base, exp::PretrainOptions{});
    cache.store(std::string(w.weights), weights);
    std::printf("%s: %zu weights -> %s/%s.weights\n",
                std::string(w.name).c_str(), weights.size(), dir.c_str(),
                std::string(w.weights).c_str());
  }
  return 0;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=NAME --seed=N --seconds=S --trace=0|1 "
               "--weights-dir=DIR\n"
               "       %s --make-weights=DIR\n"
               "workloads: websearch_secn1 websearch_pet datamining_acc\n",
               argv0, argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string weights_dir;
  std::string make_weights_dir;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string val(eq == std::string_view::npos ? ""
                                                       : arg.substr(eq + 1));
    if (key == "--workload") {
      workload_name = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      trace = std::atoi(val.c_str());
    } else if (key == "--weights-dir") {
      weights_dir = val;
    } else if (key == "--make-weights") {
      make_weights_dir = val;
    } else {
      usage(argv[0]);
    }
  }
  if (!make_weights_dir.empty()) return make_weights(make_weights_dir);

  const auto it = std::find_if(
      kWorkloads.begin(), kWorkloads.end(),
      [&](const Workload& w) { return w.name == workload_name; });
  if (it == kWorkloads.end() || (trace != 0 && trace != 1) || seconds <= 0.0 ||
      weights_dir.empty()) {
    usage(argv[0]);
  }
  return trace == 1 ? run_traced(*it, seed, seconds, weights_dir)
                    : run_untraced(*it, seed, seconds, weights_dir);
}
