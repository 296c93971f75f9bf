// pet_sim_cli: run any scenario from the command line and optionally dump
// per-switch telemetry as CSV — the Swiss-army knife for exploring the
// library without writing code.
//
//   ./pet_sim_cli --scheme=pet --workload=websearch --load=0.6
//                 --hosts-per-leaf=8 --leaves=4 --spines=2
//                 --pretrain-ms=40 --measure-ms=40 --seed=1
//                 --telemetry=trace.csv --artifact=run.json
//                 --trace=trace.json [--no-incast] [--no-pretrain-cache]
//
// Crash safety: SIGINT/SIGTERM interrupt the run cooperatively — the run
// artifact is still flushed before exit (code 130). Replica training runs
// through pet_sweep --train-episodes.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "exp/experiment_builder.hpp"
#include "exp/pretrain.hpp"
#include "exp/run_artifact.hpp"
#include "exp/table.hpp"
#include "exp/telemetry.hpp"
#include "exp/trace_export.hpp"

namespace {

using namespace pet;

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int /*signum*/) { g_stop = 1; }

struct CliOptions {
  exp::Scheme scheme = exp::Scheme::kPet;
  workload::WorkloadKind workload = workload::WorkloadKind::kWebSearch;
  double load = 0.6;
  // Topology family (net::TopologySpec). leaf-spine reads --spines/--leaves/
  // --hosts-per-leaf; fat-tree reads --k/--hosts-per-edge; inter-dc joins two
  // identical leaf-spine DCs over --border-links WAN links of --wan-delay-us.
  std::string topo_kind = "leaf-spine";
  std::int32_t spines = 2;
  std::int32_t leaves = 4;
  std::int32_t hosts_per_leaf = 8;
  std::int32_t fat_tree_k = 4;
  std::int32_t hosts_per_edge = 0;  // 0 = canonical k/2
  std::int32_t border_links = 1;
  std::int64_t wan_delay_us = 1000;
  std::int64_t pretrain_ms = 40;
  std::int64_t measure_ms = 40;
  std::uint64_t seed = 1;
  rl::InferMode infer = rl::InferMode::kDirect;
  bool incast = true;
  bool use_pretrain_cache = true;
  std::string telemetry_path;
  std::string artifact_path;
  std::string trace_path;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --scheme=secn1|secn2|amt|qaecn|acc|pet|pet-ablation\n"
      "  --workload=websearch|datamining\n"
      "  --load=F           fraction of host bandwidth (default 0.6)\n"
      "  --topo=leaf-spine|fat-tree|inter-dc  fabric family\n"
      "  --spines=N --leaves=N --hosts-per-leaf=N   (leaf-spine / inter-dc)\n"
      "  --k=N --hosts-per-edge=N                   (fat-tree; 0 = k/2)\n"
      "  --border-links=N --wan-delay-us=N          (inter-dc)\n"
      "  --pretrain-ms=N --measure-ms=N --seed=N\n"
      "  --infer=direct|fp64|fp32|int8  PET deployment-decision serving:\n"
      "                     direct = per-agent fp64 (default); others route\n"
      "                     decisions through the batched policy server\n"
      "                     (fp64 serving is bitwise identical to direct)\n"
      "  --telemetry=PATH   write per-switch time series CSV\n"
      "  --artifact=PATH    write a machine-readable run artifact (JSON)\n"
      "  --trace=PATH       write a chrome://tracing timeline (JSON)\n"
      "  --no-incast        disable the incast generator\n"
      "  --no-pretrain-cache  train learning schemes inline (slow)\n",
      argv0);
  std::exit(code);
}

exp::Scheme parse_scheme(const std::string& name, const char* argv0) {
  if (name == "secn1") return exp::Scheme::kSecn1;
  if (name == "secn2") return exp::Scheme::kSecn2;
  if (name == "amt") return exp::Scheme::kAmt;
  if (name == "qaecn") return exp::Scheme::kQaecn;
  if (name == "acc") return exp::Scheme::kAcc;
  if (name == "pet") return exp::Scheme::kPet;
  if (name == "pet-ablation") return exp::Scheme::kPetAblation;
  std::fprintf(stderr, "unknown scheme: %s\n", name.c_str());
  usage(argv0, 2);
}

rl::InferMode parse_infer(const std::string& name, const char* argv0) {
  if (name == "direct") return rl::InferMode::kDirect;
  if (name == "fp64") return rl::InferMode::kFp64;
  if (name == "fp32") return rl::InferMode::kFp32;
  if (name == "int8") return rl::InferMode::kInt8;
  std::fprintf(stderr, "unknown infer mode: %s\n", name.c_str());
  usage(argv0, 2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--scheme=", 0) == 0) {
      opt.scheme = parse_scheme(value("--scheme="), argv[0]);
    } else if (arg == "--workload=websearch") {
      opt.workload = workload::WorkloadKind::kWebSearch;
    } else if (arg == "--workload=datamining") {
      opt.workload = workload::WorkloadKind::kDataMining;
    } else if (arg.rfind("--load=", 0) == 0) {
      opt.load = std::atof(value("--load="));
    } else if (arg.rfind("--topo=", 0) == 0) {
      opt.topo_kind = value("--topo=");
    } else if (arg.rfind("--spines=", 0) == 0) {
      opt.spines = std::atoi(value("--spines="));
    } else if (arg.rfind("--leaves=", 0) == 0) {
      opt.leaves = std::atoi(value("--leaves="));
    } else if (arg.rfind("--hosts-per-leaf=", 0) == 0) {
      opt.hosts_per_leaf = std::atoi(value("--hosts-per-leaf="));
    } else if (arg.rfind("--k=", 0) == 0) {
      opt.fat_tree_k = std::atoi(value("--k="));
    } else if (arg.rfind("--hosts-per-edge=", 0) == 0) {
      opt.hosts_per_edge = std::atoi(value("--hosts-per-edge="));
    } else if (arg.rfind("--border-links=", 0) == 0) {
      opt.border_links = std::atoi(value("--border-links="));
    } else if (arg.rfind("--wan-delay-us=", 0) == 0) {
      opt.wan_delay_us = std::atoll(value("--wan-delay-us="));
    } else if (arg.rfind("--pretrain-ms=", 0) == 0) {
      opt.pretrain_ms = std::atoll(value("--pretrain-ms="));
    } else if (arg.rfind("--measure-ms=", 0) == 0) {
      opt.measure_ms = std::atoll(value("--measure-ms="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = std::strtoull(value("--seed="), nullptr, 10);
    } else if (arg.rfind("--infer=", 0) == 0) {
      opt.infer = parse_infer(value("--infer="), argv[0]);
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      opt.telemetry_path = value("--telemetry=");
    } else if (arg.rfind("--artifact=", 0) == 0) {
      opt.artifact_path = value("--artifact=");
    } else if (arg.rfind("--trace=", 0) == 0) {
      opt.trace_path = value("--trace=");
    } else if (arg == "--no-incast") {
      opt.incast = false;
    } else if (arg == "--no-pretrain-cache") {
      opt.use_pretrain_cache = false;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  if (opt.load <= 0.0 || opt.measure_ms < 1) {
    std::fprintf(stderr, "invalid scenario parameters\n");
    usage(argv[0], 2);
  }
  if (opt.topo_kind != "fat-tree" &&
      (opt.spines < 1 || opt.leaves < 1 || opt.hosts_per_leaf < 2)) {
    std::fprintf(stderr, "invalid scenario parameters\n");
    usage(argv[0], 2);
  }
  return opt;
}

/// The TopologySpec the CLI flags describe (validated again by the builder).
net::TopologySpec make_topology(const CliOptions& opt, const char* argv0) {
  net::LeafSpineConfig ls;
  ls.num_spines = opt.spines;
  ls.num_leaves = opt.leaves;
  ls.hosts_per_leaf = opt.hosts_per_leaf;
  if (opt.topo_kind == "leaf-spine") return net::TopologySpec(ls);
  if (opt.topo_kind == "fat-tree") {
    net::FatTreeSpec ft;
    ft.k = opt.fat_tree_k;
    ft.hosts_per_edge = opt.hosts_per_edge;
    return net::TopologySpec(ft);
  }
  if (opt.topo_kind == "inter-dc") {
    net::InterDcSpec idc;
    idc.dc_a = ls;
    idc.dc_b = ls;
    idc.border_links = opt.border_links;
    idc.wan_delay = sim::microseconds(opt.wan_delay_us);
    return net::TopologySpec(idc);
  }
  std::fprintf(stderr, "unknown topology: %s\n", opt.topo_kind.c_str());
  usage(argv0, 2);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  const net::TopologySpec topo = make_topology(opt, argv[0]);
  exp::ExperimentBuilder builder;
  builder.scheme(opt.scheme)
      .workload(opt.workload)
      .load(opt.load)
      .topology(topo)
      .flow_size_cap(8e6)
      .phases(sim::milliseconds(opt.pretrain_ms),
              sim::milliseconds(opt.measure_ms))
      .incast(opt.incast)
      .seed(opt.seed)
      .infer(opt.infer)
      .profiling(!opt.artifact_path.empty() || !opt.trace_path.empty())
      .tuned_dcqcn();

  std::unique_ptr<exp::Experiment> experiment_ptr;
  try {
    // Reject bad flag values before any pretraining runs.
    builder.config().validate();
    std::printf(
        "pet_sim: %s on %s, %s fabric, %d hosts, load %.0f%%, seed %llu\n",
        exp::scheme_name(opt.scheme), workload::workload_name(opt.workload),
        std::string(topo.kind_name()).c_str(), topo.num_hosts(),
        opt.load * 100, static_cast<unsigned long long>(opt.seed));
    experiment_ptr =
        opt.use_pretrain_cache
            ? exp::build_pretrained(builder, exp::PretrainOptions{})
            : builder.build();
  } catch (const std::invalid_argument& e) {
    // A flag value the scenario rejects is a usage error, as in pet_sweep.
    std::fprintf(stderr, "pet_sim_cli: %s\n", e.what());
    return 2;
  }
  exp::Experiment& experiment = *experiment_ptr;

  std::unique_ptr<exp::TelemetryRecorder> telemetry;
  if (!opt.telemetry_path.empty()) {
    telemetry = std::make_unique<exp::TelemetryRecorder>(
        experiment.scheduler(), experiment.network().switches());
    telemetry->start();
  }

  // Chunked run with a cooperative cancellation point: SIGINT/SIGTERM stop
  // the simulation at the next chunk boundary, and every requested output
  // (artifact, telemetry, trace) is still flushed below before exit.
  bool completed = false;
  const exp::Metrics m = experiment.run_chunked(
      sim::milliseconds(1), [] { return g_stop == 0; }, &completed);
  const bool interrupted = !completed;
  if (interrupted) {
    std::fprintf(stderr,
                 "interrupted at t=%.1fms; flushing partial outputs\n",
                 experiment.scheduler().now().ms());
  }

  exp::Table table({"metric", "value"});
  table.add_row({"flows measured", exp::fmt("%lld", static_cast<long long>(m.flows_measured))});
  table.add_row({"overall avg FCT", exp::fmt("%.1f us", m.overall.avg_us)});
  table.add_row({"overall p99 FCT", exp::fmt("%.1f us", m.overall.p99_us)});
  table.add_row({"mice avg / p99", exp::fmt("%.1f / %.1f us", m.mice.avg_us,
                                            m.mice.p99_us)});
  table.add_row({"elephant avg", exp::fmt("%.1f us", m.elephants.avg_us)});
  table.add_row({"avg slowdown", exp::fmt("%.2fx", m.overall.avg_slowdown)});
  table.add_row({"latency avg / p99", exp::fmt("%.2f / %.2f us",
                                               m.latency_avg_us,
                                               m.latency_p99_us)});
  table.add_row({"queue avg / std", exp::fmt("%.1f / %.1f KB", m.queue_avg_kb,
                                             m.queue_std_kb)});
  table.add_row({"switch drops", exp::fmt("%lld", static_cast<long long>(m.switch_drops))});
  table.add_row({"PFC pauses", exp::fmt("%lld", static_cast<long long>(m.pfc_pauses))});
  table.print();

  if (telemetry != nullptr) {
    telemetry->stop();
    if (telemetry->write_csv(opt.telemetry_path)) {
      std::printf("telemetry: %zu samples -> %s\n",
                  telemetry->samples().size(), opt.telemetry_path.c_str());
    } else {
      std::fprintf(stderr, "telemetry: failed to write %s\n",
                   opt.telemetry_path.c_str());
      return 1;
    }
  }

  if (!opt.artifact_path.empty()) {
    exp::RunArtifact art("pet_sim_cli");
    art.set_mode("cli");
    art.set_seed(opt.seed);
    art.set_scenario(experiment.config());
    art.set_manifest_extra("interrupted", exp::JsonValue(interrupted));
    art.add_metrics("", m);
    art.add_switch_summaries(experiment.network().switches());
    art.add_tier_summaries(experiment.topology(), experiment.network());
    art.add_event_counts(experiment.event_log());
    art.set_profiler(experiment.profiler());
    if (!art.write(opt.artifact_path)) return 1;
    std::printf("artifact: %s\n", opt.artifact_path.c_str());
  }
  if (!opt.trace_path.empty()) {
    if (!exp::write_chrome_trace(opt.trace_path, &experiment.event_log(),
                                 &experiment.profiler(), telemetry.get())) {
      return 1;
    }
    std::printf("trace: %s (open in chrome://tracing)\n",
                opt.trace_path.c_str());
  }
  return interrupted ? 130 : 0;
}
