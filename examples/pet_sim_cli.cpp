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
// The scenario flags it shares with pet_sweep are exp::ScenarioFlags.
//
// Crash safety: SIGINT/SIGTERM interrupt the run cooperatively — the run
// artifact is still flushed before exit (code 130).

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "exp/cli_flags.hpp"
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
  double load = 0.6;
  std::string topo = "leaf-spine";
  exp::ScenarioFlags scenario;
  std::uint64_t seed = 1;
  bool use_pretrain_cache = true;
  std::string telemetry_path;
  std::string artifact_path;
  std::string trace_path;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --scheme=secn1|secn2|acc|pet|pet-ablation\n"
      "  --load=F           fraction of host bandwidth (default 0.6)\n"
      "  --topo=leaf-spine|fat-tree|inter-dc  fabric family\n"
      "%s"
      "  --seed=N\n"
      "  --telemetry=PATH   write per-switch time series CSV\n"
      "  --artifact=PATH    write a machine-readable run artifact (JSON)\n"
      "  --trace=PATH       write a chrome://tracing timeline (JSON)\n"
      "  --no-pretrain-cache  train learning schemes inline (slow)\n",
      argv0, exp::ScenarioFlags::kHelp);
  std::exit(code);
}

/// Throws std::invalid_argument on a bad flag value.
CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> std::string_view {
      return std::string_view(arg).substr(std::strlen(prefix));
    };
    if (opt.scenario.parse(arg)) continue;
    if (arg.rfind("--scheme=", 0) == 0) {
      opt.scheme = exp::parse_scheme_flag(value("--scheme="));
    } else if (arg.rfind("--load=", 0) == 0) {
      opt.load = exp::parse_flag_number<double>("--load", value("--load="));
    } else if (arg.rfind("--topo=", 0) == 0) {
      opt.topo = exp::parse_topo_flag(value("--topo="));
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed =
          exp::parse_flag_number<std::uint64_t>("--seed", value("--seed="));
    } else if (arg.rfind("--telemetry=", 0) == 0) {
      opt.telemetry_path = value("--telemetry=");
    } else if (arg.rfind("--artifact=", 0) == 0) {
      opt.artifact_path = value("--artifact=");
    } else if (arg.rfind("--trace=", 0) == 0) {
      opt.trace_path = value("--trace=");
    } else if (arg == "--no-pretrain-cache") {
      opt.use_pretrain_cache = false;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  CliOptions opt;
  std::unique_ptr<exp::Experiment> experiment_ptr;
  try {
    opt = parse(argc, argv);
    exp::ScenarioConfig cfg;
    cfg.scheme = opt.scheme;
    cfg.load = opt.load;
    cfg.topo = opt.scenario.topology(opt.topo);
    cfg.flow_size_cap_bytes = 8e6;
    cfg.seed = opt.seed;
    cfg.profiling = !opt.artifact_path.empty() || !opt.trace_path.empty();
    opt.scenario.apply(cfg);
    cfg.tune_dcqcn_for_rate();
    std::printf(
        "pet_sim: %s on %s, %s fabric, %d hosts, load %.0f%%, seed %llu\n",
        exp::scheme_name(cfg.scheme), workload::workload_name(cfg.workload),
        cfg.topo.kind_name(), cfg.topo.num_hosts(), cfg.load * 100,
        static_cast<unsigned long long>(cfg.seed));
    experiment_ptr =
        opt.use_pretrain_cache
            ? exp::build_pretrained(cfg, exp::PretrainOptions{})
            : std::make_unique<exp::Experiment>(cfg);
  } catch (const std::invalid_argument& e) {
    // A flag value that does not parse, or that the scenario rejects
    // (ScenarioConfig::validate), is a usage error, as in pet_sweep.
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
    art.record_run(experiment);
    art.set_manifest_extra("interrupted", exp::JsonValue(interrupted));
    art.add_metrics("", m);
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
