#pragma once
// Shared bench configuration. Every experiment binary accepts:
//   --quick          smaller fabric / shorter runs (CI smoke)
//   --scale=paper    the paper's 288-host fabric (slow; hours on one core)
//   --seed=N         scenario seed
//   --artifact=PATH  where to write the machine-readable run artifact
//                    (default BENCH_<name>.json in the working directory)
//   --trace=PATH     also export a chrome://tracing timeline of the last
//                    instrumented run
// No arguments reproduces the default scaled-down experiment.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/experiment_builder.hpp"
#include "exp/pretrain.hpp"
#include "exp/run_artifact.hpp"
#include "exp/table.hpp"
#include "exp/trace_export.hpp"

namespace pet::bench {

struct BenchOptions {
  bool quick = false;
  bool paper_scale = false;
  std::uint64_t seed = 20250704;
  /// Run-artifact destination; empty = BENCH_<name>.json.
  std::string artifact_path;
  /// Chrome-trace destination; empty = no trace export.
  std::string trace_path;
};

inline BenchOptions parse_options(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--scale=paper") {
      opt.paper_scale = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--artifact=", 0) == 0) {
      opt.artifact_path = arg.substr(11);
    } else if (arg.rfind("--trace=", 0) == 0) {
      opt.trace_path = arg.substr(8);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--quick] [--scale=paper] [--seed=N] [--artifact=PATH] "
          "[--trace=PATH]\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return opt;
}

/// Baseline scenario for a scheme/workload/load under the given options;
/// returns the builder so callers can chain further overrides before
/// build().
inline exp::ExperimentBuilder make_scenario(const BenchOptions& opt,
                                            exp::Scheme scheme,
                                            workload::WorkloadKind kind,
                                            double load) {
  net::LeafSpineConfig topo;
  exp::ExperimentBuilder builder;
  builder.scheme(scheme).workload(kind).load(load).seed(opt.seed).tuned_dcqcn();
  if (opt.paper_scale) {
    topo = net::LeafSpineConfig::paper_scale();
    builder.flow_size_cap(0.0)  // full distributions
        .phases(sim::milliseconds(100), sim::milliseconds(100))
        .incast(32, 32 * 1024, sim::milliseconds(1));
  } else if (opt.quick) {
    topo.num_spines = 2;
    topo.num_leaves = 2;
    topo.hosts_per_leaf = 8;
    builder.flow_size_cap(4e6)
        .phases(sim::milliseconds(15), sim::milliseconds(15))
        .incast(8, 32 * 1024, sim::milliseconds(1));
  } else {
    topo.num_spines = 2;
    topo.num_leaves = 4;
    topo.hosts_per_leaf = 8;
    builder.flow_size_cap(8e6)
        .phases(sim::milliseconds(40), sim::milliseconds(40))
        .incast(8, 32 * 1024, sim::milliseconds(1));
  }
  builder.topology(net::TopologySpec(topo));
  return builder;
}

/// Pre-training budget per mode.
inline exp::PretrainOptions make_pretrain(const BenchOptions& opt) {
  exp::PretrainOptions pre;
  if (opt.paper_scale) {
    pre.duration = sim::milliseconds(800);
  } else if (opt.quick) {
    pre.duration = sim::milliseconds(200);
  } else {
    pre.duration = sim::milliseconds(600);
  }
  return pre;
}

inline const char* mode_name(const BenchOptions& opt) {
  return opt.paper_scale ? "paper-scale" : (opt.quick ? "quick" : "scaled");
}

/// Artifact skeleton for one bench invocation: manifest fields that come
/// straight from the command line (mode, seed). `name` must match the
/// binary so BENCH_<name>.json is predictable for tooling.
inline exp::RunArtifact make_artifact(const BenchOptions& opt,
                                      const char* name) {
  exp::RunArtifact art(name);
  art.set_mode(mode_name(opt));
  art.set_seed(opt.seed);
  return art;
}

/// Record one finished experiment into the artifact: its scenario becomes
/// the manifest scenario and its switch summaries / event counts /
/// profiler tables the payload (each call overwrites those sections — the
/// last recorded run is the one the artifact details). Honors --trace=PATH
/// by also exporting the run's chrome://tracing timeline.
inline void record_run(const BenchOptions& opt, exp::RunArtifact& art,
                       exp::Experiment& experiment) {
  art.set_scenario(experiment.config());
  art.add_switch_summaries(experiment.network().switches());
  art.add_tier_summaries(experiment.topology(), experiment.network());
  art.add_event_counts(experiment.event_log());
  art.set_profiler(experiment.profiler());
  if (!opt.trace_path.empty()) {
    if (exp::write_chrome_trace(opt.trace_path, &experiment.event_log(),
                                &experiment.profiler())) {
      std::printf("  trace: %s\n", opt.trace_path.c_str());
    }
  }
}

/// Write the artifact to --artifact=PATH (default BENCH_<name>.json).
inline void write_artifact(const BenchOptions& opt, const exp::RunArtifact& art) {
  const std::string path =
      opt.artifact_path.empty() ? art.default_path() : opt.artifact_path;
  if (art.write(path)) std::printf("\nartifact: %s\n", path.c_str());
}

/// Run one scenario end-to-end: offline pre-train (cached on disk for the
/// learning schemes), install the initial model, warm up online, measure.
/// The run is profiled and recorded in `art` under `label.`.
inline exp::Metrics run_scenario(const BenchOptions& opt, exp::Scheme scheme,
                                 workload::WorkloadKind kind, double load,
                                 exp::RunArtifact& art,
                                 const std::string& label) {
  auto experiment = exp::build_pretrained(
      make_scenario(opt, scheme, kind, load).profiling(true),
      make_pretrain(opt), sim::milliseconds(opt.quick ? 5 : 10));
  const exp::Metrics m = experiment->run();
  art.add_metrics(label, m);
  record_run(opt, art, *experiment);
  return m;
}

inline void print_header(const BenchOptions& opt, const char* title,
                         const char* paper_ref) {
  std::printf("=== %s ===\n", title);
  std::printf("reproduces: %s | mode: %s | seed: %llu\n\n", paper_ref,
              mode_name(opt), static_cast<unsigned long long>(opt.seed));
}

}  // namespace pet::bench
