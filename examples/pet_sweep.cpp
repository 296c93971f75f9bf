// pet_sweep: fault-tolerant grid sweeps over scheme × load × seed, and the
// command-line trainer (a one-point PET sweep with --train-episodes=N).
//
//   ./pet_sweep --scheme=pet,secn1 --load=0.4,0.8 --seed=1,2
//               --out=sweep_out --threads=2 --train-episodes=3
//               --checkpoint-every=1 [--resume]
//
// Every point writes a durable artifact (the completion marker) and
// training points checkpoint every N episodes (and on SIGINT/SIGTERM) to
// <out>/point_<id>.ckpt, so a crashed or killed sweep re-run with --resume
// skips finished points and continues partial ones bitwise-identically. A
// per-point watchdog retries hung points with capped backoff and
// quarantines repeat offenders while the rest of the grid completes. Exit
// code: 0 all points done, 1 any quarantined, 2 bad option or a grid it
// cannot run (nothing run), 130 stopped by signal.
//
// Fault-injection flags for the crash-safety tests:
//   --crash-after-writes=N  _Exit(137) after N durable writes
//   --hang-point=IDX --hang-seconds=S  block point IDX's first attempt

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/sweep.hpp"

namespace {

using namespace pet;

exp::SweepRunner* g_runner = nullptr;

void handle_stop_signal(int /*signum*/) {
  if (g_runner != nullptr) g_runner->request_stop();
}

struct CliOptions {
  std::vector<exp::Scheme> schemes;
  std::vector<double> loads;
  std::vector<std::uint64_t> seeds;
  workload::WorkloadKind workload = workload::WorkloadKind::kWebSearch;
  std::string out_dir = "sweep_out";
  std::string name = "sweep";
  std::int32_t threads = 0;
  bool resume = false;
  /// Topology axis: comma list of leaf-spine|fat-tree|inter-dc. One entry
  /// replaces the base topology (historical un-prefixed point ids); several
  /// become a grid axis with "<topo>_"-prefixed ids.
  std::vector<std::string> topos;
  std::int32_t spines = 2;
  std::int32_t leaves = 2;
  std::int32_t hosts_per_leaf = 4;
  std::int32_t fat_tree_k = 4;
  std::int32_t hosts_per_edge = 0;  // 0 = canonical k/2
  std::int32_t border_links = 1;
  std::int64_t wan_delay_us = 1000;
  std::int64_t pretrain_ms = 10;
  std::int64_t measure_ms = 10;
  rl::InferMode infer = rl::InferMode::kDirect;
  bool incast = true;
  std::int32_t train_episodes = 0;
  std::int32_t replicas = 2;
  std::int32_t checkpoint_every = 1;
  double watchdog_seconds = 0.0;
  double grace_seconds = 2.0;
  std::int32_t max_retries = 2;
  double backoff_base = 0.5;
  double backoff_cap = 30.0;
  std::int32_t crash_after_writes = 0;
  std::int32_t hang_point = -1;
  double hang_seconds = 5.0;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --scheme=LIST      comma list of secn1|secn2|amt|qaecn|acc|pet|"
      "pet-ablation\n"
      "  --load=LIST        comma list of load fractions\n"
      "  --seed=LIST        comma list of seeds\n"
      "  --workload=websearch|datamining  base workload of every point\n"
      "  --out=DIR          output directory (default sweep_out)\n"
      "  --name=NAME        sweep name (default sweep)\n"
      "  --threads=N        worker threads, split over the points (0 = auto)\n"
      "  --resume           skip/continue points finished by a prior run\n"
      "  --topo=LIST        comma list of leaf-spine|fat-tree|inter-dc\n"
      "  --spines=N --leaves=N --hosts-per-leaf=N   (leaf-spine / inter-dc)\n"
      "  --k=N --hosts-per-edge=N                   (fat-tree; 0 = k/2)\n"
      "  --border-links=N --wan-delay-us=N          (inter-dc)\n"
      "  --pretrain-ms=N --measure-ms=N [--no-incast]\n"
      "  --infer=direct|fp64|fp32|int8  PET decision serving for every point\n"
      "  --train-episodes=N --replicas=N --checkpoint-every=N\n"
      "  --watchdog-seconds=F --grace-seconds=F --max-retries=N\n"
      "  --backoff-base=F --backoff-cap=F\n"
      "  --crash-after-writes=N --hang-point=IDX --hang-seconds=F\n",
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

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return arg.c_str() + std::strlen(prefix);
    };
    if (arg.rfind("--scheme=", 0) == 0) {
      for (const std::string& s : split_list(value("--scheme="))) {
        opt.schemes.push_back(parse_scheme(s, argv[0]));
      }
    } else if (arg.rfind("--load=", 0) == 0) {
      for (const std::string& s : split_list(value("--load="))) {
        opt.loads.push_back(std::atof(s.c_str()));
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      for (const std::string& s : split_list(value("--seed="))) {
        opt.seeds.push_back(std::strtoull(s.c_str(), nullptr, 10));
      }
    } else if (arg == "--workload=websearch") {
      opt.workload = workload::WorkloadKind::kWebSearch;
    } else if (arg == "--workload=datamining") {
      opt.workload = workload::WorkloadKind::kDataMining;
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out_dir = value("--out=");
    } else if (arg.rfind("--name=", 0) == 0) {
      opt.name = value("--name=");
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads = std::atoi(value("--threads="));
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (arg.rfind("--topo=", 0) == 0) {
      opt.topos = split_list(value("--topo="));
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
    } else if (arg.rfind("--infer=", 0) == 0) {
      opt.infer = parse_infer(value("--infer="), argv[0]);
    } else if (arg == "--no-incast") {
      opt.incast = false;
    } else if (arg.rfind("--train-episodes=", 0) == 0) {
      opt.train_episodes = std::atoi(value("--train-episodes="));
    } else if (arg.rfind("--replicas=", 0) == 0) {
      opt.replicas = std::atoi(value("--replicas="));
    } else if (arg.rfind("--checkpoint-every=", 0) == 0) {
      opt.checkpoint_every = std::atoi(value("--checkpoint-every="));
    } else if (arg.rfind("--watchdog-seconds=", 0) == 0) {
      opt.watchdog_seconds = std::atof(value("--watchdog-seconds="));
    } else if (arg.rfind("--grace-seconds=", 0) == 0) {
      opt.grace_seconds = std::atof(value("--grace-seconds="));
    } else if (arg.rfind("--max-retries=", 0) == 0) {
      opt.max_retries = std::atoi(value("--max-retries="));
    } else if (arg.rfind("--backoff-base=", 0) == 0) {
      opt.backoff_base = std::atof(value("--backoff-base="));
    } else if (arg.rfind("--backoff-cap=", 0) == 0) {
      opt.backoff_cap = std::atof(value("--backoff-cap="));
    } else if (arg.rfind("--crash-after-writes=", 0) == 0) {
      opt.crash_after_writes = std::atoi(value("--crash-after-writes="));
    } else if (arg.rfind("--hang-point=", 0) == 0) {
      opt.hang_point = std::atoi(value("--hang-point="));
    } else if (arg.rfind("--hang-seconds=", 0) == 0) {
      opt.hang_seconds = std::atof(value("--hang-seconds="));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  return opt;
}

/// One named topology axis value from the shared shape flags. The name keys
/// the point ids ("ft8_", "interdc_", ...).
exp::NamedTopologySpec make_topology(const CliOptions& opt,
                                     const std::string& kind,
                                     const char* argv0) {
  net::LeafSpineConfig ls;
  ls.num_spines = opt.spines;
  ls.num_leaves = opt.leaves;
  ls.hosts_per_leaf = opt.hosts_per_leaf;
  if (kind == "leaf-spine") {
    return {"leafspine", net::TopologySpec(ls)};
  }
  if (kind == "fat-tree") {
    net::FatTreeSpec ft;
    ft.k = opt.fat_tree_k;
    ft.hosts_per_edge = opt.hosts_per_edge;
    return {"ft" + std::to_string(opt.fat_tree_k), net::TopologySpec(ft)};
  }
  if (kind == "inter-dc") {
    net::InterDcSpec idc;
    idc.dc_a = ls;
    idc.dc_b = ls;
    idc.border_links = opt.border_links;
    idc.wan_delay = sim::microseconds(opt.wan_delay_us);
    return {"interdc", net::TopologySpec(idc)};
  }
  std::fprintf(stderr, "unknown topology: %s\n", kind.c_str());
  usage(argv0, 2);
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opt = parse(argc, argv);

  exp::SweepGrid grid;
  grid.name = opt.name;
  grid.schemes = opt.schemes;
  grid.loads = opt.loads;
  grid.seeds = opt.seeds;
  {
    net::LeafSpineConfig ls;
    ls.num_spines = opt.spines;
    ls.num_leaves = opt.leaves;
    ls.hosts_per_leaf = opt.hosts_per_leaf;
    grid.base.topo = net::TopologySpec(ls);
  }
  if (opt.topos.size() == 1) {
    // One topology: swap it into the base scenario so the point ids keep
    // the historical un-prefixed form and DCQCN tunes for its host rate.
    grid.base.topo = make_topology(opt, opt.topos.front(), argv[0]).spec;
  } else if (opt.topos.size() > 1) {
    // A real axis. DCQCN is tuned once for the first topology's host rate;
    // mixing families with different host speeds in one sweep is explicit
    // operator choice.
    for (const std::string& kind : opt.topos) {
      grid.topologies.push_back(make_topology(opt, kind, argv[0]));
    }
    grid.base.topo = grid.topologies.front().spec;
  }
  grid.base.workload = opt.workload;
  grid.base.pretrain = sim::milliseconds(opt.pretrain_ms);
  grid.base.measure = sim::milliseconds(opt.measure_ms);
  grid.base.incast_enabled = opt.incast;
  grid.base.pet_infer = opt.infer;
  grid.base.flow_size_cap_bytes = 8e6;
  if (!opt.seeds.empty()) grid.base.seed = opt.seeds.front();
  grid.base.tune_dcqcn_for_rate();

  exp::SweepRunnerConfig cfg;
  cfg.out_dir = opt.out_dir;
  cfg.threads = opt.threads;
  cfg.resume = opt.resume;
  cfg.train_episodes = opt.train_episodes;
  cfg.replicas = opt.replicas;
  cfg.checkpoint_every = opt.checkpoint_every;
  cfg.watchdog_seconds = opt.watchdog_seconds;
  cfg.grace_seconds = opt.grace_seconds;
  cfg.max_retries = opt.max_retries;
  cfg.backoff_base_seconds = opt.backoff_base;
  cfg.backoff_cap_seconds = opt.backoff_cap;
  cfg.crash_after_writes = opt.crash_after_writes;
  if (opt.hang_point >= 0) {
    const std::int32_t hang_point = opt.hang_point;
    const double hang_seconds = opt.hang_seconds;
    cfg.attempt_hook = [hang_point, hang_seconds](const exp::SweepPoint& p,
                                                  std::int32_t attempt) {
      if (p.index == hang_point && attempt == 0) {
        std::fprintf(stderr, "sweep: injected hang on %s\n", p.id.c_str());
        std::this_thread::sleep_for(
            std::chrono::duration<double>(hang_seconds));
      }
    };
  }

  exp::SweepRunner runner(grid, cfg);
  g_runner = &runner;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  const std::size_t total = grid.expand(cfg.train_episodes).size();
  std::printf("pet_sweep: %zu points -> %s (threads=%d%s)\n", total,
              opt.out_dir.c_str(), cfg.threads,
              cfg.resume ? ", resume" : "");

  exp::SweepRunner::Result result;
  try {
    result = runner.run();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "pet_sweep: %s\n", e.what());
    return 2;
  }
  bool stopped = false;
  for (const exp::SweepRunner::PointStatus& st : result.points) {
    std::printf("  %-32s %-12s attempts=%d%s\n", st.id.c_str(),
                st.status.c_str(), st.attempts,
                st.resumed_from_episode > 0 ? " (resumed)" : "");
    if (st.status == "stopped") stopped = true;
  }
  std::printf("pet_sweep: %d/%zu completed, %d quarantined -> %s\n",
              result.completed, result.points.size(), result.quarantined,
              result.artifact_path.c_str());
  if (stopped) return 130;
  return result.all_completed() ? 0 : 1;
}
