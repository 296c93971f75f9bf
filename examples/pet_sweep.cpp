// pet_sweep: crash-safe evaluation grids over scheme × load × seed.
//
//   ./pet_sweep --scheme=pet,secn1 --load=0.4,0.8 --seed=1,2
//               --out=sweep_out --threads=2 [--resume]
//
// Every point writes a durable artifact (the completion marker), so a
// crashed or killed sweep (SIGINT/SIGTERM stop it between 1 ms chunks)
// re-run with --resume skips finished points and runs the rest from the
// start. Each point runs once: a point that fails is recorded as failed
// while the rest of the grid completes, and --resume runs it again. Exit
// code: 0 all points done, 1 any failed or the merged artifact not
// written, 2 bad option or a grid it cannot run (nothing run), 130 stopped
// by signal.
//
// Fault injection for the crash-safety tests:
//   --crash-after-writes=N  _Exit(137) after N durable writes

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/cli_flags.hpp"
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
  std::string out_dir = "sweep_out";
  std::string name = "sweep";
  std::int32_t threads = 0;
  bool resume = false;
  std::string topo = "leaf-spine";
  exp::ScenarioFlags scenario{.leaves = 2,
                              .hosts_per_leaf = 4,
                              .pretrain_ms = 10,
                              .measure_ms = 10};
  std::int32_t crash_after_writes = 0;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::printf(
      "usage: %s [options]\n"
      "  --scheme=LIST      comma list of secn1|secn2|acc|pet|pet-ablation\n"
      "  --load=LIST        comma list of load fractions\n"
      "  --seed=LIST        comma list of seeds\n"
      "  --out=DIR          output directory (default sweep_out)\n"
      "  --name=NAME        sweep name (default sweep)\n"
      "  --threads=N        points run concurrently (0 = one per usable CPU)\n"
      "  --resume           skip points finished by a prior run\n"
      "  --topo=leaf-spine|fat-tree|inter-dc  fabric family\n"
      "%s"
      "  --crash-after-writes=N  exit 137 after N artifact writes (tests)\n",
      argv0, exp::ScenarioFlags::kHelp);
  std::exit(code);
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

/// Throws std::invalid_argument on a bad flag value.
CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (opt.scenario.parse(arg)) continue;
    // "--flag=text"; an argument without '=' matches no valued flag.
    const std::size_t eq = arg.find('=');
    const std::string flag = eq == std::string::npos ? "" : arg.substr(0, eq);
    const std::string text = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const auto count = [&](std::int32_t& field) {
      field = exp::parse_flag_number<std::int32_t>(flag, text);
    };
    if (arg == "--resume") {
      opt.resume = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else if (flag == "--scheme") {
      for (const std::string& s : split_list(text)) {
        opt.schemes.push_back(exp::parse_scheme_flag(s));
      }
    } else if (flag == "--load") {
      for (const std::string& s : split_list(text)) {
        opt.loads.push_back(exp::parse_flag_number<double>(flag, s));
      }
    } else if (flag == "--seed") {
      for (const std::string& s : split_list(text)) {
        opt.seeds.push_back(exp::parse_flag_number<std::uint64_t>(flag, s));
      }
    } else if (flag == "--topo") {
      opt.topo = exp::parse_topo_flag(text);
    } else if (flag == "--out") {
      opt.out_dir = text;
    } else if (flag == "--name") {
      opt.name = text;
    } else if (flag == "--threads") {
      count(opt.threads);
    } else if (flag == "--crash-after-writes") {
      count(opt.crash_after_writes);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage(argv[0], 2);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "pet_sweep: %s\n", e.what());
    return 2;
  }

  exp::SweepGrid grid;
  grid.name = opt.name;
  grid.schemes = opt.schemes;
  grid.loads = opt.loads;
  grid.seeds = opt.seeds;
  grid.base.topo = opt.scenario.topology(opt.topo);
  opt.scenario.apply(grid.base);
  grid.base.flow_size_cap_bytes = 8e6;
  grid.base.tune_dcqcn_for_rate();

  exp::SweepRunnerConfig cfg;
  cfg.out_dir = opt.out_dir;
  cfg.threads = opt.threads;
  cfg.resume = opt.resume;
  cfg.crash_after_writes = opt.crash_after_writes;

  exp::SweepRunner runner(grid, cfg);
  g_runner = &runner;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  const std::size_t total = grid.expand().size();
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
    std::printf("  %-32s %-12s attempts=%d\n", st.id.c_str(),
                st.status.c_str(), st.attempts);
    if (st.status == "stopped") stopped = true;
  }
  std::printf("pet_sweep: %d/%zu completed, %d failed -> %s\n",
              result.completed, result.points.size(), result.failed,
              result.artifact_path.empty() ? "(no merged artifact)"
                                           : result.artifact_path.c_str());
  if (result.artifact_path.empty()) {
    std::fprintf(stderr, "pet_sweep: cannot write the merged artifact %s\n",
                 runner.merged_artifact_path().c_str());
    return 1;
  }
  if (stopped) return 130;
  return result.all_completed() ? 0 : 1;
}
