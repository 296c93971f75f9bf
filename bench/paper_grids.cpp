// Paper grids: every figure of the paper's evaluation that is a scheme x
// workload x load grid, declared once in a constant table:
//
//   Fig. 4   FCT vs load, Web Search: overall/mice/mice-99th/elephant
//   Fig. 5   FCT across workloads: Web Search and Data Mining
//   Fig. 8   per-packet latency, Web Search
//   Fig. 9   PET state ablation (incast degree + mice/elephant ratio)
//   Table I  queue length at 60% load
//   Ladder   static vs rule-based dynamic vs learning ECN tuning (extension)
//
// Each distinct (workload, scheme, load) point runs once through
// bench::run_scenario, in first-use order over the table, and is recorded
// in BENCH_paper_grids.json under "<workload>.<scheme>.load<NN>". Points are
// deterministic, so figures that share a point print the same run.
// Pretrain-cache keys omit the load, so on a cold cache the first point of
// each learning scheme and workload decides the weights all later points
// load; the fixed order makes that one answer. One renderer prints every
// (figure, workload, panel): a row per load, a column per scheme, and PET's
// change against each other scheme.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace pet;
using exp::Metrics;
using exp::Scheme;
using workload::WorkloadKind;

struct Panel {
  const char* title;
  double (*metric)(const Metrics&);
  const char* format = "%.1f";
};

struct Figure {
  const char* title;
  const char* paper_ref;
  std::vector<WorkloadKind> workloads;
  /// PET last: the delta columns compare it against every other scheme.
  std::vector<Scheme> schemes;
  std::vector<double> loads;
  std::vector<double> quick_loads;
  std::vector<Panel> panels;
  /// What the paper reports, printed under the figure's panels.
  const char* paper;
};

const Panel kOverallAvg{"overall average FCT (us)",
                        [](const Metrics& m) { return m.overall.avg_us; }};
const Panel kMiceAvg{"mice (0,100KB] average FCT (us)",
                     [](const Metrics& m) { return m.mice.avg_us; }};
const Panel kMiceP99{"mice (0,100KB] 99th FCT (us)",
                     [](const Metrics& m) { return m.mice.p99_us; }};
const Panel kElephantAvg{"elephant average FCT (us)",
                         [](const Metrics& m) { return m.elephants.avg_us; }};
const Panel kLatencyAvg{"average per-packet latency (us)",
                        [](const Metrics& m) { return m.latency_avg_us; },
                        "%.2f"};
const Panel kLatencyP99{"99th percentile per-packet latency (us)",
                        [](const Metrics& m) { return m.latency_p99_us; },
                        "%.2f"};
const Panel kQueueAvg{"average queue length (KB)",
                      [](const Metrics& m) { return m.queue_avg_kb; }};
const Panel kQueueStd{"queue length std dev (KB)",
                      [](const Metrics& m) { return m.queue_std_kb; }};

const std::vector<Scheme> kPaperSchemes{Scheme::kSecn1, Scheme::kSecn2,
                                        Scheme::kAcc, Scheme::kPet};

const std::vector<Figure> kFigures{
    {"Fig. 4 - FCT vs load, Web Search",
     "PET paper Fig. 4(a)-(d)",
     {WorkloadKind::kWebSearch},
     kPaperSchemes,
     {0.3, 0.5, 0.7},
     {0.5},
     {kOverallAvg, kMiceAvg, kMiceP99, kElephantAvg},
     "PET reduces overall avg FCT by up to 3.9% vs ACC, 5.8% vs SECN1, "
     "17.6% vs SECN2;\n       mice 99th by up to 9.9% / 23.6% / 48.6%."},
    {"Fig. 5 - FCT across workloads",
     "PET paper Fig. 5(a)-(b)",
     {WorkloadKind::kWebSearch, WorkloadKind::kDataMining},
     kPaperSchemes,
     {0.4, 0.6},
     {0.5},
     {kOverallAvg},
     "PET best in both workloads: up to -8.2%/-23.2%/-67.3% (WS) and "
     "-3.7%/-7.6%/-13.4% (DM) vs ACC/SECN1/SECN2."},
    {"Fig. 8 - Packet latency, Web Search",
     "PET paper Fig. 8",
     {WorkloadKind::kWebSearch},
     kPaperSchemes,
     {0.3, 0.5, 0.7},
     {0.5},
     {kLatencyAvg, kLatencyP99},
     "PET reduces latency by up to 3% vs ACC, 7.2% vs SECN1 and 18.3% vs "
     "SECN2."},
    {"Fig. 9 - PET state ablation (incast + M/E ratio)",
     "PET paper Fig. 9",
     {WorkloadKind::kWebSearch},
     {Scheme::kPetAblation, Scheme::kPet},
     {0.3, 0.5, 0.7},
     {0.5},
     {kOverallAvg, kMiceP99},
     "including D_incast and R_flow reduces overall average FCT by up to "
     "6.3%."},
    {"Table I - Queue length statistics at 60% load",
     "PET paper Table I",
     {WorkloadKind::kWebSearch},
     kPaperSchemes,
     {0.6},
     {0.6},
     {kQueueAvg, kQueueStd},
     "PET 5.3KB avg / 10.2KB variance vs ACC 6.1KB / 14.1KB: both short, "
     "PET steadier.\n       The paper reports only PET and ACC; the static "
     "baselines are included for context."},
    {"Extension - static vs dynamic vs learning ECN tuning",
     "PET paper Section 2, scheme taxonomy",
     {WorkloadKind::kWebSearch},
     {Scheme::kSecn1, Scheme::kSecn2, Scheme::kAmt, Scheme::kQaecn,
      Scheme::kAcc, Scheme::kPet},
     {0.4, 0.6},
     {0.6},
     {kOverallAvg, kMiceAvg, kMiceP99, kElephantAvg, kQueueAvg, kLatencyAvg},
     "static SECN1/SECN2, rule-based dynamic AMT/QAECN, learning ACC/PET.\n"
     "       Dynamic rules adapt but only along their pre-programmed axis; "
     "learning schemes shape the whole (Kmin,Kmax,Pmax) policy from "
     "observed state."},
};

std::string point_label(WorkloadKind kind, Scheme scheme, double load) {
  return exp::fmt("%s.%s.load%02d", workload::workload_name(kind),
                  exp::scheme_name(scheme), static_cast<int>(load * 100));
}

/// PET's relative change against `base`; n/a when the base is zero.
std::string delta(double pet, double base) {
  return base != 0.0 ? exp::fmt("%+.1f%%", (pet - base) / base * 100.0)
                     : std::string("n/a");
}

void render(const Figure& fig, const std::vector<double>& loads,
            const std::map<std::string, Metrics>& points) {
  std::printf("\n=== %s (%s) ===\n", fig.title, fig.paper_ref);
  std::vector<std::string> headers{"load"};
  for (const Scheme s : fig.schemes) headers.emplace_back(exp::scheme_name(s));
  const Scheme pet = fig.schemes.back();
  for (std::size_t i = 0; i + 1 < fig.schemes.size(); ++i) {
    headers.push_back(exp::fmt("%s vs %s", exp::scheme_name(pet),
                               exp::scheme_name(fig.schemes[i])));
  }
  for (const WorkloadKind kind : fig.workloads) {
    for (const Panel& panel : fig.panels) {
      std::printf("\n--- %s: %s ---\n", workload::workload_name(kind),
                  panel.title);
      exp::Table table(headers);
      for (const double load : loads) {
        std::vector<double> vals;
        std::vector<std::string> row{exp::fmt("%.0f%%", load * 100)};
        for (const Scheme s : fig.schemes) {
          vals.push_back(panel.metric(points.at(point_label(kind, s, load))));
          row.push_back(exp::fmt(panel.format, vals.back()));
        }
        for (std::size_t i = 0; i + 1 < vals.size(); ++i) {
          row.push_back(delta(vals.back(), vals[i]));
        }
        table.add_row(row);
      }
      table.print();
    }
  }
  std::printf("\npaper: %s\n", fig.paper);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(opt, "Paper grids - Fig. 4, 5, 8, 9, Table I, ladder",
                      "PET paper Section 5 (scheme x workload x load grids)");
  exp::RunArtifact art = bench::make_artifact(opt, "paper_grids");

  const auto loads_of = [&opt](const Figure& fig) -> const std::vector<double>& {
    return opt.quick ? fig.quick_loads : fig.loads;
  };
  std::map<std::string, Metrics> points;
  for (const Figure& fig : kFigures) {
    for (const WorkloadKind kind : fig.workloads) {
      for (const double load : loads_of(fig)) {
        for (const Scheme scheme : fig.schemes) {
          const std::string label = point_label(kind, scheme, load);
          if (points.count(label) != 0) continue;
          const Metrics m =
              bench::run_scenario(opt, scheme, kind, load, art, label);
          points.emplace(label, m);
          std::printf("  ran %-28s overall avg %.1fus (n=%zu)\n",
                      label.c_str(), m.overall.avg_us, m.overall.count);
        }
      }
    }
  }
  std::printf("\n%zu distinct points\n", points.size());

  for (const Figure& fig : kFigures) render(fig, loads_of(fig), points);
  bench::write_artifact(opt, art);
  return 0;
}
