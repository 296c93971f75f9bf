// Figure 6: model convergence under abrupt traffic-pattern switching —
// background traffic flips Web Search -> Data Mining -> Web Search -> Data
// Mining; (a) elephant and (b) mice average FCT tracked over time for PET
// vs ACC.
//
// Paper timeline (seconds-scale) is compressed: phases of 15 ms on the
// scaled fabric. Paper-reported shape: both adapt quickly; PET settles to
// 2.1% (elephant) / 7.2% (mice) lower FCT than ACC after each switch.

#include <cstdio>
#include <vector>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(opt, "Fig. 6 - Convergence under pattern switching",
                      "PET paper Fig. 6(a)-(b)");
  exp::RunArtifact art = bench::make_artifact(opt, "fig6_convergence");

  const sim::Time phase =
      opt.quick ? sim::milliseconds(8) : sim::milliseconds(15);
  const sim::Time bin = opt.quick ? sim::milliseconds(4) : sim::milliseconds(5);
  const sim::Time warmup = sim::milliseconds(opt.quick ? 5 : 10);

  struct Series {
    exp::Scheme scheme;
    std::vector<exp::Metrics> bins;
  };
  std::vector<Series> series;

  for (const exp::Scheme scheme : {exp::Scheme::kPet, exp::Scheme::kAcc}) {
    auto experiment_ptr = exp::build_pretrained(
        bench::make_scenario(opt, scheme, workload::WorkloadKind::kWebSearch,
                             0.5),
        bench::make_pretrain(opt), warmup);
    exp::Experiment& experiment = *experiment_ptr;

    // Phase switches: WS (initial) -> DM -> WS -> DM. Each switch lands in
    // the event log so the exported trace shows the timeline.
    const sim::Time t0 = warmup;
    const auto switch_to = [&experiment](workload::WorkloadKind kind) {
      experiment.switch_workload(kind);
      experiment.event_log().record("workload-switch",
                                    workload::workload_name(kind));
    };
    experiment.add_event(t0 + phase, [switch_to] {
      switch_to(workload::WorkloadKind::kDataMining);
    });
    experiment.add_event(t0 + 2 * phase, [switch_to] {
      switch_to(workload::WorkloadKind::kWebSearch);
    });
    experiment.add_event(t0 + 3 * phase, [switch_to] {
      switch_to(workload::WorkloadKind::kDataMining);
    });

    const sim::Time end = t0 + 4 * phase;
    {
      PET_PROFILE_SCOPE(&experiment.profiler(), "warmup");
      experiment.run_until(warmup);
    }
    experiment.mark_measurement_start();
    {
      PET_PROFILE_SCOPE(&experiment.profiler(), "measure");
      experiment.run_until(end);
    }

    Series s{scheme, {}};
    for (sim::Time t = t0; t < end; t += bin) {
      s.bins.push_back(experiment.collect(t, t + bin));
    }
    for (std::size_t b = 0; b < s.bins.size(); ++b) {
      const std::string prefix =
          exp::fmt("%s.bin%02zu", exp::scheme_name(scheme), b);
      art.add_metric(prefix + ".elephant_avg_us", s.bins[b].elephants.avg_us);
      art.add_metric(prefix + ".mice_avg_us", s.bins[b].mice.avg_us);
    }
    bench::record_run(opt, art, experiment);
    series.push_back(std::move(s));
    std::printf("  ran %s: %zu time bins\n", exp::scheme_name(scheme),
                series.back().bins.size());
  }

  const auto print_panel = [&](const char* title,
                               double (*metric)(const exp::Metrics&)) {
    std::printf("\n--- %s ---\n", title);
    std::vector<std::string> headers{"t (ms)", "workload"};
    for (const auto& s : series) headers.push_back(exp::scheme_name(s.scheme));
    exp::Table table(headers);
    const std::size_t n_bins = series[0].bins.size();
    const std::int64_t bins_per_phase = phase / bin;
    for (std::size_t b = 0; b < n_bins; ++b) {
      const double t_ms = warmup.ms() + static_cast<double>(b) * bin.ms();
      const std::int64_t ph = static_cast<std::int64_t>(b) / bins_per_phase;
      std::vector<std::string> row{
          exp::fmt("%.0f-%.0f", t_ms, t_ms + bin.ms()),
          (ph % 2 == 0) ? "WebSearch" : "DataMining"};
      for (const auto& s : series) {
        row.push_back(exp::fmt("%.1f", metric(s.bins[b])));
      }
      table.add_row(std::move(row));
    }
    table.print();
  };

  print_panel("(a) elephant (>1MB) average FCT (us)",
              [](const exp::Metrics& m) { return m.elephants.avg_us; });
  print_panel("(b) mice (0,100KB] average FCT (us)",
              [](const exp::Metrics& m) { return m.mice.avg_us; });

  std::printf(
      "\npaper: both learning schemes re-converge within ~1s of each switch; "
      "PET lands 2.1%% (elephant) / 7.2%% (mice) below ACC.\n");
  bench::write_artifact(opt, art);
  return 0;
}
