// Figure 7 (extended): robustness under a scheduled fault plan. Instead of
// the paper's single fail/restore pair, the fabric runs a link-flap
// schedule — two random switch-link flaps, a degraded-rate window on a
// spine uplink, and a spine reboot — for PET vs ACC (static SECN1 for
// context). It prints average and p99 FCT per fault phase, each scheme's
// queue average over the whole measured window, and its fault and health
// event counts, then the paper's Fig. 7 claim for comparison.

#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(opt, "Fig. 7 - Robustness under a fault schedule",
                      "PET paper Fig. 7 + fault-injection extension");
  exp::RunArtifact art = bench::make_artifact(opt, "fig7_robustness");

  const auto seg = [&](std::int64_t full, std::int64_t quick) {
    return sim::milliseconds(opt.quick ? quick : full);
  };
  const sim::Time warmup = seg(10, 5);
  const sim::Time healthy_end = warmup + seg(5, 3);      // healthy baseline
  const sim::Time flap1_up = healthy_end + seg(10, 5);   // links down
  const sim::Time recov1_end = flap1_up + seg(8, 4);     // recovery window
  const sim::Time flap2_up = recov1_end + seg(10, 5);    // flap + degrade + reboot
  const sim::Time end = flap2_up + seg(8, 4);            // final recovery

  struct Phase {
    const char* name;
    sim::Time from;
    sim::Time to;
  };
  const std::vector<Phase> phases{
      {"healthy", warmup, healthy_end},
      {"flap1 (25% down)", healthy_end, flap1_up},
      {"recovered-1", flap1_up, recov1_end},
      {"flap2 (+degrade,reboot)", recov1_end, flap2_up},
      {"recovered-2", flap2_up, end},
  };

  struct Series {
    exp::Scheme scheme;
    std::vector<exp::Metrics> per_phase;
    double queue_avg_kb = 0.0;
    std::size_t fault_events = 0;
    std::size_t health_events = 0;
  };
  std::vector<Series> series;
  const std::vector<exp::Scheme> schemes{exp::Scheme::kPet, exp::Scheme::kAcc,
                                         exp::Scheme::kSecn1};

  for (const exp::Scheme scheme : schemes) {
    exp::ScenarioConfig cfg = bench::make_scenario(
        opt, scheme, workload::WorkloadKind::kWebSearch, 0.5);
    // Every scheme shares the warmup; build_pretrained applies it to the
    // learning schemes once their weights are fetched.
    if (!exp::is_learning_scheme(scheme)) cfg.pretrain = warmup;
    auto experiment_ptr =
        exp::build_pretrained(cfg, bench::make_pretrain(opt), warmup);
    exp::Experiment& experiment = *experiment_ptr;

    // The flap schedule. Victim links are drawn from the live topology when
    // each flap fires, using the experiment's seeded fault RNG. The paper
    // fails 10% of a 288-host fabric's links; on the scaled-down fabric
    // (4-8 switch-switch links) a 25% fraction keeps at least one link
    // flapping per window.
    net::FaultPlan& plan = experiment.fault_plan();
    plan.random_link_flap(0.25, healthy_end, flap1_up);
    plan.random_link_flap(0.25, recov1_end, flap2_up);
    // During the second flap a surviving spine uplink runs degraded and one
    // spine takes a dataplane reboot mid-window.
    const net::Fabric& topo = experiment.topology();
    plan.link_degrade(topo.tor_devices().front(), topo.top_devices().front(),
                      0.25, recov1_end, flap2_up);
    plan.switch_reboot(topo.top_devices().back(),
                       sim::Time((recov1_end.ps() + flap2_up.ps()) / 2),
                       exp::secn1_config());

    {
      PET_PROFILE_SCOPE(&experiment.profiler(), "warmup");
      experiment.run_until(warmup);
    }
    experiment.mark_measurement_start();
    {
      PET_PROFILE_SCOPE(&experiment.profiler(), "measure");
      experiment.run_until(end);
    }

    Series s{scheme, {}, 0.0, 0, 0};
    for (const Phase& ph : phases) {
      s.per_phase.push_back(experiment.collect(ph.from, ph.to));
    }
    // collect() windows only the FCT buckets; its queue average covers the
    // whole measured window whatever the phase, so it is recorded once.
    s.queue_avg_kb = s.per_phase.front().queue_avg_kb;
    s.health_events = experiment.event_log().count("agent-health");
    s.fault_events = experiment.event_log().events().size() - s.health_events;
    for (std::size_t p = 0; p < phases.size(); ++p) {
      const std::string prefix =
          exp::fmt("%s.phase%zu", exp::scheme_name(scheme), p);
      art.add_metric(prefix + ".avg_fct_us", s.per_phase[p].overall.avg_us);
      art.add_metric(prefix + ".p99_fct_us", s.per_phase[p].overall.p99_us);
    }
    const std::string name = exp::scheme_name(scheme);
    art.add_metric(name + ".queue_avg_kb", s.queue_avg_kb);
    art.add_metric(name + ".fault_events", static_cast<double>(s.fault_events));
    art.add_metric(name + ".health_events",
                   static_cast<double>(s.health_events));
    bench::record_run(opt, art, experiment);
    series.push_back(std::move(s));
    std::printf("  ran %-6s: %zu fault events, %zu health transitions\n",
                exp::scheme_name(scheme), series.back().fault_events,
                series.back().health_events);
  }

  std::printf("\n--- average FCT (us) per fault phase ---\n");
  std::vector<std::string> headers{"phase", "window (ms)"};
  for (const auto& s : series) headers.push_back(exp::scheme_name(s.scheme));
  exp::Table table(headers);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    std::vector<std::string> row{
        phases[p].name,
        exp::fmt("%.0f-%.0f", phases[p].from.ms(), phases[p].to.ms())};
    for (const auto& s : series) {
      row.push_back(exp::fmt("%.1f", s.per_phase[p].overall.avg_us));
    }
    table.add_row(std::move(row));
  }
  table.print();

  std::printf("\n--- p99 FCT (us) per fault phase ---\n");
  exp::Table detail(headers);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    std::vector<std::string> row{
        phases[p].name,
        exp::fmt("%.0f-%.0f", phases[p].from.ms(), phases[p].to.ms())};
    for (const auto& s : series) {
      row.push_back(exp::fmt("%.1f", s.per_phase[p].overall.p99_us));
    }
    detail.add_row(std::move(row));
  }
  detail.print();

  std::printf("\navg queue (KB) over the measured window (%.0f-%.0f ms):",
              warmup.ms(), end.ms());
  for (const auto& s : series) {
    std::printf(" %s %.1f", exp::scheme_name(s.scheme), s.queue_avg_kb);
  }
  std::printf("\n");

  std::printf(
      "\npaper: PET achieves up to 26%% lower average FCT than ACC while "
      "links are down, recovering faster after restoration.\n");
  bench::write_artifact(opt, art);
  return 0;
}
