// Incast scenario: the partition-aggregate pattern the paper's intro
// motivates. A fan-in of senders periodically bursts responses at one
// aggregator; we compare a static ECN configuration against PET tuning on
// queue build-up and request completion times.
//
//   ./incast_scenario [fan_in] [request_kb]
//
// An argument that does not parse, or a scenario it makes that
// ScenarioConfig::validate() rejects, exits 2 with one message line.

#include <cstdint>
#include <cstdio>
#include <stdexcept>

#include "exp/cli_flags.hpp"
#include "exp/pretrain.hpp"
#include "exp/table.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  std::int32_t fan_in = 12;
  std::int64_t request_kb = 64;
  exp::ScenarioConfig base;
  base.load = 0.2;  // light background; incast dominates
  base.incast_period = sim::microseconds(800);
  base.flow_size_cap_bytes = 2e6;
  base.pretrain = sim::milliseconds(30);
  base.measure = sim::milliseconds(30);
  try {
    if (argc > 1) {
      fan_in = exp::parse_flag_number<std::int32_t>("fan_in", argv[1]);
    }
    if (argc > 2) {
      request_kb = exp::parse_flag_number<std::int32_t>("request_kb", argv[2]);
    }
    base.incast_fan_in = fan_in;
    base.incast_request_bytes = request_kb * 1024;
    base.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "incast_scenario: %s\n", e.what());
    return 2;
  }
  base.tune_dcqcn_for_rate();

  std::printf("Incast scenario: fan-in %d, %lld KB per response\n\n", fan_in,
              static_cast<long long>(request_kb));

  exp::Table table({"scheme", "incast flow avg FCT", "incast flow p99 FCT",
                    "queue avg", "queue stddev", "PFC pauses"});

  for (const exp::Scheme scheme :
       {exp::Scheme::kSecn2, exp::Scheme::kSecn1, exp::Scheme::kPet}) {
    exp::ScenarioConfig scenario = base;
    scenario.scheme = scheme;
    // Hybrid training: deploy the offline-pretrained model, adapt online.
    auto experiment_ptr = exp::build_pretrained(
        scenario, exp::PretrainOptions{}, sim::milliseconds(10));
    exp::Experiment& experiment = *experiment_ptr;
    const exp::ScenarioConfig& cfg = experiment.config();
    const exp::Metrics m = experiment.run();

    // Incast responses are exactly request_kb*1024 bytes.
    std::vector<double> fcts;
    for (const auto& r : experiment.recorder().records()) {
      if (r.spec.size_bytes == request_kb * 1024 &&
          r.spec.start_time >= cfg.pretrain) {
        fcts.push_back(r.fct().us());
      }
    }
    table.add_row({exp::scheme_name(scheme),
                   exp::fmt("%.1f us", sim::mean_of(fcts)),
                   exp::fmt("%.1f us", sim::percentile(fcts, 99.0)),
                   exp::fmt("%.1f KB", m.queue_avg_kb),
                   exp::fmt("%.1f KB", m.queue_std_kb),
                   exp::fmt("%lld", static_cast<long long>(m.pfc_pauses))});
    std::printf("  ran %s (%zu incast responses measured)\n",
                exp::scheme_name(scheme), fcts.size());
  }
  table.print();
  std::printf(
      "\nLow thresholds absorb the synchronized bursts with short queues; "
      "PET should land near the best static point without manual tuning.\n");
  return 0;
}
