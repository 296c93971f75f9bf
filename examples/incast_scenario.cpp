// Incast scenario: the partition-aggregate pattern the paper's intro
// motivates. A fan-in of senders periodically bursts responses at one
// aggregator; we compare a static ECN configuration against PET tuning on
// queue build-up and request completion times.
//
//   ./incast_scenario [fan_in] [request_kb]

#include <cstdio>
#include <cstdlib>

#include "exp/experiment_builder.hpp"
#include "exp/pretrain.hpp"
#include "exp/table.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  const std::int32_t fan_in = argc > 1 ? std::atoi(argv[1]) : 12;
  const std::int64_t request_kb = argc > 2 ? std::atoll(argv[2]) : 64;

  std::printf("Incast scenario: fan-in %d, %lld KB per response\n\n", fan_in,
              static_cast<long long>(request_kb));

  exp::Table table({"scheme", "incast flow avg FCT", "incast flow p99 FCT",
                    "queue avg", "queue stddev", "PFC pauses"});

  for (const exp::Scheme scheme :
       {exp::Scheme::kSecn2, exp::Scheme::kSecn1, exp::Scheme::kPet}) {
    net::LeafSpineConfig topo;
    topo.num_spines = 2;
    topo.num_leaves = 4;
    topo.hosts_per_leaf = 8;
    exp::ExperimentBuilder builder;
    builder.scheme(scheme)
        .workload(workload::WorkloadKind::kWebSearch)
        .load(0.2)  // light background; incast dominates
        .topology(net::TopologySpec(topo))
        .incast(fan_in, request_kb * 1024, sim::microseconds(800))
        .flow_size_cap(2e6)
        .phases(sim::milliseconds(30), sim::milliseconds(30))
        .tuned_dcqcn();
    // Hybrid training: deploy the offline-pretrained model, adapt online.
    auto experiment_ptr = exp::build_pretrained(
        builder, exp::PretrainOptions{}, sim::milliseconds(10));
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
