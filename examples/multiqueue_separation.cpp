// Multi-queue adaptation (paper Section 4.5.2): switches separate mice and
// elephants into different data queues (cumulative-size classifier) and PET
// deploys one agent per (switch, queue), each tuning its queue's ECN
// thresholds independently. Compare against the single-queue deployment on
// mice latency.
//
//   ./multiqueue_separation [load]
//
// An argument that does not parse, or a load ScenarioConfig::validate()
// rejects, exits 2 with one message line.

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/controller.hpp"
#include "core/pet_agent.hpp"
#include "exp/cli_flags.hpp"
#include "exp/experiment.hpp"
#include "exp/table.hpp"
#include "net/classifier.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  exp::ScenarioConfig base;
  base.scheme = exp::Scheme::kSecn1;  // static placeholder; agents below
  base.flow_size_cap_bytes = 8e6;
  base.pretrain = sim::milliseconds(40);
  base.measure = sim::milliseconds(40);
  try {
    if (argc > 1) base.load = exp::parse_flag_number<double>("load", argv[1]);
    base.validate();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "multiqueue_separation: %s\n", e.what());
    return 2;
  }

  exp::Table table({"deployment", "mice avg FCT", "mice p99 FCT",
                    "elephant avg FCT", "queue avg"});

  for (const bool multiqueue : {false, true}) {
    exp::ScenarioConfig cfg = base;
    cfg.topo.leaf_spine().switch_cfg.num_data_queues = multiqueue ? 2 : 1;
    cfg.tune_dcqcn_for_rate();
    exp::Experiment experiment(cfg);

    core::PetControllerConfig pc;
    pc.num_queues = multiqueue ? 2 : 1;
    pc.agent = core::PetAgentConfig::paper_defaults();
    pc.agent.rollout_length = 32;
    pc.agent.ppo.minibatch_size = 32;
    pc.agent.explore_start = 0.1;
    pc.agent.state.qlen_norm_bytes =
        static_cast<double>(cfg.topo.switch_config().pfc_xoff_bytes);
    if (multiqueue) {
      // Mice ride queue 0, elephants queue 1 (per-switch classifier state).
      for (auto* sw : experiment.network().switches()) {
        sw->set_classifier(net::SizeClassClassifier::as_classifier(
            std::make_shared<net::SizeClassClassifier>()));
      }
    }
    core::PetController controller(experiment.scheduler(),
                                   experiment.network().switches(), pc,
                                   sim::derive_seed(cfg.seed, "mq-demo"));
    controller.start();

    const exp::Metrics m = experiment.run();
    table.add_row({multiqueue ? "multi-queue PET (mice|elephant split)"
                              : "single-queue PET",
                   exp::fmt("%.1f us", m.mice.avg_us),
                   exp::fmt("%.1f us", m.mice.p99_us),
                   exp::fmt("%.1f us", m.elephants.avg_us),
                   exp::fmt("%.1f KB", m.queue_avg_kb)});
    std::printf("  ran %s (mean reward %.3f)\n",
                multiqueue ? "multi-queue" : "single-queue",
                controller.mean_reward());
  }
  table.print();
  std::printf(
      "\nEach (switch, queue) agent tunes its queue's thresholds from that "
      "queue's experience alone; compare the mice rows against single-queue "
      "PET.\n");
  return 0;
}
