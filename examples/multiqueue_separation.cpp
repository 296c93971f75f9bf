// Multi-queue adaptation (paper Section 4.5.2): switches separate mice and
// elephants into different data queues (cumulative-size classifier) and PET
// deploys one agent per (switch, queue), each tuning its queue's ECN
// thresholds independently. Compare against the single-queue deployment on
// mice latency.
//
//   ./multiqueue_separation [load]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/controller.hpp"
#include "core/pet_agent.hpp"
#include "exp/experiment.hpp"
#include "exp/table.hpp"
#include "net/classifier.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  const double load = argc > 1 ? std::atof(argv[1]) : 0.6;

  exp::Table table({"deployment", "mice avg FCT", "mice p99 FCT",
                    "elephant avg FCT", "queue avg"});

  for (const bool multiqueue : {false, true}) {
    exp::ScenarioConfig cfg;
    cfg.scheme = exp::Scheme::kSecn1;  // static placeholder; agents below
    cfg.load = load;
    cfg.topo.leaf_spine().switch_cfg.num_data_queues = multiqueue ? 2 : 1;
    cfg.flow_size_cap_bytes = 8e6;
    cfg.pretrain = sim::milliseconds(40);
    cfg.measure = sim::milliseconds(40);
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
