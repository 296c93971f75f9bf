#pragma once
// ExperimentBuilder: the fluent front door for assembling scenarios.
//
//   auto ex = exp::ExperimentBuilder{}
//                 .topology(net::LeafSpineConfig::paper_scale())
//                 .workload(workload::WorkloadKind::kWebSearch)
//                 .scheme(exp::Scheme::kPet)
//                 .seed(7)
//                 .build();
//
// Chainable setters over ScenarioConfig; build() validates the assembled
// configuration once (throwing std::invalid_argument with a field-naming
// message) so malformed scenarios fail loudly at the API boundary instead
// of deep inside the simulator. Code that already holds a whole
// ScenarioConfig (SweepRunner, offline_pretrain) constructs Experiment from
// it directly, and ReplicaRunner(ScenarioConfig, ReplicaRunnerConfig) is
// the parallel-replica trainer.

#include <cstdint>
#include <memory>

#include "exp/experiment.hpp"
#include "exp/scheme.hpp"
#include "net/topology.hpp"
#include "net/topology_spec.hpp"
#include "rl/inference.hpp"
#include "sim/time.hpp"
#include "workload/distributions.hpp"

namespace pet::exp {

class ExperimentBuilder {
 public:
  ExperimentBuilder() = default;

  // --- fabric ---------------------------------------------------------------
  /// Any fabric family: leaf-spine, k-ary fat-tree, or inter-DC
  /// (net/topology_spec.hpp).
  ExperimentBuilder& topology(const net::TopologySpec& topo);
  /// Re-derive DCQCN's increase machinery from the (already set) host link
  /// rate; applied at build() time so it sees the final topology.
  ExperimentBuilder& tuned_dcqcn(bool enabled = true);

  // --- workload -------------------------------------------------------------
  ExperimentBuilder& workload(workload::WorkloadKind kind);
  ExperimentBuilder& load(double target_load);
  /// 0 disables flow-size truncation.
  ExperimentBuilder& flow_size_cap(double bytes);
  ExperimentBuilder& incast(bool enabled);
  ExperimentBuilder& incast(std::int32_t fan_in, std::int64_t request_bytes,
                            sim::Time period);

  // --- scheme & schedule ----------------------------------------------------
  ExperimentBuilder& scheme(Scheme s);
  ExperimentBuilder& phases(sim::Time pretrain, sim::Time measure);
  ExperimentBuilder& pretrain(sim::Time t);
  ExperimentBuilder& measure(sim::Time t);
  ExperimentBuilder& tuning_interval(sim::Time t);

  // --- learning knobs -------------------------------------------------------
  ExperimentBuilder& seed(std::uint64_t s);
  ExperimentBuilder& pretrain_lr_boost(double factor);
  ExperimentBuilder& shared_policy(bool shared);
  ExperimentBuilder& expects_pretrained(bool expects);
  /// Deployment-decision serving precision (rl::PolicyServer). Non-kDirect
  /// modes imply shared_policy(true).
  ExperimentBuilder& infer(rl::InferMode mode);

  // --- observability --------------------------------------------------------
  /// Attach the experiment's Profiler to its Scheduler (per-event-kind
  /// sections; the event order is unaffected).
  ExperimentBuilder& profiling(bool enabled = true);

  /// The assembled (not yet validated) configuration exactly as build()
  /// will consume it — deferred adjustments like tuned_dcqcn() applied.
  /// Useful as a pretrain-cache key.
  [[nodiscard]] ScenarioConfig config() const { return finalized(); }

  /// Validate and construct. Throws std::invalid_argument on a bad config.
  [[nodiscard]] std::unique_ptr<Experiment> build() const;

 private:
  [[nodiscard]] ScenarioConfig finalized() const;

  ScenarioConfig cfg_{};
  bool tuned_dcqcn_ = false;
};

}  // namespace pet::exp
