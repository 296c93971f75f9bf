#pragma once
// ExperimentBuilder: a chainable wrapper over ScenarioConfig, kept only for
// the frozen scenario benchmark (scenario_bench/scenario_bench.cpp), whose
// calls are exactly its members. Everything else describes a scenario as a
// ScenarioConfig and constructs Experiment from it; the Experiment
// constructor validates. Retire this file with the next benchmark change.

#include <cstdint>
#include <memory>

#include "exp/experiment.hpp"
#include "exp/scheme.hpp"
#include "net/topology.hpp"
#include "net/topology_spec.hpp"
#include "sim/time.hpp"
#include "workload/distributions.hpp"

namespace pet::exp {

class ExperimentBuilder {
 public:
  ExperimentBuilder& topology(const net::TopologySpec& topo) {
    cfg_.topo = topo;
    return *this;
  }
  /// Re-derive DCQCN's increase machinery from the host link rate at
  /// config() / build() time, so it sees the final topology.
  ExperimentBuilder& tuned_dcqcn() {
    tuned_dcqcn_ = true;
    return *this;
  }
  ExperimentBuilder& workload(workload::WorkloadKind kind) {
    cfg_.workload = kind;
    return *this;
  }
  ExperimentBuilder& load(double target_load) {
    cfg_.load = target_load;
    return *this;
  }
  ExperimentBuilder& flow_size_cap(double bytes) {
    cfg_.flow_size_cap_bytes = bytes;
    return *this;
  }
  ExperimentBuilder& incast(std::int32_t fan_in, std::int64_t request_bytes,
                            sim::Time period) {
    cfg_.incast_enabled = true;
    cfg_.incast_fan_in = fan_in;
    cfg_.incast_request_bytes = request_bytes;
    cfg_.incast_period = period;
    return *this;
  }
  ExperimentBuilder& scheme(Scheme s) {
    cfg_.scheme = s;
    return *this;
  }
  ExperimentBuilder& phases(sim::Time pretrain, sim::Time measure) {
    cfg_.pretrain = pretrain;
    cfg_.measure = measure;
    return *this;
  }
  ExperimentBuilder& seed(std::uint64_t s) {
    cfg_.seed = s;
    return *this;
  }
  ExperimentBuilder& pretrain_lr_boost(double factor) {
    cfg_.pretrain_lr_boost = factor;
    return *this;
  }
  ExperimentBuilder& expects_pretrained(bool expects) {
    cfg_.expects_pretrained = expects;
    return *this;
  }
  ExperimentBuilder& profiling(bool enabled) {
    cfg_.profiling = enabled;
    return *this;
  }

  /// The assembled configuration exactly as build() consumes it.
  [[nodiscard]] ScenarioConfig config() const {
    ScenarioConfig cfg = cfg_;
    if (tuned_dcqcn_) cfg.tune_dcqcn_for_rate();
    return cfg;
  }

  /// Throws std::invalid_argument on a bad config (Experiment validates).
  [[nodiscard]] std::unique_ptr<Experiment> build() const {
    return std::make_unique<Experiment>(config());
  }

 private:
  ScenarioConfig cfg_{};
  bool tuned_dcqcn_ = false;
};

}  // namespace pet::exp
