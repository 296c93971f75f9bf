#include "exp/experiment_builder.hpp"

namespace pet::exp {

ExperimentBuilder& ExperimentBuilder::topology(const net::TopologySpec& topo) {
  cfg_.topo = topo;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::tuned_dcqcn(bool enabled) {
  tuned_dcqcn_ = enabled;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::workload(workload::WorkloadKind kind) {
  cfg_.workload = kind;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::load(double target_load) {
  cfg_.load = target_load;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::flow_size_cap(double bytes) {
  cfg_.flow_size_cap_bytes = bytes;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::incast(bool enabled) {
  cfg_.incast_enabled = enabled;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::incast(std::int32_t fan_in,
                                             std::int64_t request_bytes,
                                             sim::Time period) {
  cfg_.incast_enabled = true;
  cfg_.incast_fan_in = fan_in;
  cfg_.incast_request_bytes = request_bytes;
  cfg_.incast_period = period;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::scheme(Scheme s) {
  cfg_.scheme = s;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::phases(sim::Time pretrain,
                                             sim::Time measure) {
  cfg_.pretrain = pretrain;
  cfg_.measure = measure;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::pretrain(sim::Time t) {
  cfg_.pretrain = t;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::measure(sim::Time t) {
  cfg_.measure = t;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::tuning_interval(sim::Time t) {
  cfg_.tuning_interval = t;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::seed(std::uint64_t s) {
  cfg_.seed = s;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::pretrain_lr_boost(double factor) {
  cfg_.pretrain_lr_boost = factor;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::shared_policy(bool shared) {
  cfg_.pet_shared_policy = shared;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::expects_pretrained(bool expects) {
  cfg_.expects_pretrained = expects;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::infer(rl::InferMode mode) {
  cfg_.pet_infer = mode;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::profiling(bool enabled) {
  cfg_.profiling = enabled;
  return *this;
}

ScenarioConfig ExperimentBuilder::finalized() const {
  ScenarioConfig cfg = cfg_;
  if (tuned_dcqcn_) cfg.tune_dcqcn_for_rate();
  return cfg;
}

std::unique_ptr<Experiment> ExperimentBuilder::build() const {
  const ScenarioConfig cfg = finalized();
  cfg.validate();
  return std::make_unique<Experiment>(cfg);
}

}  // namespace pet::exp
