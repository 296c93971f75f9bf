#include "exp/experiment_builder.hpp"

#include <stdexcept>
#include <string>

#include "exp/replica_runner.hpp"

namespace pet::exp {

ExperimentBuilder ExperimentBuilder::from_config(const ScenarioConfig& cfg) {
  ExperimentBuilder b;
  b.cfg_ = cfg;
  return b;
}

ExperimentBuilder& ExperimentBuilder::topology(const net::TopologySpec& topo) {
  cfg_.topo = topo;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::dcqcn(const transport::DcqcnConfig& cfg) {
  cfg_.dcqcn = cfg;
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

ExperimentBuilder& ExperimentBuilder::explore_start(double rate) {
  cfg_.pet_explore_start = rate;
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

ExperimentBuilder& ExperimentBuilder::replicas(std::int32_t n) {
  replicas_ = n;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::threads(std::int32_t n) {
  threads_ = n;
  return *this;
}

void ExperimentBuilder::validate() const {
  cfg_.validate();
  const auto fail = [](const char* field, const char* why) {
    throw std::invalid_argument(std::string("ExperimentBuilder: ") + field +
                                " " + why);
  };
  if (replicas_ < 1) fail("replicas", "must be >= 1");
  if (threads_ < 0) fail("threads", "must be >= 0 (0 = hardware)");
  if (replicas_ > 1 && cfg_.scheme != Scheme::kPet &&
      cfg_.scheme != Scheme::kPetAblation) {
    fail("replicas", "> 1 requires a PET scheme (merged IPPO update)");
  }
}

ScenarioConfig ExperimentBuilder::finalized() const {
  ScenarioConfig cfg = cfg_;
  if (tuned_dcqcn_) cfg.tune_dcqcn_for_rate();
  return cfg;
}

std::unique_ptr<Experiment> ExperimentBuilder::build() const {
  validate();
  return std::make_unique<Experiment>(finalized());
}

ReplicaRunner ExperimentBuilder::build_runner() const {
  validate();
  ReplicaRunnerConfig rc;
  rc.replicas = replicas_;
  rc.threads = threads_;
  return ReplicaRunner(finalized(), rc);
}

}  // namespace pet::exp
