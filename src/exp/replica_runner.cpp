#include "exp/replica_runner.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/controller.hpp"
#include "core/pet_agent.hpp"
#include "exp/run_artifact.hpp"
#include "exp/scheme.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"

namespace pet::exp {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fold(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
}

void fold(std::uint64_t& h, double v) { fold(h, std::bit_cast<std::uint64_t>(v)); }

void fold_harvest(std::uint64_t& h, const core::PetAgent::Harvest& harvest) {
  fold(h, static_cast<std::uint64_t>(harvest.rollout.size()));
  fold(h, harvest.bootstrap);
  for (const rl::Transition& t : harvest.rollout.items()) {
    for (const std::int32_t a : t.actions) {
      fold(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)));
    }
    fold(h, t.log_prob);
    fold(h, t.value);
    fold(h, t.reward);
  }
}

/// The checkpoint's "replica-runner/scenario" payload.
std::vector<std::uint8_t> scenario_bytes(const ScenarioConfig& cfg) {
  const std::string text = scenario_json(cfg).dump();
  return {text.begin(), text.end()};
}

}  // namespace

struct ReplicaRunner::ReplicaResult {
  std::vector<core::PetAgent::Harvest> harvests;  // indexed by agent
};

ReplicaRunner::ReplicaRunner(const ScenarioConfig& scenario,
                             ReplicaRunnerConfig cfg)
    : scenario_(scenario), cfg_(cfg) {
  if (cfg_.replicas < 1) {
    throw std::invalid_argument("ReplicaRunner: replicas must be >= 1");
  }
  if (scenario_.scheme != Scheme::kPet &&
      scenario_.scheme != Scheme::kPetAblation) {
    throw std::invalid_argument(
        "ReplicaRunner: merged IPPO updates require a PET scheme");
  }
  // The central model holder is a full Experiment whose scheduler never
  // advances: it exists to own one policy per switch with the exact shapes
  // and seeds a sequential run would use. Its constructor validates the
  // scenario.
  ScenarioConfig central = scenario_;
  central.pet_shared_policy = false;
  central_ = std::make_unique<Experiment>(central);
}

ReplicaRunner::~ReplicaRunner() = default;

std::size_t ReplicaRunner::num_agents() const {
  return central_->pet()->num_agents();
}

std::vector<double> ReplicaRunner::all_weights() const {
  std::vector<double> all;
  for (std::size_t i = 0; i < num_agents(); ++i) {
    const std::vector<double> w = central_->pet()->agent(i).policy().weights();
    all.insert(all.end(), w.begin(), w.end());
  }
  return all;
}

ReplicaRunner::ReplicaResult ReplicaRunner::run_replica(
    std::int32_t r, std::int32_t e,
    const std::vector<std::vector<double>>& weights) const {
  // Everything stochastic inside the replica hangs off this seed chain, so
  // the replica's trajectory is a pure function of (seed, r, e).
  ScenarioConfig cfg = scenario_;
  cfg.seed = sim::Stream(scenario_.seed)
                 .child("replica")
                 .child(static_cast<std::uint64_t>(r))
                 .child(static_cast<std::uint64_t>(e))
                 .seed();
  cfg.pet_shared_policy = false;
  Experiment ex(cfg);
  core::PetController* pet = ex.pet();
  const std::size_t n = pet->num_agents();
  for (std::size_t i = 0; i < n; ++i) {
    core::PetAgent& agent = pet->agent(i);
    // Central and replica agents are built from the same config, so a
    // weight-count mismatch here is a programming error.
    const bool ok = agent.policy().set_weights(weights[i]);
    assert(ok && "replica policy must match the central architecture");
    static_cast<void>(ok);
    agent.set_local_updates(false);  // experience is merged centrally
  }
  ex.run_until(scenario_.pretrain);
  ReplicaResult res;
  res.harvests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    res.harvests.push_back(pet->agent(i).harvest_rollout());
  }
  return res;
}

ReplicaRunner::EpisodeStats ReplicaRunner::run_episode() {
  const std::int32_t e = next_episode_++;
  core::PetController* pet = central_->pet();
  const std::size_t n = pet->num_agents();

  std::vector<std::vector<double>> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = pet->agent(i).policy().weights();
  }

  const auto replicas = static_cast<std::size_t>(cfg_.replicas);
  std::vector<std::optional<ReplicaResult>> results(replicas);
  std::vector<std::exception_ptr> errors(replicas);

  unsigned threads = cfg_.threads > 0
                         ? static_cast<unsigned>(cfg_.threads)
                         : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  threads = std::min<unsigned>(threads, static_cast<unsigned>(replicas));

  // Work distribution is an atomic ticket counter: which thread simulates
  // which replica is scheduling noise — results land in per-replica slots
  // and are merged in replica order below.
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t r = next.fetch_add(1); r < replicas;
         r = next.fetch_add(1)) {
      // Tag this thread's PET_LOG lines with the replica it simulates so
      // interleaved worker output stays attributable.
      sim::set_log_replica_id(static_cast<std::int32_t>(r));
      try {
        results[r] = run_replica(static_cast<std::int32_t>(r), e, weights);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    }
    sim::set_log_replica_id(-1);
  };
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  for (const std::exception_ptr& err : errors) {
    if (err) std::rethrow_exception(err);
  }

  // Merge: per agent, the replicas' trajectories become GAE-isolated slices
  // of one central PPO update, consumed in replica order.
  EpisodeStats st;
  st.episode = e;
  // Chain across episodes so a multi-episode digest covers the whole run.
  std::uint64_t digest = digest_ ^ kFnvOffset;
  double reward_sum = 0.0;
  std::size_t updated_agents = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<rl::PpoAgent::RolloutSlice> slices;
    slices.reserve(replicas);
    for (std::size_t r = 0; r < replicas; ++r) {
      const core::PetAgent::Harvest& h = results[r]->harvests[i];
      fold_harvest(digest, h);
      if (h.rollout.empty()) continue;
      slices.push_back({&h.rollout, h.bootstrap});
      st.transitions += h.rollout.size();
      for (const rl::Transition& t : h.rollout.items()) {
        reward_sum += t.reward;
      }
    }
    if (slices.empty()) continue;
    const rl::PpoAgent::UpdateStats up =
        pet->agent(i).policy().update_merged(slices);
    st.policy_loss += up.policy_loss;
    st.value_loss += up.value_loss;
    st.entropy += up.entropy;
    ++updated_agents;
  }
  if (updated_agents > 0) {
    const auto inv = 1.0 / static_cast<double>(updated_agents);
    st.policy_loss *= inv;
    st.value_loss *= inv;
    st.entropy *= inv;
  }
  if (st.transitions > 0) {
    st.mean_reward = reward_sum / static_cast<double>(st.transitions);
  }
  digest_ = digest;
  history_.push_back(st);
  return st;
}

void ReplicaRunner::save_state(sim::Checkpoint& ckpt) const {
  sim::ByteSink meta;
  meta.i32(cfg_.replicas);
  meta.u64(num_agents());
  meta.i32(next_episode_);
  meta.u64(digest_);
  meta.u64(history_.size());
  for (const EpisodeStats& st : history_) {
    meta.i32(st.episode);
    meta.f64(st.mean_reward);
    meta.u64(st.transitions);
    meta.f64(st.policy_loss);
    meta.f64(st.value_loss);
    meta.f64(st.entropy);
  }
  ckpt.set_section("replica-runner/meta", meta.take());
  ckpt.set_section("replica-runner/scenario", scenario_bytes(scenario_));
  for (std::size_t i = 0; i < num_agents(); ++i) {
    sim::ByteSink agent;
    central_->pet()->agent(i).policy().save_state(agent);
    ckpt.set_section("replica-runner/agent." + std::to_string(i),
                     agent.take());
  }
}

bool ReplicaRunner::load_state(const sim::Checkpoint& ckpt) {
  // The scenario and the replica count tie a checkpoint to the exact run
  // that produced it: resuming under a different config would continue a
  // *different* run and silently break the bitwise-resume guarantee.
  const std::vector<std::uint8_t>* scenario =
      ckpt.section("replica-runner/scenario");
  const std::vector<std::uint8_t>* meta_bytes =
      ckpt.section("replica-runner/meta");
  if (scenario == nullptr || *scenario != scenario_bytes(scenario_) ||
      meta_bytes == nullptr) {
    return false;
  }
  sim::ByteSource meta(*meta_bytes);
  const std::int32_t replicas = meta.i32();
  const std::uint64_t agents = meta.u64();
  if (!meta.ok() || replicas != cfg_.replicas || agents != num_agents()) {
    return false;
  }
  const std::int32_t next_episode = meta.i32();
  const std::uint64_t digest = meta.u64();
  const std::uint64_t count = meta.u64();
  // Each history entry is one i32 and five 8-byte fields.
  if (!meta.ok() || next_episode < 0 || !meta.fits(count, 4 + 5 * 8)) {
    return false;
  }
  std::vector<EpisodeStats> history;
  history.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    EpisodeStats st;
    st.episode = meta.i32();
    st.mean_reward = meta.f64();
    st.transitions = static_cast<std::size_t>(meta.u64());
    st.policy_loss = meta.f64();
    st.value_loss = meta.f64();
    st.entropy = meta.f64();
    history.push_back(st);
  }
  if (!meta.at_end()) return false;
  // Parse every agent before committing any: a bad section for agent k must
  // not leave agents 0..k-1 restored under a runner that reports failure.
  std::vector<rl::PpoAgent::PendingState> pending;
  pending.reserve(num_agents());
  for (std::size_t i = 0; i < num_agents(); ++i) {
    const std::vector<std::uint8_t>* agent_bytes =
        ckpt.section("replica-runner/agent." + std::to_string(i));
    if (agent_bytes == nullptr) return false;
    sim::ByteSource agent(*agent_bytes);
    std::optional<rl::PpoAgent::PendingState> state =
        central_->pet()->agent(i).policy().parse_state(agent);
    if (!state.has_value()) return false;
    pending.push_back(std::move(*state));
  }
  for (std::size_t i = 0; i < num_agents(); ++i) {
    central_->pet()->agent(i).policy().commit_state(std::move(pending[i]));
  }
  next_episode_ = next_episode;
  digest_ = digest;
  history_ = std::move(history);
  return true;
}

bool ReplicaRunner::save_checkpoint(const std::string& path) const {
  sim::Checkpoint ckpt;
  save_state(ckpt);
  return ckpt.write_file(path);
}

bool ReplicaRunner::load_checkpoint(const std::string& path,
                                    std::string* error) {
  const std::optional<sim::Checkpoint> ckpt =
      sim::Checkpoint::read_file(path, error);
  if (!ckpt.has_value()) return false;
  if (!load_state(*ckpt)) {
    if (error != nullptr) {
      *error = "checkpoint does not match this scenario/architecture";
    }
    return false;
  }
  return true;
}

ReplicaRunner::RunStats ReplicaRunner::run() {
  RunStats stats;
  // pet-lint: allow(banned-api): wall-clock throughput stats — reported as
  // wall_seconds/replicas_per_sec only, never part of the merge digest
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int32_t e = 0; e < cfg_.episodes; ++e) {
    stats.episodes.push_back(run_episode());
  }
  // pet-lint: allow(banned-api): wall-clock throughput stats (see above)
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  const auto replica_episodes =
      static_cast<double>(cfg_.episodes) * static_cast<double>(cfg_.replicas);
  if (stats.wall_seconds > 0.0) {
    stats.replicas_per_sec = replica_episodes / stats.wall_seconds;
  }
  stats.rollout_digest = digest_;
  return stats;
}

}  // namespace pet::exp
