#pragma once
// ReplicaRunner: data-parallel IPPO training over N independent simulation
// replicas.
//
// Each replica owns a complete simulation stack — its own sim::Scheduler,
// network, transport, workload generators and PET agents — so replicas
// share no mutable state and can run on any number of worker threads.
// Replica r of episode e seeds every stream from the deterministic chain
// Stream(seed).child("replica").child(r).child(e), so the experience each
// replica collects depends only on (seed, r, e) — never on which thread ran
// it or in what order replicas finished.
//
// Per episode:
//   1. the central per-switch policies are copied into every replica;
//   2. replicas simulate one episode with local PPO updates disabled,
//      accumulating on-policy rollouts per agent;
//   3. the harvested rollouts are merged in replica order — per agent — into
//      one PpoAgent::update_merged() call on the central policy (GAE never
//      crosses a replica boundary).
//
// The merge consumes slices in replica order, so the updated weights are
// bitwise identical for a given (seed, replicas) whatever the thread count.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "sim/checkpoint.hpp"
#include "sim/thread_annotations.hpp"

namespace pet::exp {

struct ReplicaRunnerConfig {
  /// Independent replicas per episode.
  std::int32_t replicas = 4;
  /// Worker threads (0 = hardware concurrency, capped at `replicas`).
  std::int32_t threads = 0;
  /// Training episodes (central update rounds). Each replica simulates the
  /// scenario's pretrain window per episode.
  std::int32_t episodes = 1;
};

class ReplicaRunner {
 public:
  struct EpisodeStats {
    std::int32_t episode = 0;
    /// Mean reward over every transition harvested this episode.
    double mean_reward = 0.0;
    /// Merged transitions across all replicas and agents.
    std::size_t transitions = 0;
    /// Update statistics averaged over agents that had experience.
    double policy_loss = 0.0;
    double value_loss = 0.0;
    double entropy = 0.0;
  };

  struct RunStats {
    std::vector<EpisodeStats> episodes;
    double wall_seconds = 0.0;
    /// Replica-episodes simulated per wall-clock second.
    double replicas_per_sec = 0.0;
    /// FNV-1a digest over the merged experience (replica order): equal
    /// digests across runs prove thread-count independence bitwise.
    std::uint64_t rollout_digest = 0;
  };

  /// Requires a valid scenario (ScenarioConfig::validate()) with a PET
  /// scheme (kPet / kPetAblation); throws std::invalid_argument otherwise or
  /// when cfg.replicas < 1.
  ReplicaRunner(const ScenarioConfig& scenario, ReplicaRunnerConfig cfg);
  ~ReplicaRunner();

  ReplicaRunner(ReplicaRunner&&) noexcept = default;
  ReplicaRunner& operator=(ReplicaRunner&&) noexcept = default;

  /// Run all configured episodes; cumulative across calls.
  RunStats run();
  /// Run exactly one episode (central update round).
  EpisodeStats run_episode();

  [[nodiscard]] std::size_t num_agents() const;
  /// Flat digest-friendly concatenation of every agent's central
  /// (post-merge) weights.
  [[nodiscard]] std::vector<double> all_weights() const;
  [[nodiscard]] const ReplicaRunnerConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t last_digest() const { return digest_; }
  /// Next episode index (== episodes completed so far).
  [[nodiscard]] std::int32_t next_episode() const { return next_episode_; }
  /// Per-episode statistics accumulated across run()/run_episode() calls
  /// (survives checkpoint/restore).
  [[nodiscard]] const std::vector<EpisodeStats>& history() const {
    return history_;
  }

  // --- checkpoint / resume --------------------------------------------------
  // Episodes are the checkpoint boundary: episode e is a pure function of
  // (central weights at its start, seed, r, e), so a runner restored from a
  // checkpoint taken after episode e continues with a bitwise-identical
  // trajectory — same merged updates, same chained rollout digest — as the
  // uninterrupted run. Mid-episode state (live schedulers) is never saved.

  /// Write the runner's sections ("replica-runner/meta", the scenario as
  /// "replica-runner/scenario" JSON, one per agent policy) into `ckpt`.
  void save_state(sim::Checkpoint& ckpt) const;
  /// Restore from checkpoint sections; false (runner untouched) when the
  /// checkpoint's scenario or fingerprint differs from this runner's, or on
  /// corrupted sections. Every section is parsed before anything commits.
  [[nodiscard]] bool load_state(const sim::Checkpoint& ckpt);

  /// Durable (atomic tmp + fsync + rename) checkpoint file.
  [[nodiscard]] bool save_checkpoint(const std::string& path) const;
  /// Load + validate a checkpoint file; false on any error (`error`
  /// receives the reason when non-null).
  [[nodiscard]] bool load_checkpoint(const std::string& path,
                                     std::string* error = nullptr);

 private:
  struct ReplicaResult;
  /// Simulate replica `r` of episode `e` starting from `weights` (one
  /// vector per agent). Runs on a worker thread; touches no shared state.
  [[nodiscard]] ReplicaResult run_replica(
      std::int32_t r, std::int32_t e,
      const std::vector<std::vector<double>>& weights) const;

  // Workers touch only their ReplicaResult slot and the weights snapshot
  // passed by const ref; everything below stays on the coordinator thread.
  ScenarioConfig scenario_ PET_THREAD_CONFINED(coordinator);
  ReplicaRunnerConfig cfg_ PET_THREAD_CONFINED(coordinator);
  /// Central model holder: constructed once, never simulated; its PET
  /// agents' policies are the merge targets.
  std::unique_ptr<Experiment> central_ PET_THREAD_CONFINED(coordinator);
  std::int32_t next_episode_ PET_THREAD_CONFINED(coordinator) = 0;
  std::uint64_t digest_ PET_THREAD_CONFINED(coordinator) = 0;
  std::vector<EpisodeStats> history_ PET_THREAD_CONFINED(coordinator);
};

}  // namespace pet::exp
