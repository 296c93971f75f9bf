#pragma once
// exp::SweepRunner — fault-tolerant orchestration of a declarative
// experiment grid on top of ReplicaRunner / Experiment.
//
// A sweep expands a SweepGrid (scheme × load × seed axes over a base
// scenario) into independent points, schedules them over a worker pool and
// makes the whole run crash-safe:
//
//   * every point writes a durable per-point run-artifact
//     (<out_dir>/point_<id>.json, atomic tmp+fsync+rename) — a valid
//     artifact IS the completion marker, so a re-run with resume=true
//     skips finished points;
//   * training points (PET schemes with train_episodes > 0) checkpoint the
//     ReplicaRunner every checkpoint_every episodes to
//     <out_dir>/point_<id>.ckpt; a resumed or retried attempt reloads the
//     latest checkpoint and continues bitwise-identically (episodes are
//     pure functions of weights-at-boundary and the seed tree);
//   * each attempt runs under a watchdog deadline: a point that exceeds it
//     is cooperatively cancelled, given a grace period, then abandoned and
//     retried with capped exponential backoff and deterministic seeded
//     jitter; a point that exhausts its retries is quarantined while the
//     rest of the grid completes;
//   * the merged sweep artifact (pet.run-artifact/1) nests every point's
//     metrics under its id and records per-point execution status
//     (ok/resumed/retried/quarantined) in the manifest — the manifest is
//     stripped by golden canonicalization, so an interrupted-and-resumed
//     sweep byte-matches an uninterrupted one.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/json.hpp"
#include "exp/scheme.hpp"
#include "net/topology_spec.hpp"
#include "sim/thread_annotations.hpp"

namespace pet::exp {

/// One expanded grid point: a self-contained scenario plus its identity
/// within the sweep.
struct SweepPoint {
  std::int32_t index = 0;
  /// Stable id ("<scheme>_load<g>_seed<n>", prefixed "<topology>_" when the
  /// grid sweeps topologies) naming the point's artifact and checkpoint
  /// files.
  std::string id;
  ScenarioConfig cfg;
  /// Training points run ReplicaRunner episodes; eval points run the
  /// scenario timeline once.
  bool training = false;
};

/// One topology axis value: the name keys the point id (keep it short and
/// filename-safe, e.g. "ft8" or "interdc").
struct NamedTopologySpec {
  std::string name;
  net::TopologySpec spec;
};

/// Declarative grid: the cartesian product of the axes over `base`.
/// Axes left empty inherit the base scenario's value (a single point on
/// that axis; an empty topology axis also keeps the historical un-prefixed
/// point ids).
struct SweepGrid {
  std::string name = "sweep";
  ScenarioConfig base{};
  std::vector<NamedTopologySpec> topologies;
  std::vector<Scheme> schemes;
  std::vector<double> loads;
  std::vector<std::uint64_t> seeds;

  [[nodiscard]] std::vector<SweepPoint> expand(
      std::int32_t train_episodes) const;
};

struct SweepRunnerConfig {
  /// Directory for per-point artifacts, checkpoints and the merged sweep
  /// artifact (created if missing).
  std::string out_dir = ".";
  /// Concurrent points (0 = hardware concurrency, capped at grid size).
  std::int32_t threads = 0;
  /// Skip points whose artifact already validates; resume partial training
  /// points from their latest checkpoint.
  bool resume = false;

  /// ReplicaRunner episodes for training points (0 = every point is a
  /// plain eval run).
  std::int32_t train_episodes = 0;
  /// Replicas per training episode.
  std::int32_t replicas = 2;
  /// Checkpoint cadence in episodes (0 disables checkpointing).
  std::int32_t checkpoint_every = 1;

  /// Wall-clock deadline per attempt; 0 disables the watchdog.
  double watchdog_seconds = 0.0;
  /// Extra wall-clock granted after cooperative cancellation before the
  /// attempt is abandoned.
  double grace_seconds = 2.0;
  /// Retries after the first failed attempt before quarantine.
  std::int32_t max_retries = 2;
  /// Exponential backoff between retries: min(cap, base * 2^attempt)
  /// scaled by deterministic jitter in [0.5, 1.0).
  double backoff_base_seconds = 0.5;
  double backoff_cap_seconds = 30.0;

  /// Fault injection for crash-safety tests: terminate the process
  /// (std::_Exit) after this many durable writes (checkpoints + point
  /// artifacts); 0 disables.
  std::int32_t crash_after_writes = 0;
  /// Fault injection for watchdog tests: called at the start of every
  /// attempt on the worker thread (point, attempt index). May block (to
  /// simulate a hang) or throw (to simulate a crash-level failure).
  std::function<void(const SweepPoint&, std::int32_t)> attempt_hook;
};

class SweepRunner {
 public:
  struct PointStatus {
    std::string id;
    /// "ok" | "resumed" | "retried" | "quarantined".
    std::string status = "ok";
    /// Attempts executed by THIS run (0 = artifact reused from a previous
    /// run).
    std::int32_t attempts = 0;
    /// Episode the first executing attempt continued from (training points
    /// restored from a checkpoint; 0 = started fresh).
    std::int32_t resumed_from_episode = 0;
    bool completed = false;
  };

  struct Result {
    std::vector<PointStatus> points;
    std::int32_t completed = 0;
    std::int32_t quarantined = 0;
    /// Path of the merged sweep artifact.
    std::string artifact_path;
    [[nodiscard]] bool all_completed() const { return quarantined == 0; }
  };

  SweepRunner(SweepGrid grid, SweepRunnerConfig cfg);

  /// Run (or resume) the whole grid and write the merged artifact. Throws
  /// std::invalid_argument, naming the point, if any expanded point fails
  /// ScenarioConfig::validate(); nothing has run or been written then.
  [[nodiscard]] Result run();

  /// Cooperative external cancellation (e.g. from a signal handler): the
  /// sweep stops scheduling new points and cancels running attempts; every
  /// durable artifact written so far remains valid for resume.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  [[nodiscard]] const SweepGrid& grid() const { return grid_; }
  [[nodiscard]] const SweepRunnerConfig& config() const { return cfg_; }

  /// File naming scheme shared with tests and the CLI.
  [[nodiscard]] std::string point_artifact_path(const SweepPoint& p) const;
  [[nodiscard]] std::string point_checkpoint_path(const SweepPoint& p) const;
  [[nodiscard]] std::string merged_artifact_path() const;

 private:
  struct AttemptOutcome {
    bool ok = false;
    bool resumed = false;
    std::int32_t resumed_from_episode = 0;
    std::string error;
  };

  /// Execute one attempt of `point` on the calling thread, polling
  /// `cancel`. Writes the point artifact on success. `allow_resume` lets
  /// training attempts continue from an on-disk checkpoint (true when the
  /// sweep resumes or the attempt is a retry).
  [[nodiscard]] AttemptOutcome run_attempt(const SweepPoint& point,
                                           const std::atomic<bool>& cancel,
                                           bool allow_resume);
  [[nodiscard]] AttemptOutcome run_training_attempt(
      const SweepPoint& point, const std::atomic<bool>& cancel,
      bool allow_resume);
  [[nodiscard]] AttemptOutcome run_eval_attempt(
      const SweepPoint& point, const std::atomic<bool>& cancel);
  /// Full per-point supervision: resume check, attempt/watchdog/retry loop.
  [[nodiscard]] PointStatus run_point(const SweepPoint& point);
  /// Count a durable write and honor crash_after_writes fault injection.
  void note_durable_write();
  [[nodiscard]] bool write_point_artifact(const SweepPoint& point,
                                          const JsonValue& metrics);
  void write_merged_artifact(Result& result) const;

  SweepGrid grid_ PET_READ_SHARED;
  SweepRunnerConfig cfg_ PET_READ_SHARED;
  std::vector<SweepPoint> points_ PET_READ_SHARED;  // filled before the pool
  std::atomic<bool> stop_{false};
  std::atomic<std::int32_t> durable_writes_{0};
  /// Watchdog-abandoned attempt threads; joined at the end of run() once
  /// they observe cancellation, so they never outlive the runner.
  std::mutex abandoned_mutex_;
  std::vector<std::thread> abandoned_ PET_GUARDED_BY(abandoned_mutex_);
};

}  // namespace pet::exp
