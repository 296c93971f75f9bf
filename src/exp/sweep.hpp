#pragma once
// exp::SweepRunner — crash-safe orchestration of a declarative evaluation
// grid of Experiment runs.
//
// A sweep expands a SweepGrid (scheme × load × seed axes over a base
// scenario) into independent points, schedules them over a worker pool and
// makes the whole run crash-safe:
//
//   * every point writes a durable per-point run-artifact
//     (<out_dir>/point_<id>.json, atomic tmp+fsync+rename) — a valid
//     artifact recorded for the point's scenario IS the completion marker
//     and the sweep's only resume state, so a re-run with resume=true skips
//     finished points and re-runs the rest from the start;
//   * each point runs once, on its pool worker's thread. A point is a pure
//     function of its scenario, so running it again in-process would only
//     replay its failure: a point that throws or cannot write its artifact
//     is recorded as failed while the rest of the grid completes, and a
//     resumed sweep runs it again;
//   * the merged sweep artifact (pet.run-artifact/1) nests every point's
//     metrics under its id and records per-point execution status
//     (ok/failed/stopped) in the manifest — the manifest is stripped by
//     golden canonicalization, so an interrupted-and-resumed sweep
//     byte-matches an uninterrupted one.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/scheme.hpp"
#include "sim/thread_annotations.hpp"

namespace pet::exp {

/// One expanded grid point: a self-contained scenario plus its identity
/// within the sweep.
struct SweepPoint {
  std::int32_t index = 0;
  /// Stable id ("<scheme>_load<g>_seed<n>") naming the point's artifact
  /// file.
  std::string id;
  ScenarioConfig cfg;
};

/// Declarative grid: the cartesian product of the axes over `base`, whose
/// fabric every point shares. Axes left empty inherit the base scenario's
/// value (a single point on that axis).
struct SweepGrid {
  std::string name = "sweep";
  ScenarioConfig base{};
  std::vector<Scheme> schemes;
  std::vector<double> loads;
  std::vector<std::uint64_t> seeds;

  [[nodiscard]] std::vector<SweepPoint> expand() const;
};

struct SweepRunnerConfig {
  /// Directory for per-point artifacts and the merged sweep artifact
  /// (created if missing).
  std::string out_dir = ".";
  /// Concurrent points (0 = the CPUs this process may run on, capped at
  /// grid size).
  std::int32_t threads = 0;
  /// Skip points whose artifact validates and records the point's scenario.
  bool resume = false;

  /// Fault injection for crash-safety tests: terminate the process
  /// (std::_Exit) after this many durable point-artifact writes; 0
  /// disables.
  std::int32_t crash_after_writes = 0;
};

class SweepRunner {
 public:
  struct PointStatus {
    std::string id;
    /// "ok" | "failed" | "stopped".
    std::string status = "ok";
    /// Runs started by THIS sweep: 1, or 0 when the artifact was reused
    /// from a previous sweep or the sweep stopped before the point began.
    std::int32_t attempts = 0;
    bool completed = false;
  };

  struct Result {
    std::vector<PointStatus> points;
    std::int32_t completed = 0;
    std::int32_t failed = 0;
    /// Path of the merged sweep artifact; empty when it could not be
    /// written.
    std::string artifact_path;
    [[nodiscard]] bool all_completed() const {
      return completed == static_cast<std::int32_t>(points.size());
    }
  };

  SweepRunner(SweepGrid grid, SweepRunnerConfig cfg);

  /// Run (or resume) the whole grid and write the merged artifact. Throws
  /// std::invalid_argument if an expanded point fails
  /// ScenarioConfig::validate() or shares another point's id (both name
  /// the point), or if out_dir cannot be created or is not a directory
  /// (named in the message); nothing has run or been written then.
  [[nodiscard]] Result run();

  /// Cooperative external cancellation (e.g. from a signal handler): running
  /// points stop at their next 1 ms chunk and no further point starts;
  /// every durable artifact written so far remains valid for resume.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  /// File naming scheme shared with tests and the CLI.
  [[nodiscard]] std::string point_artifact_path(const SweepPoint& p) const;
  [[nodiscard]] std::string merged_artifact_path() const;

 private:
  /// Resume check, then one run of `point` on the calling thread.
  [[nodiscard]] PointStatus run_point(const SweepPoint& point);
  /// Count a durable write and honor crash_after_writes fault injection.
  void note_durable_write();
  /// Sets result.artifact_path only when the write succeeds. `threads` is
  /// the worker count the sweep ran on.
  void write_merged_artifact(Result& result, std::int32_t threads) const;

  SweepGrid grid_ PET_READ_SHARED;
  SweepRunnerConfig cfg_ PET_READ_SHARED;
  std::vector<SweepPoint> points_ PET_READ_SHARED;  // filled before the pool
  std::atomic<bool> stop_{false};
  std::atomic<std::int32_t> durable_writes_{0};
};

}  // namespace pet::exp
