#pragma once
// exp::RunArtifact — the machine-readable output of one bench/experiment
// run. Every bench/* binary emits a schema-versioned BENCH_<name>.json
// carrying a manifest (git sha, seed, mode, scenario, threads), the final
// metrics, per-switch telemetry summaries, guardrail/fault event counts
// and the profiler's section table — so the perf trajectory across PRs can
// be read by tooling instead of scraped from human tables.
//
// No third-party dependencies: serialization rides the small JsonValue
// tree in exp/json.hpp.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/json.hpp"
#include "exp/metrics.hpp"
#include "exp/telemetry.hpp"
#include "net/fabric.hpp"
#include "net/network.hpp"
#include "net/switch.hpp"
#include "net/topology_spec.hpp"
#include "sim/profiler.hpp"

namespace pet::exp {

class RunArtifact {
 public:
  /// Bump on any backwards-incompatible change to the JSON layout.
  static constexpr std::string_view kSchemaVersion = "pet.run-artifact/1";

  /// `name` is the bench/run identity (e.g. "paper_grids"); it
  /// names the default output file BENCH_<name>.json.
  explicit RunArtifact(std::string name);

  // --- manifest --------------------------------------------------------------
  /// Bench execution mode ("quick" / "scaled" / "paper-scale" / "test").
  void set_mode(std::string mode);
  void set_seed(std::uint64_t seed);
  /// Worker threads the run used (default 1: sequential benches and sweep
  /// points; a merged sweep artifact records its --threads).
  void set_threads(std::int32_t threads);
  /// Capture the scenario a run was built from (scheme, workload, load,
  /// topology, phases). Multi-scenario benches record their primary one.
  void set_scenario(const ScenarioConfig& cfg);
  /// Extra manifest member (insertion order preserved). The manifest is
  /// stripped by golden/resume canonicalization, so this is the right home
  /// for execution-history facts — interrupted flags, per-point sweep
  /// status — that must not perturb byte-identity of the payload.
  void set_manifest_extra(std::string key, JsonValue value);

  // --- payload ---------------------------------------------------------------
  /// Flat final metric (insertion order preserved in the JSON).
  void add_metric(std::string key, double value);
  /// String-valued metric — used for values JSON doubles cannot hold
  /// exactly (e.g. a 64-bit rollout digest rendered as hex).
  void add_metric(std::string key, std::string value);
  /// Structured metric subtree (e.g. a sweep's per-point metrics block).
  void add_metric(std::string key, JsonValue value);
  /// Expand a Metrics block under `label.` prefixed keys (overall/mice/
  /// elephant FCT, latency, queue, loss counters).
  void add_metrics(const std::string& label, const Metrics& m);
  /// Per-switch telemetry summary: egress/drop/pause/install counters and
  /// the honest min/max ECN config roll-up.
  void add_switch_summaries(const std::vector<net::SwitchDevice*>& switches);
  /// Per-tier roll-up of the same counters over the fabric's labeled
  /// switch tiers (payload "tiers" section).
  void add_tier_summaries(const net::Fabric& fabric, net::Network& net);
  /// Guardrail/fault event counts grouped by kind.
  void add_event_counts(const EventLog& log);
  /// Attach the profiler's section table and phase spans.
  void set_profiler(const sim::Profiler& profiler);
  /// Record one finished experiment: its scenario becomes the manifest
  /// scenario, and its switch and tier summaries, event counts and
  /// profiler tables the payload. Each call overwrites those sections, so
  /// the last recorded run is the one the artifact details.
  void record_run(Experiment& experiment);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::string default_path() const {
    return "BENCH_" + name_ + ".json";
  }

  [[nodiscard]] JsonValue to_json() const;
  [[nodiscard]] std::string to_json_text() const { return to_json().dump(2); }

  /// Write to `path` (empty = default_path()). Failures are reported on
  /// stderr and via the return value; a bench still exits 0 — artifacts
  /// are telemetry, not the experiment.
  bool write(const std::string& path = "") const;

  /// Shared contract with the bench-smoke validator: parses `text` and
  /// checks the schema version plus the required manifest/metrics/profiler
  /// keys. On failure returns false and explains through `error`.
  static bool validate_text(std::string_view text, std::string* error);

 private:
  std::string name_;
  std::string mode_ = "scaled";
  std::uint64_t seed_ = 0;
  std::int32_t threads_ = 1;
  bool has_scenario_ = false;
  JsonValue scenario_ = JsonValue::object();
  JsonValue manifest_extra_ = JsonValue::object();
  JsonValue metrics_ = JsonValue::object();
  JsonValue switches_ = JsonValue::array();
  JsonValue tiers_ = JsonValue::array();
  JsonValue event_counts_ = JsonValue::object();
  JsonValue profiler_ = JsonValue::object();
};

/// The scenario block of the manifest (scheme, workload, load, seed,
/// topology, phases, incast, flow-size cap). A resumed
/// sweep compares it to tell whether a point artifact belongs to the
/// point's scenario.
[[nodiscard]] JsonValue scenario_json(const ScenarioConfig& cfg);

/// The full topology spec as JSON — the manifest "topology" block (always
/// carries "kind" and the derived "hosts"/"switches" counts plus every
/// kind-specific field).
[[nodiscard]] JsonValue topology_spec_json(const net::TopologySpec& spec);

/// Per-tier switch counter roll-up for a built fabric; shared by
/// add_tier_summaries() and the sweep's per-point metrics.
[[nodiscard]] JsonValue tier_summaries_json(const net::Fabric& fabric,
                                            net::Network& net);

}  // namespace pet::exp
