#pragma once
// Agent guardrails: the health state machine wrapped around every PetAgent.
//
//   Healthy ──(stale telemetry)──► Degraded ──(fresh telemetry)──► Healthy
//   Healthy/Degraded/Probation ──(hard fault)──► Quarantined
//   Quarantined ──(quarantine_ticks elapsed)──► Probation
//   Probation ──(probation_ticks clean)──► Healthy
//
// Hard faults are the failure modes a learned controller must never push
// onto a production switch: NaN/Inf in the policy outputs or state vector,
// NaN/Inf or exploding losses in a PPO update, and entropy collapse (a
// deterministic policy that can no longer learn its way out of a bad
// configuration). On a hard fault the agent's switch falls back to static
// DCQCN-style ECN thresholds, training halts, and the weights roll back to
// the last-known-good snapshot.

#include <cstdint>
#include <string>

#include "net/red_ecn.hpp"
#include "sim/time.hpp"

namespace pet::core {

enum class AgentHealth { kHealthy, kDegraded, kQuarantined, kProbation };

[[nodiscard]] constexpr const char* health_name(AgentHealth h) {
  switch (h) {
    case AgentHealth::kHealthy: return "healthy";
    case AgentHealth::kDegraded: return "degraded";
    case AgentHealth::kQuarantined: return "quarantined";
    case AgentHealth::kProbation: return "probation";
  }
  return "?";
}

struct GuardrailConfig {
  // Hard-fault thresholds on PPO update statistics (NaN/Inf always trips).
  double max_abs_policy_loss = 1e3;
  double max_value_loss = 1e6;
  /// Entropy collapse floor; checked only after `entropy_grace_updates`
  /// updates so a cold-started policy is not punished for early determinism.
  double min_entropy = 1e-4;
  std::int32_t entropy_grace_updates = 10;

  /// Consecutive monitoring slots with zero packets observed before the
  /// agent is flagged Degraded (telemetry considered stale). 0 disables.
  std::int32_t stale_telemetry_slots = 64;
  /// Consecutive slots with live telemetry before Degraded clears.
  std::int32_t degraded_recovery_slots = 4;

  /// Ticks spent Quarantined (static fallback, no training) after a hard
  /// fault before the agent re-enters service on probation.
  std::int32_t quarantine_ticks = 8;
  /// Clean probation ticks before the agent is Healthy again.
  std::int32_t probation_ticks = 16;
  /// Exploration rate pinned while on probation (act conservatively).
  double probation_exploration = 0.0;

  /// Take a last-known-good weight snapshot every this many finite,
  /// in-bounds PPO updates (<= 0 keeps only the initial snapshot).
  std::int64_t checkpoint_interval_updates = 4;

  /// Static configuration installed while Quarantined: the DCQCN-style
  /// thresholds a switch would run without a learned tuner (paper SECN1).
  net::RedEcnConfig fallback_ecn{
      .kmin_bytes = 5 * 1024, .kmax_bytes = 200 * 1024, .pmax = 0.2};
};

/// One health-state transition, for telemetry and postmortems.
struct HealthTransition {
  sim::Time at;
  std::int32_t switch_id = -1;
  AgentHealth from = AgentHealth::kHealthy;
  AgentHealth to = AgentHealth::kHealthy;
  std::string reason;
};

}  // namespace pet::core
