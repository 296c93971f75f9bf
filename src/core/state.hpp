#pragma once
// State construction (paper Section 4.2.1): the six-factor tuple
// s_t = (qlen, txRate, txRate^(m), ECN^(c), D_incast, R_flow), normalized
// and stacked over the last k monitoring slots (Eq. (3)).
//
// ECN^(c) expands to three normalized scalars (Kmin, Kmax, Pmax), so a full
// PET slot is 8 features; the ACC ablation drops D_incast and R_flow (6).

#include <cstdint>
#include <deque>
#include <vector>

#include "core/action.hpp"
#include "core/ncm.hpp"
#include "net/red_ecn.hpp"

namespace pet::core {

struct StateConfig {
  std::int32_t k_history = 3;         // slots per inference (Eq. (3))
  double qlen_norm_bytes = 2e6;       // buffer size for qlen normalization
  double incast_norm = 32.0;          // fan-in normalization cap
  bool include_incast = true;         // ablation knobs (Fig. 9)
  bool include_flow_ratio = true;

  /// What the NCM must track for this state: sender sets only for
  /// D_incast, the flow table only for R_flow. Packet counts are no state
  /// factor (PET's stale-telemetry guardrail reads them).
  [[nodiscard]] NcmTracking ncm_tracking() const {
    return {.packets = false,
            .senders = include_incast,
            .flows = include_flow_ratio};
  }
};

class StateBuilder {
 public:
  StateBuilder(const StateConfig& cfg, const ActionSpace& space)
      : cfg_(cfg), space_(space) {}

  /// Features per slot under the configured factor set.
  [[nodiscard]] std::int32_t slot_features() const {
    return 6 + (cfg_.include_incast ? 1 : 0) +
           (cfg_.include_flow_ratio ? 1 : 0);
  }
  [[nodiscard]] std::int32_t state_size() const {
    return slot_features() * cfg_.k_history;
  }

  /// Append a slot observation; oldest slots roll off beyond k_history.
  void push_slot(const NcmSnapshot& snap, const net::RedEcnConfig& current);

  /// The stacked state s'_t = {s_{t-k+1}, ..., s_t}; zero-padded until k
  /// slots have been observed.
  [[nodiscard]] std::vector<double> state() const;

  void reset() { history_.clear(); }
  [[nodiscard]] std::size_t slots_observed() const { return history_.size(); }

 private:
  StateConfig cfg_;
  ActionSpace space_;
  std::deque<std::vector<double>> history_;
};

}  // namespace pet::core
