#pragma once
// Time-series telemetry: periodic per-switch samples (queue depth,
// throughput, marking rate, ECN thresholds) collected into memory and
// exportable as CSV — the raw material for plotting the paper's
// time-series figures or debugging a scenario. EventLog captures the
// discrete side: fault injections and agent health transitions.

#include <cstdint>
#include <string>
#include <vector>

#include "net/switch.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace pet::exp {

/// A discrete, timestamped occurrence worth keeping next to the time
/// series: a fault firing, an agent health transition, a phase boundary.
struct TelemetryEvent {
  double t_ms = 0.0;
  std::string kind;
  std::string detail;
};

class EventLog {
 public:
  explicit EventLog(sim::Scheduler& sched) : sched_(sched) {}

  void record(std::string kind, std::string detail);

  [[nodiscard]] const std::vector<TelemetryEvent>& events() const {
    return events_;
  }
  /// Events whose kind matches exactly.
  [[nodiscard]] std::size_t count(const std::string& kind) const;

 private:
  sim::Scheduler& sched_;
  std::vector<TelemetryEvent> events_;
};

struct TelemetrySample {
  double t_ms = 0.0;
  net::DeviceId switch_id = -1;
  double max_queue_kb = 0.0;       // deepest egress queue
  double total_queue_kb = 0.0;     // buffer in use
  double tx_mbps = 0.0;            // aggregate egress rate over the interval
  double marked_share = 0.0;       // CE-marked share of egress bytes
  /// Installed ECN state rolled up across every port: per-switch min/max
  /// of each threshold plus a uniformity flag, so a config that differs by
  /// port is reported honestly instead of as the port-0 config.
  net::EcnConfigSummary ecn;
  std::int64_t pfc_pauses = 0;     // cumulative
};

class TelemetryRecorder {
 public:
  TelemetryRecorder(sim::Scheduler& sched,
                    std::vector<net::SwitchDevice*> switches,
                    sim::Time period = sim::microseconds(100));

  void start();
  void stop();

  [[nodiscard]] const std::vector<TelemetrySample>& samples() const {
    return samples_;
  }
  [[nodiscard]] std::size_t num_switches() const { return switches_.size(); }

  /// Render all samples as CSV (header + one row per sample).
  [[nodiscard]] std::string to_csv() const;

  /// Write the CSV to a file; failures are logged at WARN with errno and
  /// reported via the return value.
  bool write_csv(const std::string& path) const;

 private:
  void sample_all();

  sim::Scheduler& sched_;
  std::vector<net::SwitchDevice*> switches_;
  sim::Time period_;
  std::vector<TelemetrySample> samples_;
  std::vector<std::int64_t> last_tx_bytes_;
  std::vector<std::int64_t> last_marked_bytes_;
  sim::Time last_sample_;
  sim::EventId ev_;
  bool running_ = false;
};

}  // namespace pet::exp
