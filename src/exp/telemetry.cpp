#include "exp/telemetry.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "sim/fs_atomic.hpp"
#include "sim/log.hpp"

namespace pet::exp {

void EventLog::record(std::string kind, std::string detail) {
  events_.push_back(TelemetryEvent{sched_.now().ms(), std::move(kind),
                                   std::move(detail)});
}

std::size_t EventLog::count(const std::string& kind) const {
  std::size_t n = 0;
  for (const auto& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

TelemetryRecorder::TelemetryRecorder(sim::Scheduler& sched,
                                     std::vector<net::SwitchDevice*> switches,
                                     sim::Time period)
    : sched_(sched),
      switches_(std::move(switches)),
      period_(period),
      last_tx_bytes_(switches_.size(), 0),
      last_marked_bytes_(switches_.size(), 0),
      last_sample_(sched.now()) {}

void TelemetryRecorder::start() {
  if (running_) return;
  running_ = true;
  last_sample_ = sched_.now();
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    std::int64_t tx = 0;
    std::int64_t marked = 0;
    for (std::int32_t p = 0; p < switches_[i]->num_ports(); ++p) {
      tx += switches_[i]->port(p).tx_bytes();
      marked += switches_[i]->port(p).tx_marked_bytes();
    }
    last_tx_bytes_[i] = tx;
    last_marked_bytes_[i] = marked;
  }
  ev_ = sched_.schedule_in(period_, [this] { sample_all(); },
                           "telemetry.sample");
}

void TelemetryRecorder::stop() {
  running_ = false;
  if (ev_.valid()) {
    sched_.cancel(ev_);
    ev_ = sim::EventId{};
  }
}

void TelemetryRecorder::sample_all() {
  if (!running_) return;
  const sim::Time now = sched_.now();
  const double window_sec = std::max(1e-12, (now - last_sample_).sec());
  last_sample_ = now;

  for (std::size_t i = 0; i < switches_.size(); ++i) {
    net::SwitchDevice* sw = switches_[i];
    TelemetrySample s;
    s.t_ms = now.ms();
    s.switch_id = sw->id();
    std::int64_t max_q = 0;
    std::int64_t tx = 0;
    std::int64_t marked = 0;
    for (std::int32_t p = 0; p < sw->num_ports(); ++p) {
      max_q = std::max(max_q, sw->port(p).total_queue_bytes());
      tx += sw->port(p).tx_bytes();
      marked += sw->port(p).tx_marked_bytes();
    }
    s.max_queue_kb = static_cast<double>(max_q) / 1024.0;
    s.total_queue_kb = static_cast<double>(sw->buffer_used_bytes()) / 1024.0;
    const double tx_delta = static_cast<double>(tx - last_tx_bytes_[i]);
    const double marked_delta =
        static_cast<double>(marked - last_marked_bytes_[i]);
    last_tx_bytes_[i] = tx;
    last_marked_bytes_[i] = marked;
    s.tx_mbps = tx_delta * 8.0 / window_sec / 1e6;
    s.marked_share = tx_delta > 0.0 ? marked_delta / tx_delta : 0.0;
    s.ecn = sw->ecn_config_summary();
    s.pfc_pauses = sw->pfc_pauses_sent();
    samples_.push_back(s);
  }
  ev_ = sched_.schedule_in(period_, [this] { sample_all(); },
                           "telemetry.sample");
}

std::string TelemetryRecorder::to_csv() const {
  std::string out =
      "t_ms,switch,max_queue_kb,total_queue_kb,tx_mbps,marked_share,"
      "kmin_min_bytes,kmin_max_bytes,kmax_min_bytes,kmax_max_bytes,"
      "pmax_min,pmax_max,ecn_uniform,pfc_pauses\n";
  char line[320];
  for (const auto& s : samples_) {
    std::snprintf(
        line, sizeof line,
        "%.3f,%d,%.3f,%.3f,%.2f,%.4f,%lld,%lld,%lld,%lld,%.3f,%.3f,%d,%lld\n",
        s.t_ms, s.switch_id, s.max_queue_kb, s.total_queue_kb, s.tx_mbps,
        s.marked_share, static_cast<long long>(s.ecn.kmin_min_bytes),
        static_cast<long long>(s.ecn.kmin_max_bytes),
        static_cast<long long>(s.ecn.kmax_min_bytes),
        static_cast<long long>(s.ecn.kmax_max_bytes), s.ecn.pmax_min,
        s.ecn.pmax_max, s.ecn.uniform ? 1 : 0,
        static_cast<long long>(s.pfc_pauses));
    out += line;
  }
  return out;
}

bool TelemetryRecorder::write_csv(const std::string& path) const {
  errno = 0;
  // Atomic tmp+rename: a crash mid-export never leaves a truncated CSV. On
  // failure, surface the file name and errno at WARN so a silently
  // unwritable output directory is diagnosable.
  if (!sim::atomic_write_file(path, to_csv())) {
    PET_LOG_WARN(sched_, "failed to write %s: %s", path.c_str(),
                 errno != 0 ? std::strerror(errno) : "stream error");
    return false;
  }
  return true;
}

}  // namespace pet::exp
