// Microbenchmarks: discrete-event engine and AQM primitives
// (google-benchmark).
//
// The scheduler benches capture a 64-byte payload, a packet-sized capture,
// so the numbers reflect a heavy per-event callback, not an empty lambda's;
// BM_SchedulerHopMixRecordFree runs the per-hop events record-free, as the
// ports do. Headline counters (events_per_sec, p99_event_ns) are exported
// into BENCH_micro_sim.json and gated against bench/baselines/ by
// `ctest -L benchgate`.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

#include "micro_common.hpp"

#include "net/queue.hpp"
#include "net/red_ecn.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace {

using namespace pet;

/// Packet-sized capture payload: big enough to overflow std::function's
/// small buffer, inside SmallCallback's inline budget.
struct TxPayload {
  std::uint64_t words[8] = {1, 2, 3, 4, 5, 6, 7, 8};
};
static_assert(sizeof(TxPayload) == 64);

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const std::int64_t batch = state.range(0);
  // One scheduler across iterations: after the first batch its internal
  // storage is warm, so the loop measures schedule+run cost, not container
  // growth (both the old and new event cores get the same warm start).
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  TxPayload payload;
  std::int64_t t = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < batch; ++i) {
      payload.words[0] = static_cast<std::uint64_t>(i);
      sched.schedule_at(sim::nanoseconds(++t), [&sink, payload] {
        sink += payload.words[0];
      });
    }
    sched.run_all();
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t events = sched.executed();
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1'000)->Arg(100'000);

/// Steady-state churn: a warmed scheduler holding a constant backlog while
/// events execute and re-schedule — the shape of a running fabric. Also
/// samples per-1k-event wall times for the gated p99.
void BM_SchedulerSteadyState(benchmark::State& state) {
  constexpr std::int64_t kBacklog = 4096;
  constexpr std::int64_t kBatch = 1000;
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  TxPayload payload;
  std::int64_t t = 0;
  for (std::int64_t i = 0; i < kBacklog; ++i) {
    sched.schedule_at(sim::nanoseconds(++t), [&sink, payload] {
      sink += payload.words[0];
    });
  }
  std::vector<double> batch_ns;
  batch_ns.reserve(4096);
  std::uint64_t events = 0;
  for (auto _ : state) {
    // Refill what this batch will drain, keeping the backlog constant.
    for (std::int64_t i = 0; i < kBatch; ++i) {
      sched.schedule_at(sim::nanoseconds(++t), [&sink, payload] {
        sink += payload.words[0];
      });
    }
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t ran = sched.run_until(sim::nanoseconds(t - kBacklog));
    const auto t1 = std::chrono::steady_clock::now();
    events += ran;
    batch_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(ran > 0 ? ran : 1));
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  if (!batch_ns.empty()) {
    std::sort(batch_ns.begin(), batch_ns.end());
    state.counters["p99_event_ns"] =
        batch_ns[std::min(batch_ns.size() - 1, batch_ns.size() * 99 / 100)];
  }
}
BENCHMARK(BM_SchedulerSteadyState);

void BM_SchedulerCancel(benchmark::State& state) {
  std::uint64_t cancelled = 0;
  for (auto _ : state) {
    sim::Scheduler sched;
    std::vector<sim::EventId> ids;
    ids.reserve(1000);
    TxPayload payload;
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(sched.schedule_at(sim::nanoseconds(i), [payload] {
        benchmark::DoNotOptimize(payload.words[0]);
      }));
    }
    for (const auto id : ids) cancelled += sched.cancel(id) ? 1 : 0;
    sched.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(cancelled), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SchedulerCancel);

/// The pending-event mix of a running leaf-spine DCQCN fabric (WebSearch,
/// load 0.6): arrivals on a 1 us propagation lane, transmit completions on
/// the heap 51-838 ns out, heap timers cancelled and re-armed as transmits
/// complete, and DCQCN alpha/increase timers on 55 us and 300 us lanes,
/// with a CNP re-arming one sender's pair every 64th transmit. Every event
/// re-schedules its own family, so the mix holds steady.
///
/// With `kRecordFree`, arrivals and transmit completions are record-free
/// lane items naming only this object (Scheduler::post_on), the way ports
/// post them: completions alternate between a 51 ns control-frame lane and
/// an 838 ns full-frame lane (64 and 1048 bytes at 10 Gb/s), the ends of
/// the heap variant's gap range. The mode is a template parameter, so the
/// heap variant compiles to the mix without a run-time branch.
template <bool kRecordFree>
class HopMix {
 public:
  static constexpr int kProp = 76;
  static constexpr int kTx = 42;
  static constexpr int kRearmed = 11;
  static constexpr int kSenders = 105;  // x2 timers = 210 lane events

  explicit HopMix(sim::Scheduler& sched)
      : sched_(sched),
        prop_(sched.lane(sim::microseconds(1))),
        alpha_(sched.lane(sim::microseconds(55))),
        increase_(sched.lane(sim::microseconds(300))) {
    if constexpr (kRecordFree) {
      tx_lanes_ = {sched.lane(sim::Time(51'200)),
                   sched.lane(sim::nanoseconds(838))};
    }
    sim::Rng rng(16);
    const auto gap_ns = [&rng](std::int64_t lo, std::int64_t hi) {
      return sim::nanoseconds(
          lo + static_cast<std::int64_t>(
                   rng.uniform_int(static_cast<std::uint64_t>(hi - lo + 1))));
    };
    for (auto& gap : tx_gaps_) gap = gap_ns(51, 838);
    for (auto& gap : rearm_gaps_) gap = gap_ns(100, 899);
    // Seed each lane family spread over its period, as a running fabric
    // holds it; a seed moves onto its lane when it first fires.
    const auto spread = [&](int n, sim::Time period, auto arm) {
      for (int i = 0; i < n; ++i) {
        sched_.schedule_at(sim::Time(period.ps() * i / n),
                           [arm, i] { arm(i); });
      }
    };
    spread(kProp, sim::microseconds(1), [this](int) { arm_prop(); });
    spread(kSenders, sim::microseconds(55), [this](int i) { arm_alpha(i); });
    spread(kSenders, sim::microseconds(300),
           [this](int i) { arm_increase(i); });
    if constexpr (kRecordFree) {
      spread(kTx, sim::nanoseconds(838), [this](int) { arm_tx(); });
    } else {
      for (int i = 0; i < kTx; ++i) arm_tx();
    }
    for (int i = 0; i < kRearmed; ++i) arm_rearmed(i);
  }

  [[nodiscard]] std::uint64_t sink() const { return sink_; }

 private:
  void arm_prop() {
    if constexpr (kRecordFree) {
      sched_.template post_on<&HopMix::on_prop>(prop_, this);
    } else {
      sched_.schedule_on(prop_, [this, p = payload_] {
        sink_ += p.words[0];
        arm_prop();
      });
    }
  }

  void on_prop() {
    sink_ += payload_.words[0];
    arm_prop();
  }

  void arm_tx() {
    if constexpr (kRecordFree) {
      sched_.template post_on<&HopMix::on_tx>(tx_lanes_[next_tx_++ % 2],
                                              this);
    } else {
      sched_.schedule_in(tx_gaps_[next_tx_++ % tx_gaps_.size()],
                         [this, p = payload_] {
                           sink_ += p.words[1];
                           if (++tx_done_ % 4 == 0) rearm_next();
                           if (tx_done_ % 64 == 0) cnp_next();
                           arm_tx();
                         });
    }
  }

  void on_tx() {
    sink_ += payload_.words[1];
    if (++tx_done_ % 4 == 0) rearm_next();
    if (tx_done_ % 64 == 0) cnp_next();
    arm_tx();
  }

  void arm_rearmed(int i) {
    sched_.cancel(rearmed_[static_cast<std::size_t>(i)]);
    rearmed_[static_cast<std::size_t>(i)] = sched_.schedule_in(
        rearm_gaps_[next_rearm_++ % rearm_gaps_.size()],
        [this, i] { arm_rearmed(i); });
  }

  void rearm_next() { arm_rearmed(static_cast<int>(tx_done_ / 4 % kRearmed)); }

  void arm_alpha(int i) {
    sched_.cancel(alpha_ids_[static_cast<std::size_t>(i)]);
    alpha_ids_[static_cast<std::size_t>(i)] =
        sched_.schedule_on(alpha_, [this, i] { arm_alpha(i); });
  }

  void arm_increase(int i) {
    sched_.cancel(increase_ids_[static_cast<std::size_t>(i)]);
    increase_ids_[static_cast<std::size_t>(i)] =
        sched_.schedule_on(increase_, [this, i] { arm_increase(i); });
  }

  void cnp_next() {
    const int i = static_cast<int>(tx_done_ / 64 % kSenders);
    arm_alpha(i);
    arm_increase(i);
  }

  sim::Scheduler& sched_;
  sim::LaneId prop_;
  sim::LaneId alpha_;
  sim::LaneId increase_;
  TxPayload payload_;
  std::array<sim::Time, 64> tx_gaps_{};
  std::array<sim::Time, 64> rearm_gaps_{};
  std::array<sim::EventId, kRearmed> rearmed_{};
  std::array<sim::EventId, kSenders> alpha_ids_{};
  std::array<sim::EventId, kSenders> increase_ids_{};
  std::size_t next_tx_ = 0;
  std::size_t next_rearm_ = 0;
  std::uint64_t tx_done_ = 0;
  std::uint64_t sink_ = 0;
  std::vector<sim::LaneId> tx_lanes_;  // record-free: control, full frame
};

template <bool kRecordFree>
void run_hop_mix(benchmark::State& state) {
  // About 1000 events run per 6 us slice of this mix.
  constexpr std::int64_t kSliceNs = 6'000;
  sim::Scheduler sched;
  HopMix<kRecordFree> mix(sched);
  sched.run_until(sim::microseconds(600));  // seeds on their lanes; warm
  std::vector<double> slice_ns;
  slice_ns.reserve(4096);
  std::uint64_t events = 0;
  for (auto _ : state) {
    const sim::Time until = sched.now() + sim::nanoseconds(kSliceNs);
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t ran = sched.run_until(until);
    const auto t1 = std::chrono::steady_clock::now();
    events += ran;
    slice_ns.push_back(
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(ran > 0 ? ran : 1));
  }
  benchmark::DoNotOptimize(mix.sink());
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  if (!slice_ns.empty()) {
    std::sort(slice_ns.begin(), slice_ns.end());
    state.counters["p99_event_ns"] =
        slice_ns[std::min(slice_ns.size() - 1, slice_ns.size() * 99 / 100)];
  }
}

void BM_SchedulerHopMix(benchmark::State& state) { run_hop_mix<false>(state); }
BENCHMARK(BM_SchedulerHopMix);

/// The same mix with the per-hop events record-free, as the ports run them.
void BM_SchedulerHopMixRecordFree(benchmark::State& state) {
  run_hop_mix<true>(state);
}
BENCHMARK(BM_SchedulerHopMixRecordFree);

void BM_RedMarking(benchmark::State& state) {
  net::RedEcnMarker marker(1);
  marker.set_config({.kmin_bytes = 5'000, .kmax_bytes = 200'000, .pmax = 0.2});
  std::int64_t q = 0;
  std::int64_t marks = 0;
  for (auto _ : state) {
    q = (q + 997) % 250'000;
    marks += marker.should_mark(q);
  }
  benchmark::DoNotOptimize(marks);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RedMarking);

void BM_FifoQueuePushPop(benchmark::State& state) {
  net::FifoQueue queue;
  net::Packet pkt;
  pkt.size_bytes = 1000;
  // Hold a realistic standing occupancy so the ring wraps.
  for (int i = 0; i < 37; ++i) {
    queue.push(net::QueueEntry{pkt, 0}, sim::Time::zero());
  }
  net::QueueEntry head;
  for (auto _ : state) {
    queue.push(net::QueueEntry{pkt, 0}, sim::Time::zero());
    benchmark::DoNotOptimize(queue.pop(head, sim::Time::zero()));
    benchmark::DoNotOptimize(head);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["packets_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FifoQueuePushPop);

void BM_Rng(benchmark::State& state) {
  sim::Rng rng(7);
  double acc = 0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Rng);

void BM_RunningStats(benchmark::State& state) {
  sim::RunningStats stats;
  double x = 0.0;
  for (auto _ : state) {
    stats.add(x);
    x += 0.1;
  }
  benchmark::DoNotOptimize(stats.mean());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RunningStats);

}  // namespace

PET_MICRO_BENCH_MAIN("micro_sim")
