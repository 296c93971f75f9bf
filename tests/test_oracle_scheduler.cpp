// Differential oracle: sim::Scheduler (4-ary heap plus constant-delay FIFO
// lanes holding record-backed and record-free items, tombstone
// cancellation) vs the testkit's sorted-vector model, driven by generated
// schedule/lane-schedule/lane-post/cancel/run interleavings. Execution
// order, cancel results, now() and pending() must agree at every step. The
// model knows nothing of lanes or records: it sees each lane event at its
// absolute time, so any merge that breaks the (time, seq) order shows.

#include <gtest/gtest.h>

#include <deque>
#include <tuple>
#include <vector>

#include "sim/scheduler.hpp"
#include "testkit/oracles.hpp"
#include "testkit/property.hpp"

namespace pet::testkit {
namespace {

// One op: (selector, operand, delay_ps). selector % 8 decides the action —
// weighted toward scheduling so runs have events to execute.
using Op = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

// Lane delays: 0 plus values the offset generator below draws half the
// time, so schedule_at offsets, run-forward steps and lane delays land on
// shared picoseconds, and ties between heap events, record-backed lane
// events and record-free lane items are common.
const std::vector<std::int64_t> kLaneDelaysPs = {0, 1'000, 3'000, 20'000};

[[nodiscard]] Gen<std::int64_t> offsets_ps(std::int64_t hi) {
  return frequency<std::int64_t>(
      {{1, element_of(kLaneDelaysPs)}, {1, integers(0, hi)}});
}

[[nodiscard]] Gen<std::vector<Op>> op_sequences() {
  return vector_of(
      tuple_of(integers(0, 7), integers(0, 1 << 20), offsets_ps(200'000)), 1,
      80);
}

/// Target of a record-free item: logs its schedule index when it runs.
struct Posted {
  std::size_t k;
  std::vector<std::size_t>* order;
  void run() { order->push_back(k); }
};

/// Post a record-free item for schedule index `k` on `lane`; `posted` keeps
/// the target alive (and at a stable address) until it runs.
void post_free(sim::Scheduler& real, sim::LaneId lane, std::size_t k,
               std::vector<std::size_t>& order, std::deque<Posted>& posted) {
  real.post_on<&Posted::run>(lane, &posted.emplace_back(Posted{k, &order}));
}

/// One lane per kLaneDelaysPs entry, in that order.
[[nodiscard]] std::vector<sim::LaneId> make_lanes(sim::Scheduler& sched) {
  std::vector<sim::LaneId> lanes;
  for (const std::int64_t d : kLaneDelaysPs) {
    lanes.push_back(sched.lane(sim::Time(d)));
  }
  return lanes;
}

PROPERTY_CASES(SchedulerOracle, HeapAgreesWithSortedVectorModel, 2500,
               op_sequences()) {
  sim::Scheduler real;
  SchedulerModel model;
  const std::vector<sim::LaneId> lanes = make_lanes(real);

  // Every event gets the next schedule index k (model ids are k + 1); only
  // cancellable events enter real_ids/model_ids.
  std::size_t scheduled = 0;
  std::vector<sim::EventId> real_ids;
  std::vector<std::uint64_t> model_ids;
  std::deque<Posted> posted;
  std::vector<std::size_t> real_order;  // execution order, as k indices
  std::vector<std::size_t> model_order;

  for (const auto& [sel, operand, delay_ps] : arg) {
    const std::int64_t kind = sel % 8;
    const std::size_t lane =
        static_cast<std::size_t>(operand) % kLaneDelaysPs.size();
    if (kind <= 1) {  // schedule on the heap (x2 weight)
      const sim::Time at = real.now() + sim::Time(delay_ps);
      const std::size_t k = scheduled++;
      real_ids.push_back(real.schedule_at(
          at, [k, &real_order] { real_order.push_back(k); }));
      model_ids.push_back(model.schedule_at(at));
    } else if (kind <= 3) {  // schedule on a lane (x2 weight)
      const std::size_t k = scheduled++;
      model_ids.push_back(
          model.schedule_at(real.now() + sim::Time(kLaneDelaysPs[lane])));
      real_ids.push_back(real.schedule_on(
          lanes[lane], [k, &real_order] { real_order.push_back(k); }));
    } else if (kind == 4) {  // record-free item on a lane
      (void)model.schedule_at(real.now() + sim::Time(kLaneDelaysPs[lane]));
      post_free(real, lanes[lane], scheduled++, real_order, posted);
    } else if (kind == 5) {  // cancel a previously scheduled event
      if (real_ids.empty()) continue;
      const std::size_t k =
          static_cast<std::size_t>(operand) % real_ids.size();
      const bool real_cancelled = real.cancel(real_ids[k]);
      const bool model_cancelled = model.cancel(model_ids[k]);
      PROP_ASSERT_EQ(real_cancelled, model_cancelled);
    } else {  // run forward
      const sim::Time until = real.now() + sim::Time(delay_ps);
      const std::size_t ran = real.run_until(until);
      const std::vector<std::uint64_t> due = model.run_until(until);
      for (const std::uint64_t id : due) {
        // Model ids are issued in schedule order starting at 1.
        model_order.push_back(static_cast<std::size_t>(id - 1));
      }
      PROP_ASSERT_EQ(ran, due.size());
      PROP_ASSERT_EQ(real.now().ps(), model.now().ps());
      PROP_ASSERT_EQ(real_order, model_order);
    }
    PROP_ASSERT_EQ(real.pending(), model.pending());
    PROP_ASSERT_EQ(real.executed(), real_order.size());
    PROP_ASSERT(real.heap_size() <= 2 * real.pending() + 256);
  }

  // Drain both completely: everything left must run in the same order, and
  // time lands on the last event (run_all does not jump to Time::max()).
  real.run_all();
  for (const std::uint64_t id : model.run_until(sim::Time::max())) {
    model_order.push_back(static_cast<std::size_t>(id - 1));
  }
  PROP_ASSERT_EQ(real_order, model_order);
  PROP_ASSERT_EQ(real.now().ps(), model.now().ps());
  PROP_ASSERT_EQ(real.pending(), std::size_t{0});
  PROP_ASSERT_EQ(model.pending(), std::size_t{0});
}

// Cancel-heavy churn: cancels outnumber schedules, repeatedly re-cancelling
// earlier targets (stale ids after execution or slot reuse must stay inert)
// and driving tombstone compaction, over heap and lane entries alike, while
// the run interleaves. schedule_in and schedule_on are exercised alongside
// schedule_at; the model sees the equivalent absolute time.
PROPERTY_CASES(SchedulerOracle, CancelHeavyChurnAgreesWithModel, 2000,
               vector_of(tuple_of(integers(0, 9), integers(0, 1 << 20),
                                  offsets_ps(50'000)),
                         1, 120)) {
  sim::Scheduler real;
  SchedulerModel model;
  const std::vector<sim::LaneId> lanes = make_lanes(real);

  std::size_t scheduled = 0;  // schedule index of the next event
  std::vector<sim::EventId> real_ids;  // cancellable events only
  std::vector<std::uint64_t> model_ids;
  std::deque<Posted> posted;
  std::vector<std::size_t> real_order;
  std::vector<std::size_t> model_order;

  for (const auto& [sel, operand, delay_ps] : arg) {
    const std::int64_t kind = sel % 10;
    const std::size_t lane =
        static_cast<std::size_t>(operand) % kLaneDelaysPs.size();
    if (kind <= 1) {  // schedule_at
      const sim::Time at = real.now() + sim::Time(delay_ps);
      const std::size_t k = scheduled++;
      real_ids.push_back(real.schedule_at(
          at, [k, &real_order] { real_order.push_back(k); }));
      model_ids.push_back(model.schedule_at(at));
    } else if (kind == 2) {  // schedule_in — sugar for now() + delay
      const std::size_t k = scheduled++;
      real_ids.push_back(real.schedule_in(
          sim::Time(delay_ps), [k, &real_order] { real_order.push_back(k); }));
      model_ids.push_back(model.schedule_at(real.now() + sim::Time(delay_ps)));
    } else if (kind == 3) {  // schedule_on — now() + the lane's delay
      const std::size_t k = scheduled++;
      model_ids.push_back(
          model.schedule_at(real.now() + sim::Time(kLaneDelaysPs[lane])));
      real_ids.push_back(real.schedule_on(
          lanes[lane], [k, &real_order] { real_order.push_back(k); }));
    } else if (kind == 4) {  // post_on — record-free, never cancelled
      (void)model.schedule_at(real.now() + sim::Time(kLaneDelaysPs[lane]));
      post_free(real, lanes[lane], scheduled++, real_order, posted);
    } else if (kind <= 8) {  // cancel (x4 weight: most targets end up stale)
      if (real_ids.empty()) continue;
      const std::size_t k =
          static_cast<std::size_t>(operand) % real_ids.size();
      PROP_ASSERT_EQ(real.cancel(real_ids[k]), model.cancel(model_ids[k]));
    } else {  // run forward
      const sim::Time until = real.now() + sim::Time(delay_ps);
      const std::size_t ran = real.run_until(until);
      const std::vector<std::uint64_t> due = model.run_until(until);
      for (const std::uint64_t id : due) {
        model_order.push_back(static_cast<std::size_t>(id - 1));
      }
      PROP_ASSERT_EQ(ran, due.size());
      PROP_ASSERT_EQ(real.now().ps(), model.now().ps());
      PROP_ASSERT_EQ(real_order, model_order);
    }
    PROP_ASSERT_EQ(real.pending(), model.pending());
    // Tombstones may lag cancels between compactions, but never exceed the
    // live half of all queued entries (lanes included) plus the compaction
    // threshold.
    PROP_ASSERT(real.heap_size() <= 2 * real.pending() + 256);
  }

  real.run_all();
  for (const std::uint64_t id : model.run_until(sim::Time::max())) {
    model_order.push_back(static_cast<std::size_t>(id - 1));
  }
  PROP_ASSERT_EQ(real_order, model_order);
  PROP_ASSERT_EQ(real.pending(), std::size_t{0});
  PROP_ASSERT_EQ(real.tombstones(), std::size_t{0});
}

// Heap events, record-backed lane events and record-free lane items on two
// lanes, all due at one picosecond, run in insertion order. The first half
// is scheduled at time 0 (lane delay at), the second half at at/2 (lane
// delay at - at/2); bits 2k and 2k+1 of `how` put event k on the heap (0
// or 3), on its phase's lane (1) or there as a record-free item (2).
PROPERTY_CASES(SchedulerOracle, TiesExecuteInInsertionOrder, 2000,
               tuple_of(integers(0, 1'000'000), integers(2, 12),
                        integers(0, (1 << 24) - 1))) {
  const auto& [at_ps, n, how] = arg;
  sim::Scheduler real;
  const sim::Time at(at_ps);
  std::vector<std::size_t> order;
  std::deque<Posted> posted;
  for (std::int64_t k = 0; k < n; ++k) {
    if (k == n / 2) real.run_until(sim::Time(at_ps / 2));
    const auto index = static_cast<std::size_t>(k);
    const auto run = [index, &order] { order.push_back(index); };
    switch ((how >> (2 * k)) & 3) {
      case 1:
        real.schedule_on(real.lane(at - real.now()), run);
        break;
      case 2:
        post_free(real, real.lane(at - real.now()), index, order, posted);
        break;
      default:
        real.schedule_at(at, run);
    }
  }
  real.run_all();
  PROP_ASSERT_EQ(order.size(), static_cast<std::size_t>(n));
  for (std::size_t k = 0; k < order.size(); ++k) {
    PROP_ASSERT_EQ(order[k], k);
  }
  PROP_ASSERT_EQ(real.now().ps(), at_ps);
}

}  // namespace
}  // namespace pet::testkit
