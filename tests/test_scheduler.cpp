#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pet::sim {
namespace {

TEST(Scheduler, StartsAtZero) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), Time::zero());
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(microseconds(30), [&] { order.push_back(3); });
  sched.schedule_at(microseconds(10), [&] { order.push_back(1); });
  sched.schedule_at(microseconds(20), [&] { order.push_back(2); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesBreakByInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(microseconds(1), [&order, i] { order.push_back(i); });
  }
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, NowAdvancesToEventTime) {
  Scheduler sched;
  Time seen;
  sched.schedule_at(microseconds(42), [&] { seen = sched.now(); });
  sched.run_all();
  EXPECT_EQ(seen, microseconds(42));
}

TEST(Scheduler, ScheduleInIsRelative) {
  Scheduler sched;
  Time seen;
  sched.schedule_at(microseconds(10), [&] {
    sched.schedule_in(microseconds(5), [&] { seen = sched.now(); });
  });
  sched.run_all();
  EXPECT_EQ(seen, microseconds(15));
}

TEST(Scheduler, RunUntilStopsAndAdvancesClock) {
  Scheduler sched;
  int ran = 0;
  sched.schedule_at(microseconds(10), [&] { ++ran; });
  sched.schedule_at(microseconds(20), [&] { ++ran; });
  sched.schedule_at(microseconds(30), [&] { ++ran; });
  EXPECT_EQ(sched.run_until(microseconds(20)), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sched.now(), microseconds(20));
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_all();
  EXPECT_EQ(ran, 3);
}

TEST(Scheduler, RunUntilWithNoEventsStillAdvances) {
  Scheduler sched;
  sched.run_until(milliseconds(5));
  EXPECT_EQ(sched.now(), milliseconds(5));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  int ran = 0;
  const EventId id = sched.schedule_at(microseconds(5), [&] { ++ran; });
  EXPECT_TRUE(sched.cancel(id));
  sched.run_all();
  EXPECT_EQ(ran, 0);
}

TEST(Scheduler, CancelTwiceIsNoop) {
  Scheduler sched;
  const EventId id = sched.schedule_at(microseconds(5), [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelAfterRunIsNoop) {
  Scheduler sched;
  const EventId id = sched.schedule_at(microseconds(5), [] {});
  sched.run_all();
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelDefaultIdIsNoop) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(EventId{}));
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sched.schedule_in(microseconds(1), recurse);
  };
  sched.schedule_at(microseconds(1), recurse);
  sched.run_all();
  EXPECT_EQ(depth, 10);
}

TEST(Scheduler, PendingCountTracksLiveEvents) {
  Scheduler sched;
  const EventId a = sched.schedule_at(microseconds(1), [] {});
  sched.schedule_at(microseconds(2), [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
  sched.run_all();
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, ExecutedCounter) {
  Scheduler sched;
  for (int i = 0; i < 7; ++i) sched.schedule_at(microseconds(i + 1), [] {});
  sched.run_all();
  EXPECT_EQ(sched.executed(), 7u);
}

TEST(Scheduler, RunUntilBoundaryInclusive) {
  Scheduler sched;
  int ran = 0;
  sched.schedule_at(microseconds(10), [&] { ++ran; });
  sched.run_until(microseconds(10));
  EXPECT_EQ(ran, 1);
}

// Regression: schedule+cancel churn (retransmit/watchdog timers) must run in
// bounded memory. Before tombstone compaction, a million cancelled-but-never-
// popped entries would pin a million heap slots until their deadlines.
TEST(Scheduler, CancelChurnKeepsHeapAndPoolBounded) {
  Scheduler sched;
  // A standing watchdog far in the future keeps the heap non-empty so
  // cancelled entries can never age out by popping.
  sched.schedule_at(milliseconds(1'000), [] {});
  for (int i = 0; i < 1'000'000; ++i) {
    const EventId id =
        sched.schedule_at(milliseconds(500), [] { FAIL() << "cancelled"; });
    ASSERT_TRUE(sched.cancel(id));
    // Tombstones may accumulate between compactions but never past the
    // live half of the heap (plus the pre-compaction threshold).
    ASSERT_LE(sched.heap_size(), 2 * sched.pending() + 256);
  }
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_LE(sched.heap_size(), 256u);
  // The slot pool recycles through the free list instead of growing.
  EXPECT_LE(sched.pool_size(), 512u);
  EXPECT_EQ(sched.run_until(milliseconds(1'000)), 1u);
  EXPECT_EQ(sched.heap_size(), 0u);
  EXPECT_EQ(sched.tombstones(), 0u);
}

TEST(Scheduler, CompactionPreservesExecutionOrder) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> victims;
  // Interleave keepers and twice as many victims so cancelling the victims
  // pushes tombstones past half the heap and compaction reshuffles the
  // layout; the survivors must still pop in (time, insertion) order.
  for (int i = 0; i < 200; ++i) {
    sched.schedule_at(microseconds(1000 - i), [&order, i] { order.push_back(i); });
    victims.push_back(
        sched.schedule_at(microseconds(500), [] { FAIL() << "cancelled"; }));
    victims.push_back(
        sched.schedule_at(microseconds(600), [] { FAIL() << "cancelled"; }));
  }
  for (const EventId id : victims) ASSERT_TRUE(sched.cancel(id));
  EXPECT_LT(sched.heap_size(), 600u);  // compaction fired at least once
  sched.run_all();
  ASSERT_EQ(order.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], 199 - i);
}

TEST(Scheduler, StaleIdAfterSlotReuseIsNoop) {
  Scheduler sched;
  const EventId stale = sched.schedule_at(microseconds(1), [] {});
  sched.run_all();
  // The slot is recycled for a new event; the stale handle must not hit it.
  int ran = 0;
  sched.schedule_at(microseconds(2), [&] { ++ran; });
  EXPECT_FALSE(sched.cancel(stale));
  sched.run_all();
  EXPECT_EQ(ran, 1);
}

TEST(Scheduler, SelfCancelDuringExecutionIsNoop) {
  Scheduler sched;
  EventId self;
  int ran = 0;
  self = sched.schedule_at(microseconds(1), [&] {
    ++ran;
    EXPECT_FALSE(sched.cancel(self));  // already running — not pending
  });
  sched.run_all();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.pending(), 0u);
}

TEST(Scheduler, CancelOthersFromInsideCallbackCompactsSafely) {
  Scheduler sched;
  std::vector<EventId> ids;
  int survivors = 0;
  // One early event cancels 300 of 400 later events mid-run — enough
  // tombstones to drive a compaction while run_until is iterating.
  for (int i = 0; i < 400; ++i) {
    ids.push_back(sched.schedule_at(microseconds(10 + i), [&] { ++survivors; }));
  }
  sched.schedule_at(microseconds(1), [&] {
    for (int i = 0; i < 400; ++i) {
      if (i % 4 != 0) {
        EXPECT_TRUE(sched.cancel(ids[static_cast<std::size_t>(i)]));
      }
    }
  });
  sched.run_all();
  EXPECT_EQ(survivors, 100);
  EXPECT_EQ(sched.tombstones(), 0u);
}

TEST(Scheduler, BurstScheduleFromInsideCallbackGrowsPoolSafely) {
  Scheduler sched;
  int ran = 0;
  // A single event fans out past the pool's first chunk while its own
  // callback is still executing out of slot 0.
  sched.schedule_at(microseconds(1), [&] {
    for (int i = 0; i < 2000; ++i) {
      sched.schedule_in(microseconds(1 + i), [&ran] { ++ran; });
    }
  });
  sched.run_all();
  EXPECT_EQ(ran, 2000);
  EXPECT_GE(sched.pool_size(), 2000u);
}

TEST(SchedulerLane, EqualDelaysShareOneLane) {
  Scheduler sched;
  const LaneId a = sched.lane(microseconds(1));
  EXPECT_EQ(sched.lane(microseconds(1)), a);
  EXPECT_EQ(sched.lane(nanoseconds(1'000)), a);
  EXPECT_NE(sched.lane(microseconds(2)), a);
  EXPECT_NE(sched.lane(Time::zero()), a);
}

TEST(SchedulerLane, CancelBeforeItRuns) {
  Scheduler sched;
  const LaneId lane = sched.lane(microseconds(1));
  int ran = 0;
  const EventId id = sched.schedule_on(lane, [&] { ++ran; });
  sched.schedule_on(lane, [&] { ran += 10; });
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
  sched.run_all();
  EXPECT_EQ(ran, 10);
  EXPECT_EQ(sched.tombstones(), 0u);
}

TEST(SchedulerLane, SelfCancelInsideItsCallbackIsNoop) {
  Scheduler sched;
  const LaneId lane = sched.lane(microseconds(1));
  EventId self;
  int ran = 0;
  self = sched.schedule_on(lane, [&] {
    ++ran;
    EXPECT_FALSE(sched.cancel(self));  // already running — not pending
  });
  sched.run_all();
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.pending(), 0u);
  EXPECT_EQ(sched.tombstones(), 0u);
}

TEST(SchedulerLane, CancelFromAnotherCallbackWhileCompactionRuns) {
  Scheduler sched;
  const LaneId slow = sched.lane(microseconds(20));
  const LaneId fast = sched.lane(microseconds(10));
  std::vector<EventId> ids;
  std::vector<int> order;
  // 400 lane events over two lanes plus 100 heap events; one early heap
  // event cancels three in four lane events mid-run, enough tombstones to
  // compact while run_until is iterating. Survivors keep their order.
  for (int i = 0; i < 400; ++i) {
    ids.push_back(sched.schedule_on(i % 8 < 4 ? slow : fast,
                                    [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; ++i) {
    sched.schedule_at(microseconds(15),
                      [&order, i] { order.push_back(1000 + i); });
  }
  sched.schedule_at(microseconds(1), [&] {
    for (int i = 0; i < 400; ++i) {
      if (i % 4 != 0) {
        EXPECT_TRUE(sched.cancel(ids[static_cast<std::size_t>(i)]));
      }
    }
    EXPECT_LT(sched.heap_size(), 500u);  // compaction fired inside the callback
  });
  sched.run_all();
  std::vector<int> expected;
  for (int i = 4; i < 400; i += 8) expected.push_back(i);  // fast: 10 us
  for (int i = 0; i < 100; ++i) expected.push_back(1000 + i);  // heap: 15 us
  for (int i = 0; i < 400; i += 8) expected.push_back(i);  // slow: 20 us
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sched.tombstones(), 0u);
  EXPECT_EQ(sched.heap_size(), 0u);
}

TEST(SchedulerLane, CountersIncludeLaneEntries) {
  Scheduler sched;
  const LaneId lane = sched.lane(microseconds(1));
  const EventId a = sched.schedule_on(lane, [] {});
  sched.schedule_on(lane, [] {});
  sched.schedule_at(microseconds(2), [] {});
  EXPECT_EQ(sched.pending(), 3u);
  EXPECT_EQ(sched.heap_size(), 3u);
  EXPECT_EQ(sched.tombstones(), 0u);
  ASSERT_TRUE(sched.cancel(a));
  EXPECT_EQ(sched.pending(), 2u);
  EXPECT_EQ(sched.heap_size(), 3u);  // the tombstone waits for pop
  EXPECT_EQ(sched.tombstones(), 1u);
  EXPECT_EQ(sched.run_until(microseconds(1)), 1u);
  EXPECT_EQ(sched.pending(), 1u);
  EXPECT_EQ(sched.heap_size(), 1u);
  EXPECT_EQ(sched.tombstones(), 0u);
}

TEST(SchedulerLane, RunUntilRunsLaneHeadDueExactlyAtUntil) {
  Scheduler sched;
  const LaneId lane = sched.lane(microseconds(10));
  int ran = 0;
  sched.schedule_on(lane, [&] { ++ran; });
  EXPECT_EQ(sched.run_until(microseconds(10) - Time(1)), 0u);
  EXPECT_EQ(sched.run_until(microseconds(10)), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sched.now(), microseconds(10));
}

TEST(SchedulerLane, ZeroDelayEventFromCallbackRunsAfterEventsAlreadyDue) {
  Scheduler sched;
  const LaneId now_lane = sched.lane(Time::zero());
  std::vector<int> order;
  sched.schedule_at(microseconds(5), [&] {
    order.push_back(0);
    sched.schedule_on(now_lane, [&] { order.push_back(3); });
  });
  sched.schedule_at(microseconds(5), [&] { order.push_back(1); });
  sched.schedule_at(microseconds(5), [&] { order.push_back(2); });
  sched.schedule_at(microseconds(6), [&] { order.push_back(4); });
  sched.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SchedulerLane, RingGrowsWhileWrappedAndKeepsFifoOrder) {
  Scheduler sched;
  const LaneId lane = sched.lane(nanoseconds(10));
  std::vector<int> order;
  int next = 0;
  // A few events per nanosecond, each due 10 ns later: the ring's head
  // walks forward while it doubles from 16 past 64 entries.
  for (int t = 0; t < 200; ++t) {
    sched.run_until(nanoseconds(t));
    for (int i = 0; i < t % 9; ++i) {
      sched.schedule_on(lane, [&order, k = next++, t, &sched] {
        EXPECT_EQ(sched.now(), nanoseconds(t + 10));
        order.push_back(k);
      });
    }
  }
  sched.run_all();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(next));
  for (int k = 0; k < next; ++k) {
    EXPECT_EQ(order[static_cast<std::size_t>(k)], k);
  }
}

}  // namespace
}  // namespace pet::sim
