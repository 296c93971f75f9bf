#include "net/queue.hpp"

#include <gtest/gtest.h>

namespace pet::net {
namespace {

QueueEntry make_entry(std::int32_t bytes, std::int32_t ingress = -1) {
  Packet pkt;
  pkt.size_bytes = bytes;
  return QueueEntry{pkt, ingress};
}

/// Pop the head; the test fails if the queue is empty.
QueueEntry pop_head(FifoQueue& q, sim::Time now = sim::Time::zero()) {
  QueueEntry e;
  EXPECT_TRUE(q.pop(e, now)) << "pop from an empty queue";
  return e;
}

TEST(FifoQueue, StartsEmpty) {
  FifoQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.bytes(), 0);
  EXPECT_EQ(q.packets(), 0);
  QueueEntry e = make_entry(7, 9);
  EXPECT_FALSE(q.pop(e, sim::Time::zero()));
  EXPECT_EQ(e.pkt.size_bytes, 7) << "a failed pop leaves its out-parameter";
  EXPECT_EQ(e.ingress_port, 9);
}

TEST(FifoQueue, ByteAndPacketAccounting) {
  FifoQueue q;
  q.push(make_entry(100), sim::Time::zero());
  q.push(make_entry(250), sim::Time::zero());
  EXPECT_EQ(q.bytes(), 350);
  EXPECT_EQ(q.packets(), 2);
  EXPECT_EQ(pop_head(q).pkt.size_bytes, 100);  // FIFO order
  EXPECT_EQ(q.bytes(), 250);
  EXPECT_EQ(q.packets(), 1);
}

TEST(FifoQueue, FifoOrderPreserved) {
  FifoQueue q;
  for (int i = 1; i <= 5; ++i) q.push(make_entry(i), sim::Time::zero());
  for (int i = 1; i <= 5; ++i) EXPECT_EQ(pop_head(q).pkt.size_bytes, i);
}

TEST(FifoQueue, IngressPortCarried) {
  FifoQueue q;
  q.push(make_entry(10, 3), sim::Time::zero());
  EXPECT_EQ(pop_head(q).ingress_port, 3);
}

TEST(FifoQueue, OccupancyTimeWeighted) {
  FifoQueue q;
  q.track_occupancy(true, sim::Time::zero());
  q.push(make_entry(1000), sim::microseconds(0));   // 0 bytes held for 0
  q.push(make_entry(1000), sim::microseconds(10));  // 1000 bytes for 10us
  (void)pop_head(q, sim::microseconds(30));         // 2000 bytes for 20us
  const auto& occ = q.occupancy(sim::microseconds(30));
  // Mean = (1000*10 + 2000*20) / 30 = 50000/30.
  EXPECT_NEAR(occ.mean(), 50'000.0 / 30.0, 1e-9);
}

TEST(FifoQueue, OccupancyResetStartsFresh) {
  FifoQueue q;
  q.track_occupancy(true, sim::Time::zero());
  q.push(make_entry(500), sim::microseconds(5));
  q.reset_occupancy(sim::microseconds(5));
  q.push(make_entry(500), sim::microseconds(15));  // 500 bytes for 10us
  EXPECT_NEAR(q.occupancy(sim::microseconds(15)).mean(), 500.0, 1e-9);
}

TEST(FifoQueue, OrderSurvivesWrapAround) {
  // Drive the head index around the ring many times at a standing occupancy
  // chosen to straddle the capacity boundary: FIFO order and accounting must
  // be oblivious to where the window physically sits.
  FifoQueue q;
  int next_push = 0;
  int next_pop = 0;
  for (int i = 0; i < 7; ++i) q.push(make_entry(next_push++), sim::Time::zero());
  for (int round = 0; round < 1000; ++round) {
    q.push(make_entry(next_push++), sim::Time::zero());
    ASSERT_EQ(pop_head(q).pkt.size_bytes, next_pop++);
    ASSERT_EQ(q.packets(), 7);
  }
}

TEST(FifoQueue, GrowthPreservesWrappedContents) {
  // Force a reallocation while the live window wraps: fill, drain half,
  // refill past the old capacity. The doubling copy must unwrap the window
  // without reordering or dropping entries.
  FifoQueue q;
  int next_push = 0;
  int next_pop = 0;
  const std::size_t cap0 = [&] {
    q.push(make_entry(next_push++), sim::Time::zero());
    return q.capacity();
  }();
  while (q.packets() < static_cast<std::int32_t>(cap0)) {
    q.push(make_entry(next_push++), sim::Time::zero());
  }
  for (std::size_t i = 0; i < cap0 / 2; ++i) {
    ASSERT_EQ(pop_head(q).pkt.size_bytes, next_pop++);
  }
  // Head is now mid-ring; pushing back to full and beyond wraps, then grows.
  while (q.packets() < static_cast<std::int32_t>(2 * cap0)) {
    q.push(make_entry(next_push++), sim::Time::zero());
  }
  EXPECT_GT(q.capacity(), cap0);
  while (!q.empty()) ASSERT_EQ(pop_head(q).pkt.size_bytes, next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(FifoQueue, CapacityIsPowerOfTwoHighWater) {
  FifoQueue q;
  for (int i = 0; i < 1000; ++i) q.push(make_entry(1), sim::Time::zero());
  const std::size_t high_water = q.capacity();
  EXPECT_GE(high_water, 1000u);
  EXPECT_EQ(high_water & (high_water - 1), 0u);  // power of two (mask index)
  // Draining never shrinks the ring: steady state re-uses the hot storage.
  while (!q.empty()) (void)pop_head(q);
  EXPECT_EQ(q.capacity(), high_water);
}

TEST(FifoQueue, UntrackedOccupancyIsZero) {
  FifoQueue q;
  q.push(make_entry(100), sim::microseconds(1));
  EXPECT_EQ(q.occupancy(sim::microseconds(10)).total_time(), 0.0);
}

}  // namespace
}  // namespace pet::net
