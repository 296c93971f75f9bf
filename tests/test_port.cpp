#include "net/port.hpp"

#include <gtest/gtest.h>

#include "net/device.hpp"

namespace pet::net {
namespace {

/// Sink device recording arrivals and departures.
class TestDevice : public Device {
 public:
  TestDevice(sim::Scheduler& sched, DeviceId id) : Device(sched, id, "test") {}

  void receive(Packet pkt, std::int32_t in_port) override {
    received.push_back({pkt, in_port});
  }
  void on_packet_departed(std::int32_t /*port*/,
                          const QueueEntry& entry) override {
    departed.push_back(entry);
    departed_at.push_back(sched_.now());
  }

  struct Arrival {
    Packet pkt;
    std::int32_t in_port;
  };
  std::vector<Arrival> received;
  std::vector<QueueEntry> departed;
  std::vector<sim::Time> departed_at;
};

Packet data_packet(std::int32_t bytes, FlowId flow = 1) {
  Packet pkt;
  pkt.flow_id = flow;
  pkt.type = PacketType::kData;
  pkt.size_bytes = bytes;
  pkt.payload_bytes = bytes;
  return pkt;
}

struct PortFixture : ::testing::Test {
  sim::Scheduler sched;
  TestDevice sender{sched, 0};
  TestDevice peer{sched, 1};
  std::int32_t port_idx = 0;

  EgressPort& make_port(PortConfig cfg = {}) {
    port_idx = sender.add_port(cfg);
    auto& port = sender.port(port_idx);
    // The peer "port" index is arbitrary for a sink.
    const std::int32_t peer_port = peer.add_port(cfg);
    port.connect(&peer, peer_port);
    peer.port(peer_port).connect(&sender, port_idx);
    return port;
  }
};

TEST_F(PortFixture, InvalidEcnConfigClampedOnInstall) {
  auto& port = make_port();
  // Inverted thresholds + out-of-range probability: the port installs the
  // nearest valid config instead of the garbage one.
  port.set_ecn_config({.kmin_bytes = 2000, .kmax_bytes = 100, .pmax = 3.0});
  const RedEcnConfig& installed = port.ecn_config();
  EXPECT_TRUE(installed.valid());
  EXPECT_EQ(installed.kmin_bytes, 2000);
  EXPECT_EQ(installed.kmax_bytes, 2000);
  EXPECT_DOUBLE_EQ(installed.pmax, 1.0);
  // Valid configs install verbatim.
  const RedEcnConfig ok{.kmin_bytes = 10, .kmax_bytes = 20, .pmax = 0.5};
  port.set_ecn_config(ok);
  EXPECT_EQ(port.ecn_config(), ok);
}

TEST_F(PortFixture, DeliversAfterSerializationPlusPropagation) {
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  cfg.propagation_delay = sim::nanoseconds(1000);
  auto& port = make_port(cfg);
  port.enqueue(QueueEntry{data_packet(1000), -1});
  // 1000B at 10G = 800ns serialization + 1000ns propagation = 1800ns.
  sched.run_until(sim::nanoseconds(1799));
  EXPECT_TRUE(peer.received.empty());
  sched.run_until(sim::nanoseconds(1800));
  ASSERT_EQ(peer.received.size(), 1u);
}

TEST_F(PortFixture, SerializesBackToBack) {
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  cfg.propagation_delay = sim::Time::zero();
  auto& port = make_port(cfg);
  port.enqueue(QueueEntry{data_packet(1000), -1});
  port.enqueue(QueueEntry{data_packet(1000), -1});
  sched.run_until(sim::nanoseconds(800));
  EXPECT_EQ(peer.received.size(), 1u);
  sched.run_until(sim::nanoseconds(1600));
  EXPECT_EQ(peer.received.size(), 2u);
}

TEST_F(PortFixture, ControlQueueHasStrictPriority) {
  auto& port = make_port();
  port.enqueue(QueueEntry{data_packet(1000), -1});  // starts transmitting
  port.enqueue(QueueEntry{data_packet(1000, 2), -1});
  Packet cnp;
  cnp.type = PacketType::kCnp;
  cnp.size_bytes = 64;
  port.enqueue_control(QueueEntry{cnp, -1});
  sched.run_all();
  ASSERT_EQ(peer.received.size(), 3u);
  // CNP jumps ahead of the second data packet.
  EXPECT_EQ(peer.received[1].pkt.type, PacketType::kCnp);
}

TEST_F(PortFixture, PauseStopsDataButNotControl) {
  auto& port = make_port();
  port.set_paused(true);
  port.enqueue(QueueEntry{data_packet(1000), -1});
  Packet cnp;
  cnp.type = PacketType::kCnp;
  cnp.size_bytes = 64;
  port.enqueue_control(QueueEntry{cnp, -1});
  sched.run_until(sim::milliseconds(1));
  ASSERT_EQ(peer.received.size(), 1u);
  EXPECT_EQ(peer.received[0].pkt.type, PacketType::kCnp);
  port.set_paused(false);
  sched.run_all();
  EXPECT_EQ(peer.received.size(), 2u);
}

TEST_F(PortFixture, PauseDoesNotAbortInFlightPacket) {
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  cfg.propagation_delay = sim::Time::zero();
  auto& port = make_port(cfg);
  port.enqueue(QueueEntry{data_packet(1000), -1});
  sched.run_until(sim::nanoseconds(100));
  port.set_paused(true);  // mid-serialization
  sched.run_until(sim::milliseconds(1));
  EXPECT_EQ(peer.received.size(), 1u);  // completes anyway
}

TEST_F(PortFixture, LinkDownDropsAtSerializationEnd) {
  auto& port = make_port();
  port.enqueue(QueueEntry{data_packet(1000), -1});
  port.set_link_up(false);
  sched.run_all();
  EXPECT_TRUE(peer.received.empty());
  EXPECT_EQ(port.dropped_packets(), 1);
  EXPECT_EQ(port.tx_packets(), 1);  // it was serialized, then lost
  // The owner still sees the departure: buffer accounting must not leak.
  EXPECT_EQ(sender.departed.size(), 1u);
}

TEST_F(PortFixture, LinkDownBlocksNewTransmissions) {
  auto& port = make_port();
  port.set_link_up(false);
  port.enqueue(QueueEntry{data_packet(1000), -1});
  sched.run_until(sim::milliseconds(1));
  EXPECT_EQ(port.tx_packets(), 0);
  port.set_link_up(true);
  sched.run_all();
  EXPECT_EQ(peer.received.size(), 1u);
}

TEST_F(PortFixture, EcnMarksAboveKmax) {
  auto& port = make_port();
  port.set_ecn_config({.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 1.0});
  // The first two packets see an empty queue (each is popped straight into
  // the transmitter); every later packet sees backlog and is marked.
  for (int i = 0; i < 5; ++i) {
    port.enqueue(QueueEntry{data_packet(1000), -1});
  }
  sched.run_all();
  ASSERT_EQ(peer.received.size(), 5u);
  int marked = 0;
  for (const auto& a : peer.received) marked += a.pkt.ce_marked;
  EXPECT_EQ(marked, 3);
}

TEST_F(PortFixture, NonEctPacketsNeverMarked) {
  auto& port = make_port();
  port.set_ecn_config({.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 1.0});
  for (int i = 0; i < 5; ++i) {
    Packet pkt = data_packet(1000);
    pkt.ecn_capable = false;
    port.enqueue(QueueEntry{pkt, -1});
  }
  sched.run_all();
  for (const auto& a : peer.received) EXPECT_FALSE(a.pkt.ce_marked);
}

TEST_F(PortFixture, TxCountersTrackMarkedBytes) {
  auto& port = make_port();
  port.set_ecn_config({.kmin_bytes = 0, .kmax_bytes = 0, .pmax = 1.0});
  for (int i = 0; i < 3; ++i) {
    port.enqueue(QueueEntry{data_packet(1000), -1});
  }
  sched.run_all();
  EXPECT_EQ(port.tx_packets(), 3);
  EXPECT_EQ(port.tx_bytes(), 3000);
  // Packet 1 is popped immediately (sees queue 0) and packet 2 is enqueued
  // into an again-empty queue; only packet 3 sees backlog.
  EXPECT_EQ(port.tx_marked_packets(), 1);
  EXPECT_EQ(port.tx_marked_bytes(), 1000);
}

TEST_F(PortFixture, OwnerNotifiedOnDeparture) {
  auto& port = make_port();
  port.enqueue(QueueEntry{data_packet(500), 7});
  sched.run_all();
  ASSERT_EQ(sender.departed.size(), 1u);
  EXPECT_EQ(sender.departed[0].ingress_port, 7);
}

TEST_F(PortFixture, QueueBytesReflectBacklog) {
  auto& port = make_port();
  port.set_paused(true);
  port.enqueue(QueueEntry{data_packet(300), -1});
  port.enqueue(QueueEntry{data_packet(200), -1});
  EXPECT_EQ(port.queue_bytes(), 500);
  EXPECT_EQ(port.total_queue_bytes(), 500);
}

/// How one frame completes on a fresh 10 Gb/s port that has already sent
/// a 1000-byte frame: its serialization start, its departure, and whether
/// its completion took a pool record (a heap event) or none (a record-free
/// lane item — the port's arrivals are record-free too).
struct Completion {
  sim::Time start;
  sim::Time departed;
  bool on_heap;
};

Completion complete_one(const Packet& pkt) {
  sim::Scheduler sched;
  TestDevice sender{sched, 0};
  TestDevice peer{sched, 1};
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  auto& port = sender.port(sender.add_port(cfg));
  port.connect(&peer, peer.add_port(cfg));
  port.enqueue(QueueEntry{data_packet(1000), -1});
  sched.run_all();
  EXPECT_EQ(sched.pool_size(), 0u) << "the full-size warm-up frame";
  const sim::Time start = sched.now();
  if (pkt.is_control()) {
    port.enqueue_control(QueueEntry{pkt, -1});
  } else {
    port.enqueue(QueueEntry{pkt, -1});
  }
  sched.run_all();
  EXPECT_EQ(peer.received.size(), 2u);
  return {start, sender.departed_at.back(), sched.pool_size() != 0};
}

TEST(PortCompletion, ControlAndFullFramesCompleteOnLanes) {
  Packet cnp = data_packet(kControlPacketBytes);
  cnp.type = PacketType::kCnp;
  const Completion control = complete_one(cnp);
  EXPECT_FALSE(control.on_heap);
  // 64 B at 10 Gb/s: 51.2 ns.
  EXPECT_EQ(control.departed - control.start, sim::Time(51'200));

  const Completion full = complete_one(data_packet(1000));
  EXPECT_FALSE(full.on_heap);
  EXPECT_EQ(full.departed - full.start, sim::nanoseconds(800));

  // A frame larger than any before moves the port's full-size lane up.
  const Completion larger = complete_one(data_packet(1500));
  EXPECT_FALSE(larger.on_heap);
  EXPECT_EQ(larger.departed - larger.start, sim::nanoseconds(1200));
}

TEST(PortCompletion, TailFramesCompleteOnTheHeap) {
  Packet last = data_packet(300);
  last.last_of_flow = true;
  const Completion tail = complete_one(last);
  EXPECT_TRUE(tail.on_heap);
  EXPECT_EQ(tail.departed - tail.start, sim::nanoseconds(240));
}

TEST_F(PortFixture, OnlyAFlowsNonLastFrameMovesTheFullSizeLane) {
  // Single-frame flows of every size (a data-mining mix) before and after
  // the first full frame: none takes a lane, so a port holds one full-size
  // lane however its tail frames are sized. Every frame departs exactly at
  // start + serialization.
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  auto& port = make_port(cfg);
  const auto send = [&](std::int32_t bytes, bool last_of_flow) {
    Packet pkt = data_packet(bytes);
    pkt.last_of_flow = last_of_flow;
    const sim::Time start = sched.now();
    port.enqueue(QueueEntry{pkt, -1});
    sched.run_all();
    ASSERT_FALSE(sender.departed_at.empty());
    EXPECT_EQ(sender.departed_at.back() - start,
              cfg.rate.serialization_time(bytes))
        << bytes << " bytes";
  };
  const std::size_t lanes = sched.lane_count();
  for (std::int32_t bytes = 148; bytes < 1048; bytes += 61) send(bytes, true);
  EXPECT_EQ(sched.lane_count(), lanes);
  EXPECT_NE(sched.pool_size(), 0u) << "tail frames complete on the heap";
  send(1048, false);  // a flow's full MTU frame
  EXPECT_EQ(sched.lane_count(), lanes + 1);
  send(1048, true);  // a last frame of exactly that size rides the lane
  for (std::int32_t bytes = 151; bytes < 1048; bytes += 67) send(bytes, true);
  send(1500, true);  // a larger last frame does not move the lane
  EXPECT_EQ(sched.lane_count(), lanes + 1);
  send(1500, false);
  EXPECT_EQ(sched.lane_count(), lanes + 2);
  EXPECT_EQ(peer.received.size(), sender.departed_at.size());
}

TEST_F(PortFixture, PacketsOnWireCountsThePropagatingOnes) {
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  cfg.propagation_delay = sim::microseconds(10);
  auto& port = make_port(cfg);
  for (int i = 0; i < 3; ++i) {
    port.enqueue(QueueEntry{data_packet(1000), -1});
  }
  EXPECT_EQ(port.packets_on_wire(), 0);
  sched.run_until(sim::nanoseconds(2400));  // all three serialized
  EXPECT_EQ(port.tx_packets(), 3);
  EXPECT_EQ(port.packets_on_wire(), 3);
  sched.run_until(sim::nanoseconds(10'800));  // the first arrives
  EXPECT_EQ(port.packets_on_wire(), 2);
  EXPECT_EQ(peer.received.size(), 1u);
  sched.run_all();
  EXPECT_EQ(port.packets_on_wire(), 0);
  EXPECT_EQ(peer.received.size(), 3u);
}

TEST_F(PortFixture, ArrivalsKeepDepartureOrderThroughFlaps) {
  // Full-size frames (lane completions) mixed with tails (heap completions)
  // on a link whose propagation spans several frames. The link flaps twice
  // mid-run; at every stop each serialized packet is dropped, on the wire
  // or arrived, and arrivals keep departure order.
  PortConfig cfg;
  cfg.rate = sim::gbps(10);
  cfg.propagation_delay = sim::microseconds(3);
  auto& port = make_port(cfg);
  for (std::uint32_t i = 0; i < 60; ++i) {
    Packet pkt = data_packet(i % 4 == 3 ? 300 : 1000);
    pkt.seq = i;
    port.enqueue(QueueEntry{pkt, -1});
  }
  const auto ledger_balances = [&] {
    return port.tx_packets() ==
           port.dropped_packets() + port.packets_on_wire() +
               static_cast<std::int64_t>(peer.received.size());
  };
  std::int64_t drops_at_down = 0;
  std::vector<std::int64_t> flap_drops;
  for (std::int64_t step = 1; step <= 600; ++step) {
    sched.run_until(sim::nanoseconds(step * 97));
    if (step == 60 || step == 150) {
      port.set_link_up(false);
      drops_at_down = port.dropped_packets();
    }
    if (step == 75 || step == 250) {
      port.set_link_up(true);
      flap_drops.push_back(port.dropped_packets() - drops_at_down);
    }
    ASSERT_TRUE(ledger_balances()) << "stop " << step;
  }
  sched.run_all();
  ASSERT_TRUE(ledger_balances());
  EXPECT_EQ(port.tx_packets(), 60);
  EXPECT_EQ(port.packets_on_wire(), 0);
  ASSERT_EQ(flap_drops.size(), 2u);
  EXPECT_GT(flap_drops[0], 0);
  EXPECT_GT(flap_drops[1], 0);
  EXPECT_EQ(port.dropped_packets(), flap_drops[0] + flap_drops[1]);
  ASSERT_GT(peer.received.size(), 30u);
  for (std::size_t i = 1; i < peer.received.size(); ++i) {
    EXPECT_LT(peer.received[i - 1].pkt.seq, peer.received[i].pkt.seq);
  }
}

}  // namespace
}  // namespace pet::net
