// Zero-allocation contract for the DES hot path (ctest -L benchgate).
//
// This binary replaces the global operator new/delete with counting
// versions, warms each hot structure past its growth phase, then asserts
// that the steady state — scheduler schedule/run cycles with transmit-sized
// captures, constant-delay lane cycles, FIFO ring push/pop, cancel churn,
// a leaf-spine DCQCN long-flow window, and ACC's learner phase (the DDQN
// step on a copied minibatch plus the epsilon-greedy act) — performs
// literally zero heap allocations.
//
// Kept out of the `fast` label on purpose: the sanitizer presets interpose
// their own allocator and must not race a user-defined operator new.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/fabric.hpp"
#include "net/queue.hpp"
#include "rl/ddqn.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "transport/dcqcn.hpp"

namespace {
std::uint64_t g_news = 0;
std::uint64_t g_deletes = 0;
}  // namespace

// Minimal counting replacement set. Alignment overloads delegate to the
// plain forms (nothing in the tree over-aligns past max_align_t). The two
// base hooks stay out of line: inlined into a caller, GCC 12 pairs their
// malloc/free with the caller's new/delete and reports a false
// -Wmismatched-new-delete.
__attribute__((noinline)) void* operator new(std::size_t n) {
  ++g_news;
  if (void* p = std::malloc(n > 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
__attribute__((noinline)) void operator delete(void* p) noexcept {
  ++g_deletes;
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace pet {
namespace {

/// Transmit-sized capture: what EgressPort::finish_transmit actually carries.
struct TxPayload {
  std::uint64_t words[8] = {1, 2, 3, 4, 5, 6, 7, 8};
};
static_assert(sim::SmallCallback::fits_inline<TxPayload>());

class AllocWindow {
 public:
  AllocWindow() : news_(g_news), deletes_(g_deletes) {}
  [[nodiscard]] std::uint64_t news() const { return g_news - news_; }
  [[nodiscard]] std::uint64_t deletes() const { return g_deletes - deletes_; }

 private:
  std::uint64_t news_;
  std::uint64_t deletes_;
};

TEST(AllocSteady, CountingHookIsLive) {
  AllocWindow w;
  auto* p = new int(7);
  delete p;
  EXPECT_GE(w.news(), 1u);
  EXPECT_GE(w.deletes(), 1u);
}

TEST(AllocSteady, SchedulerScheduleRunCyclesAllocateNothing) {
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  TxPayload payload;
  std::int64_t t = 0;
  const auto cycle = [&](int batches) {
    for (int b = 0; b < batches; ++b) {
      for (int i = 0; i < 512; ++i) {
        sched.schedule_at(sim::nanoseconds(++t),
                          [&sink, payload] { sink += payload.words[0]; });
      }
      sched.run_all();
    }
  };
  cycle(4);  // warm: pool chunks + heap capacity
  AllocWindow w;
  cycle(64);
  const std::uint64_t news = w.news();
  const std::uint64_t deletes = w.deletes();
  EXPECT_EQ(news, 0u) << "scheduler steady state allocated";
  EXPECT_EQ(deletes, 0u);
  EXPECT_EQ(sink, static_cast<std::uint64_t>((4 + 64) * 512));  // all ran
}

TEST(AllocSteady, SchedulerCancelChurnAllocatesNothing) {
  sim::Scheduler sched;
  sched.schedule_at(sim::milliseconds(1'000), [] {});  // keep heap non-empty
  const auto churn = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const sim::EventId id =
          sched.schedule_at(sim::milliseconds(500), [] {});
      sched.cancel(id);
    }
  };
  churn(1'000);  // warm past compaction cycles
  AllocWindow w;
  churn(100'000);
  const std::uint64_t news = w.news();
  const std::uint64_t deletes = w.deletes();
  EXPECT_EQ(news, 0u) << "cancel churn allocated";
  EXPECT_EQ(deletes, 0u);
}

TEST(AllocSteady, SchedulerLaneCyclesAllocateNothing) {
  // Each 50 ns round schedules 300 events onto a 100 ns lane, cancels one
  // in four and runs the round before last: about 600 entries stay queued
  // and the ring's head walks around it. Once the ring reaches that
  // high-water mark, schedule/run/cancel must not allocate.
  sim::Scheduler sched;
  const sim::LaneId lane = sched.lane(sim::nanoseconds(100));
  std::uint64_t sink = 0;
  TxPayload payload;
  const auto cycle = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < 300; ++i) {
        const sim::EventId id = sched.schedule_on(
            lane, [&sink, payload] { sink += payload.words[0]; });
        if (i % 4 == 0) sched.cancel(id);
      }
      sched.run_until(sched.now() + sim::nanoseconds(50));
    }
  };
  cycle(8);  // warm: pool chunks + ring capacity
  AllocWindow w;
  const std::uint64_t before = sched.executed();
  cycle(256);
  const std::uint64_t news = w.news();
  const std::uint64_t deletes = w.deletes();
  EXPECT_EQ(news, 0u) << "lane steady state allocated";
  EXPECT_EQ(deletes, 0u);
  EXPECT_EQ(sched.executed() - before, 256u * 225u);
}

TEST(AllocSteady, FifoQueueSteadyStateAllocatesNothing) {
  net::FifoQueue queue;
  net::Packet pkt;
  pkt.size_bytes = 1000;
  for (int i = 0; i < 40; ++i) {
    queue.push(net::QueueEntry{pkt, 0}, sim::Time::zero());
  }
  net::QueueEntry head;
  AllocWindow w;
  // Push/pop around the ring at standing occupancy: wraps many times but
  // never grows.
  for (int i = 0; i < 100'000; ++i) {
    queue.push(net::QueueEntry{pkt, 0}, sim::Time::zero());
    (void)queue.pop(head, sim::Time::zero());
  }
  const std::uint64_t news = w.news();
  const std::uint64_t deletes = w.deletes();
  EXPECT_EQ(news, 0u) << "ring buffer steady state allocated";
  EXPECT_EQ(deletes, 0u);
  EXPECT_EQ(queue.packets(), 40);
}

TEST(AllocSteady, LeafSpineDcqcnSteadyWindowAllocatesNothing) {
  // A saturating long flow on a small leaf-spine fabric: after the window
  // warms up (routing tables, per-flow state, rate limiter events), the
  // packet-by-packet DES steady state must be allocation-free.
  sim::Scheduler sched;
  net::Network net(sched, 1);
  net::LeafSpineConfig topo_cfg;
  topo_cfg.num_spines = 2;
  topo_cfg.num_leaves = 2;
  topo_cfg.hosts_per_leaf = 2;
  (void)net::build_fabric(net, net::TopologySpec(topo_cfg));
  transport::FctRecorder rec;
  transport::RdmaTransport transport(net, {}, &rec);
  transport::FlowSpec spec;
  spec.src = 0;
  spec.dst = 2;  // cross-leaf: traverses a spine
  spec.size_bytes = 50'000'000;  // long flow, outlives both windows
  transport.start_flow(spec);
  sched.run_until(sim::milliseconds(2));  // warm-up window
  ASSERT_GT(sched.executed(), 1'000u);
  AllocWindow w;
  const std::uint64_t before = sched.executed();
  sched.run_until(sim::milliseconds(4));  // measured steady window
  const std::uint64_t news = w.news();
  const std::uint64_t deletes = w.deletes();
  ASSERT_GT(sched.executed(), before + 1'000u);
  EXPECT_EQ(news, 0u) << "DCQCN datapath steady state allocated";
  EXPECT_EQ(deletes, 0u);
}

TEST(AllocSteady, DdqnLearnerPhaseAllocatesNothingFromTheFirstStep) {
  // ACC runs this phase on fork-join workers: the DDQN step on the copied
  // minibatch and the epsilon-greedy act. Drawing the minibatch
  // (sample_batch) runs on the event thread, is not counted, and sizes the
  // phase's scratch on its first call, so even the first step allocates
  // nothing, and neither does a target-network sync.
  rl::DdqnConfig cfg;
  cfg.input_size = 18;
  cfg.head_sizes = {10, 10, 20};
  cfg.batch_size = 32;
  cfg.target_sync_interval = 50;
  cfg.seed = 3;
  auto replay = std::make_shared<rl::ReplayBuffer>(256);
  rl::DdqnAgent agent(cfg, replay, 0);
  sim::Rng rng(9);
  for (int i = 0; i < 64; ++i) {
    rl::DqnTransition t;
    t.state.assign(18, 0.0);
    t.next_state.assign(18, 0.0);
    for (std::size_t k = 0; k < 18; ++k) {
      t.state[k] = rng.uniform();
      t.next_state[k] = rng.uniform();
    }
    t.actions = {static_cast<std::int32_t>(rng.uniform_int(10)),
                 static_cast<std::int32_t>(rng.uniform_int(10)),
                 static_cast<std::int32_t>(rng.uniform_int(20))};
    t.reward = rng.uniform();
    agent.observe(std::move(t));
  }
  const std::vector<double> state(18, 0.25);
  std::vector<std::int32_t> actions(3);
  std::uint64_t news = 0;
  std::uint64_t deletes = 0;
  for (int step = 0; step < 120; ++step) {
    agent.sample_batch();
    AllocWindow w;
    agent.train_on_batch();
    agent.act(state, rng, actions);
    news += w.news();
    deletes += w.deletes();
  }
  EXPECT_EQ(agent.train_steps(), 120);
  EXPECT_EQ(news, 0u) << "DDQN step or act allocated";
  EXPECT_EQ(deletes, 0u);
}

}  // namespace
}  // namespace pet
