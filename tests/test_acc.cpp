#include "acc/acc_agent.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/fork_join.hpp"

namespace pet::acc {
namespace {

struct AccFixture : ::testing::Test {
  sim::Scheduler sched;
  net::Network net{sched, 61};
  std::vector<net::SwitchDevice*> switches;

  void build(int num_switches = 2, int hosts_each = 2) {
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int s = 0; s < num_switches; ++s) {
      auto& sw = net.add_switch({});
      switches.push_back(&sw);
      for (int i = 0; i < hosts_each; ++i) {
        auto& h = net.add_host(nic);
        net.connect(h.id(), sw.id(), nic.rate, nic.propagation_delay);
      }
    }
    net.recompute_routes();
  }

  AccControllerConfig controller_config() {
    AccControllerConfig cfg;
    cfg.agent.tuning_interval = sim::microseconds(100);
    cfg.agent.ddqn.hidden = {16};
    cfg.agent.ddqn.batch_size = 8;
    return cfg;
  }
};

TEST_F(AccFixture, AgentsShareOneGlobalReplay) {
  build();
  AccController ctl(sched, switches, controller_config(), 1);
  ctl.start();
  sched.run_until(sim::milliseconds(2));
  // Both agents observed transitions into the same buffer.
  EXPECT_GT(ctl.global_replay().size(), 20u);
  EXPECT_GT(ctl.global_replay().bytes_from_others(switches[0]->id()), 0u);
  EXPECT_GT(ctl.global_replay().bytes_from_others(switches[1]->id()), 0u);
}

TEST_F(AccFixture, ReplayExchangeBytesGrowWithTraining) {
  build();
  AccController ctl(sched, switches, controller_config(), 2);
  ctl.start();
  sched.run_until(sim::milliseconds(1));
  const auto early = ctl.replay_exchange_bytes();
  EXPECT_GT(early, 0u);
  sched.run_until(sim::milliseconds(3));
  EXPECT_GT(ctl.replay_exchange_bytes(), early);
}

TEST_F(AccFixture, TickAppliesValidEcnConfig) {
  build(1);
  AccController ctl(sched, switches, controller_config(), 3);
  ctl.start();
  sched.run_until(sim::milliseconds(1));
  const auto& cfg = ctl.agent(0).current_config();
  EXPECT_TRUE(cfg.valid());
  EXPECT_LE(cfg.kmin_bytes, cfg.kmax_bytes);
  for (std::int32_t p = 0; p < switches[0]->num_ports(); ++p) {
    EXPECT_EQ(switches[0]->port(p).ecn_config(0), cfg);
  }
}

TEST_F(AccFixture, StateIsBasicSetOnly) {
  build(1);
  AccAgentConfig cfg;
  EXPECT_FALSE(cfg.state.include_incast);
  EXPECT_FALSE(cfg.state.include_flow_ratio);
  const core::StateBuilder sb(cfg.state, cfg.action_space);
  EXPECT_EQ(sb.slot_features(), 6);
}

TEST_F(AccFixture, TrainingProgresses) {
  build(1);
  AccController ctl(sched, switches, controller_config(), 4);
  ctl.start();
  sched.run_until(sim::milliseconds(3));
  EXPECT_GT(ctl.agent(0).learner().train_steps(), 0);
  EXPECT_GT(ctl.agent(0).reward_stats().count(), 10u);
}

TEST_F(AccFixture, InstallWeightsSynchronizesAgents) {
  build(2);
  AccController ctl(sched, switches, controller_config(), 6);
  const auto w = ctl.agent(0).learner().weights();
  ASSERT_TRUE(ctl.install_weights(w));
  EXPECT_EQ(ctl.agent(1).learner().weights(), w);
}

TEST_F(AccFixture, LrScaleMultipliesTheConfiguredRate) {
  build(1);
  AccControllerConfig cfg = controller_config();
  cfg.agent.ddqn.lr = 5e-4;
  AccController ctl(sched, switches, cfg, 8);
  ctl.set_lr_scale(2.0);
  EXPECT_DOUBLE_EQ(ctl.agent(0).learner().lr(), 1e-3);
  ctl.enter_deployment();
  EXPECT_DOUBLE_EQ(ctl.agent(0).learner().lr(), 5e-4);
}

TEST_F(AccFixture, StopHaltsTicks) {
  build(1);
  AccController ctl(sched, switches, controller_config(), 7);
  ctl.start();
  sched.run_until(sim::milliseconds(1));
  ctl.stop();
  const auto steps = ctl.agent(0).steps();
  sched.run_until(sim::milliseconds(2));
  EXPECT_EQ(ctl.agent(0).steps(), steps);
}

// --- learner fan-out: bit for bit at every worker count -------------------

/// The tick order every controller run must reproduce: each agent's three
/// phases back to back, agent after agent (what a one-core ACC does).
class SequentialAcc final : public core::EcnTuner {
 public:
  SequentialAcc(sim::Scheduler& sched,
                std::span<net::SwitchDevice* const> switches,
                const AccControllerConfig& cfg, std::uint64_t seed)
      : EcnTuner(sched, cfg.agent.tuning_interval, "rl.acc-tick"),
        replay_(std::make_shared<rl::ReplayBuffer>(cfg.replay_capacity)) {
    for (net::SwitchDevice* sw : switches) {
      agents_.push_back(
          std::make_unique<AccAgent>(sched, *sw, cfg.agent, seed, replay_));
    }
  }
  [[nodiscard]] AccAgent& agent(std::size_t i) { return *agents_[i]; }
  [[nodiscard]] rl::ReplayBuffer& replay() { return *replay_; }

 protected:
  void tick() override {
    for (auto& a : agents_) {
      a->observe();
      a->learn();
      a->apply();
    }
  }

 private:
  std::shared_ptr<rl::ReplayBuffer> replay_;
  std::vector<std::unique_ptr<AccAgent>> agents_;
};

/// Named byte sections of everything a run leaves behind.
using Fingerprint = std::vector<std::pair<std::string, std::string>>;

template <typename T>
void add_bytes(Fingerprint& fp, std::string name, std::span<const T> values) {
  fp.emplace_back(std::move(name),
                  std::string(reinterpret_cast<const char*>(values.data()),
                              values.size_bytes()));
}

template <typename T>
void add_value(Fingerprint& fp, std::string name, const T& value) {
  add_bytes(fp, std::move(name), std::span<const T>(&value, 1));
}

/// Six switches with two hosts each, and a seeded injector that bursts
/// packets into every switch at times no tick shares (k * 10 us + 3 us),
/// so queues, rewards and states vary tick to tick.
struct SixSwitchRun {
  static constexpr int kSwitches = 6;
  sim::Scheduler sched;
  net::Network net{sched, 91};
  std::vector<net::SwitchDevice*> switches;
  std::vector<std::pair<net::HostId, net::HostId>> host_pairs;
  sim::Rng traffic{2024};
  std::uint64_t next_flow = 1;

  SixSwitchRun() {
    net::PortConfig nic;
    nic.rate = sim::gbps(10);
    nic.propagation_delay = sim::nanoseconds(100);
    for (int s = 0; s < kSwitches; ++s) {
      auto& sw = net.add_switch({});
      switches.push_back(&sw);
      auto& receiver = net.add_host(nic);
      net.connect(receiver.id(), sw.id(), nic.rate, nic.propagation_delay);
      auto& sender = net.add_host(nic);
      net.connect(sender.id(), sw.id(), nic.rate, nic.propagation_delay);
      host_pairs.emplace_back(sender.host_id(), receiver.host_id());
    }
    net.recompute_routes();
    sched.schedule_at(sim::microseconds(3), [this] { inject(); });
  }

  void inject() {
    for (int s = 0; s < kSwitches; ++s) {
      const auto burst = traffic.uniform_int(12);
      const net::FlowId flow = next_flow++;
      for (std::uint64_t k = 0; k < burst; ++k) {
        net::Packet pkt;
        pkt.flow_id = flow;
        pkt.src = host_pairs[static_cast<std::size_t>(s)].first;
        pkt.dst = host_pairs[static_cast<std::size_t>(s)].second;
        pkt.type = net::PacketType::kData;
        pkt.size_bytes = 1000;
        pkt.payload_bytes = 1000;
        pkt.seq = static_cast<std::uint32_t>(k);
        switches[static_cast<std::size_t>(s)]->receive(pkt, /*in_port=*/1);
      }
    }
    sched.schedule_in(sim::microseconds(10), [this] { inject(); });
  }

  static AccControllerConfig config() {
    AccControllerConfig cfg;
    cfg.agent.tuning_interval = sim::microseconds(100);
    cfg.agent.ddqn.hidden = {16};
    cfg.agent.ddqn.batch_size = 8;
    cfg.agent.ddqn.epsilon_decay_steps = 200;
    cfg.replay_capacity = 64;  // wraps within 11 ticks of six pushes
    return cfg;
  }

  /// 460 ticks: every agent trains on >= 450 of them, so each crosses the
  /// target syncs at train steps 200 and 400.
  static constexpr sim::Time kRunFor = sim::microseconds(46'050);

  template <typename Tuner>
  Fingerprint fingerprint(Tuner& tuner, rl::ReplayBuffer& replay) {
    Fingerprint fp;
    for (int s = 0; s < kSwitches; ++s) {
      AccAgent& a = tuner.agent(static_cast<std::size_t>(s));
      rl::DdqnAgent& l = a.learner();
      const std::string id = "agent" + std::to_string(s) + ".";
      const std::vector<double> w = l.weights();
      add_bytes(fp, id + "online", std::span<const double>(w));
      for (std::size_t h = 0; h < 3; ++h) {
        const rl::Mlp& t = l.target_head(h);
        for (std::size_t k = 0; k < t.num_layers(); ++k) {
          add_bytes(fp, id + "target.w", t.layer(k).weights());
          add_bytes(fp, id + "target.b", t.layer(k).biases());
        }
      }
      add_bytes(fp, id + "adam.m", l.optimizer().first_moments());
      add_bytes(fp, id + "adam.v", l.optimizer().second_moments());
      add_value(fp, id + "adam.t", l.optimizer().steps());
      add_value(fp, id + "train_steps", l.train_steps());
      add_value(fp, id + "sample_rng", l.sample_rng().state());
      add_value(fp, id + "rng", a.rng().state());
      add_value(fp, id + "steps", a.steps());
      add_value(fp, id + "ecn", a.current_config());
      const std::int32_t ports = switches[static_cast<std::size_t>(s)]->num_ports();
      for (std::int32_t p = 0; p < ports; ++p) {
        add_value(fp, id + "port_ecn",
                  switches[static_cast<std::size_t>(s)]->port(p).ecn_config(0));
      }
    }
    add_value(fp, "replay.size", replay.size());
    add_value(fp, "replay.bytes_pushed", replay.bytes_pushed());
    for (std::size_t i = 0; i < replay.size(); ++i) {
      const rl::DqnTransition& t = replay.at(i);
      const std::string id = "replay" + std::to_string(i) + ".";
      add_bytes(fp, id + "state", std::span<const double>(t.state));
      add_bytes(fp, id + "actions", std::span<const std::int32_t>(t.actions));
      add_value(fp, id + "reward", t.reward);
      add_bytes(fp, id + "next_state", std::span<const double>(t.next_state));
    }
    return fp;
  }
};

void expect_same_bytes(const Fingerprint& want, const Fingerprint& got,
                       const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].first, got[i].first) << label;
    ASSERT_EQ(want[i].second.size(), got[i].second.size())
        << label << ": " << want[i].first;
    EXPECT_EQ(std::memcmp(want[i].second.data(), got[i].second.data(),
                          want[i].second.size()),
              0)
        << label << ": " << want[i].first << " differs";
  }
}

TEST(AccFanOut, BitIdenticalToSequentialTicksAtEveryWorkerCount) {
  const AccControllerConfig cfg = SixSwitchRun::config();
  constexpr std::uint64_t kSeed = 17;

  SixSwitchRun ref_run;
  SequentialAcc ref(ref_run.sched, ref_run.switches, cfg, kSeed);
  ref.start();
  ref_run.sched.run_until(SixSwitchRun::kRunFor);
  for (int s = 0; s < SixSwitchRun::kSwitches; ++s) {
    ASSERT_GE(ref.agent(static_cast<std::size_t>(s)).learner().train_steps(),
              401);
  }
  ASSERT_EQ(ref.replay().size(), cfg.replay_capacity);
  const Fingerprint want = ref_run.fingerprint(ref, ref.replay());

  for (const std::size_t workers : {0, 1, 3}) {
    sim::ForkJoinPool pool(workers);
    SixSwitchRun run;
    AccController ctl(run.sched, run.switches, cfg, kSeed);
    ctl.run_on(pool);
    ctl.start();
    run.sched.run_until(SixSwitchRun::kRunFor);
    expect_same_bytes(want, run.fingerprint(ctl, ctl.global_replay()),
                      std::to_string(workers) + " workers");
  }
}

}  // namespace
}  // namespace pet::acc
