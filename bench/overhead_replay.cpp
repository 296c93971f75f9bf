// Overhead experiment (supports Goal 3 / Section 4.3.1): quantify the
// memory and bandwidth cost of ACC's global experience replay, which PET's
// independent on-policy learning avoids. Not a paper figure; it
// substantiates the paper's motivating overhead argument with numbers.

#include <memory>

#include "acc/acc_agent.hpp"
#include "common.hpp"
#include "core/controller.hpp"

int main(int argc, char** argv) {
  using namespace pet;
  const bench::BenchOptions opt = bench::parse_options(argc, argv);
  bench::print_header(opt,
                      "Overhead - global experience replay (ACC) vs "
                      "independent learning (PET)",
                      "PET paper Sections 1/4.3.1 (overhead claims)");
  exp::RunArtifact art = bench::make_artifact(opt, "overhead_replay");

  const double load = 0.6;

  // ACC: run and read the shared replay's accounting.
  auto acc_exp = std::make_unique<exp::Experiment>(bench::make_scenario(
      opt, exp::Scheme::kAcc, workload::WorkloadKind::kWebSearch, load));
  const exp::ScenarioConfig acc_cfg = acc_exp->config();
  acc_exp->run_until(acc_cfg.pretrain + acc_cfg.measure);
  auto* acc = acc_exp->acc();
  const double sim_sec = (acc_cfg.pretrain + acc_cfg.measure).sec();
  const std::size_t resident = acc->global_replay().resident_bytes();
  const std::size_t exchange = acc->replay_exchange_bytes();
  const std::size_t agents = acc->num_agents();

  // PET: the on-policy rollout is the only experience a switch stores.
  auto pet_exp = std::make_unique<exp::Experiment>(bench::make_scenario(
      opt, exp::Scheme::kPet, workload::WorkloadKind::kWebSearch, load));
  const exp::ScenarioConfig pet_cfg = pet_exp->config();
  pet_exp->run_until(pet_cfg.pretrain + pet_cfg.measure);
  auto* pet_ctl = pet_exp->pet();
  const auto& ppo_cfg = pet_ctl->agent(0).policy().config();
  // One transition: state + actions + logprob + value + reward.
  const std::size_t transition_bytes =
      sizeof(double) * (static_cast<std::size_t>(ppo_cfg.input_size) + 3) +
      sizeof(std::int32_t) * ppo_cfg.head_sizes.size();
  const std::size_t pet_resident = 32 /*rollout_length*/ * transition_bytes;

  exp::Table table({"metric", "ACC (global replay)", "PET (IPPO)"});
  table.add_row({"agents (switches)", exp::fmt("%zu", agents),
                 exp::fmt("%zu", pet_ctl->num_agents())});
  table.add_row({"experience resident per switch",
                 exp::fmt("%.1f KB", static_cast<double>(resident) / 1024.0),
                 exp::fmt("%.2f KB", static_cast<double>(pet_resident) / 1024.0)});
  table.add_row(
      {"replay exchange traffic (total)",
       exp::fmt("%.1f KB over %.0f ms", static_cast<double>(exchange) / 1024.0, sim_sec * 1e3),
       "0 (no experience sharing)"});
  table.add_row({"exchange bandwidth per switch",
                 exp::fmt("%.2f Mbps",
                          static_cast<double>(exchange) / static_cast<double>(agents) * 8.0 /
                              sim_sec / 1e6),
                 "0 Mbps"});
  table.add_row({"NCM tracked flows (bounded)",
                 exp::fmt("%zu", acc->agent(0).ncm().tracked_flows()),
                 exp::fmt("%zu", pet_ctl->agent(0).ncm().tracked_flows())});
  table.print();

  std::printf(
      "\npaper claim: DDQN's global replay costs switch memory and fabric "
      "bandwidth; IPPO needs neither. The table quantifies both costs in "
      "this reproduction.\n");
  art.add_metric("acc.replay_resident_bytes", static_cast<double>(resident));
  art.add_metric("acc.replay_exchange_bytes", static_cast<double>(exchange));
  art.add_metric("acc.agents", static_cast<double>(agents));
  art.add_metric("pet.rollout_resident_bytes",
                 static_cast<double>(pet_resident));
  art.add_metric("pet.replay_exchange_bytes", 0.0);
  bench::record_run(opt, art, *pet_exp);
  bench::write_artifact(opt, art);
  return 0;
}
