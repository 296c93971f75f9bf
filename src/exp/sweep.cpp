#include "exp/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exp/metrics.hpp"
#include "exp/replica_runner.hpp"
#include "exp/run_artifact.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace pet::exp {

namespace {

/// Whole-file read for per-point artifacts; empty optional on any error.
std::optional<std::string> read_text_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return text;
}

std::string format_point_id(Scheme scheme, double load, std::uint64_t seed) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s_load%g_seed%llu", scheme_name(scheme),
                load, static_cast<unsigned long long>(seed));
  return buf;
}

std::string hex_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Per-attempt rendezvous between the supervising pool worker and the
/// attempt thread. Heap-shared so an abandoned (hung) attempt can finish
/// writing its outcome after the supervisor has moved on.
struct AttemptShared {
  std::mutex m;
  std::condition_variable cv;
  bool done PET_GUARDED_BY(m) = false;
  std::atomic<bool> cancel{false};
};

}  // namespace

std::vector<SweepPoint> SweepGrid::expand(std::int32_t train_episodes) const {
  // An empty topology axis is a single unnamed point on the base topology,
  // which keeps the historical "<scheme>_load<g>_seed<n>" ids.
  const std::vector<NamedTopologySpec> ax_topo =
      topologies.empty()
          ? std::vector<NamedTopologySpec>{NamedTopologySpec{"", base.topo}}
          : topologies;
  const std::vector<Scheme> ax_scheme =
      schemes.empty() ? std::vector<Scheme>{base.scheme} : schemes;
  const std::vector<double> ax_load =
      loads.empty() ? std::vector<double>{base.load} : loads;
  const std::vector<std::uint64_t> ax_seed =
      seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;
  std::vector<SweepPoint> points;
  points.reserve(ax_topo.size() * ax_scheme.size() * ax_load.size() *
                 ax_seed.size());
  for (const NamedTopologySpec& topo : ax_topo) {
    for (const Scheme scheme : ax_scheme) {
      for (const double load : ax_load) {
        for (const std::uint64_t seed : ax_seed) {
          SweepPoint p;
          p.index = static_cast<std::int32_t>(points.size());
          p.id = format_point_id(scheme, load, seed);
          if (!topo.name.empty()) p.id = topo.name + "_" + p.id;
          p.cfg = base;
          p.cfg.topo = topo.spec;
          p.cfg.scheme = scheme;
          p.cfg.load = load;
          p.cfg.seed = seed;
          p.training = train_episodes > 0 && (scheme == Scheme::kPet ||
                                              scheme == Scheme::kPetAblation);
          points.push_back(std::move(p));
        }
      }
    }
  }
  return points;
}

SweepRunner::SweepRunner(SweepGrid grid, SweepRunnerConfig cfg)
    : grid_(std::move(grid)), cfg_(std::move(cfg)) {}

std::string SweepRunner::point_artifact_path(const SweepPoint& p) const {
  return cfg_.out_dir + "/point_" + p.id + ".json";
}

std::string SweepRunner::point_checkpoint_path(const SweepPoint& p) const {
  return cfg_.out_dir + "/point_" + p.id + ".ckpt";
}

std::string SweepRunner::merged_artifact_path() const {
  return cfg_.out_dir + "/sweep_" + grid_.name + ".json";
}

void SweepRunner::note_durable_write() {
  const std::int32_t n =
      durable_writes_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (cfg_.crash_after_writes > 0 && n >= cfg_.crash_after_writes) {
    std::fprintf(stderr,
                 "sweep: injected crash after %d durable writes\n", n);
    std::fflush(stderr);
    std::_Exit(137);
  }
}

bool SweepRunner::write_point_artifact(const SweepPoint& point,
                                       const JsonValue& metrics) {
  RunArtifact art("point_" + point.id);
  art.set_mode("sweep");
  art.set_seed(point.cfg.seed);
  art.set_threads(1);
  art.set_scenario(point.cfg);
  for (const auto& [key, value] : metrics.members()) {
    art.add_metric(key, value);
  }
  if (!art.write(point_artifact_path(point))) return false;
  note_durable_write();
  return true;
}

SweepRunner::AttemptOutcome SweepRunner::run_training_attempt(
    const SweepPoint& point, const std::atomic<bool>& cancel,
    bool allow_resume) {
  AttemptOutcome out;
  ReplicaRunnerConfig rr;
  rr.replicas = cfg_.replicas;
  // Concurrency lives at the point level; replicas within a point run
  // sequentially so a sweep never oversubscribes the machine.
  rr.threads = 1;
  rr.episodes = cfg_.train_episodes;
  ReplicaRunner runner(point.cfg, rr);

  const std::string ckpt = point_checkpoint_path(point);
  // Resumed sweeps and retried attempts continue from the latest
  // checkpoint; a fresh (resume=false) first attempt ignores stale
  // checkpoints on disk.
  if (allow_resume) {
    std::string error;
    if (runner.load_checkpoint(ckpt, &error)) {
      out.resumed = true;
      out.resumed_from_episode = runner.next_episode();
    } else if (std::filesystem::exists(ckpt)) {
      std::fprintf(stderr, "sweep: ignoring checkpoint %s (%s)\n",
                   ckpt.c_str(), error.c_str());
    }
  }

  while (runner.next_episode() < cfg_.train_episodes) {
    if (cancel.load(std::memory_order_relaxed) ||
        stop_.load(std::memory_order_relaxed)) {
      out.error = "cancelled";
      return out;
    }
    static_cast<void>(runner.run_episode());
    const std::int32_t episodes_done = runner.next_episode();
    if (cfg_.checkpoint_every > 0 &&
        (episodes_done % cfg_.checkpoint_every == 0 ||
         episodes_done == cfg_.train_episodes)) {
      if (runner.save_checkpoint(ckpt)) {
        note_durable_write();
      } else {
        std::fprintf(stderr, "sweep: failed to checkpoint %s\n",
                     ckpt.c_str());
      }
    }
  }

  if (cancel.load(std::memory_order_relaxed)) {
    out.error = "cancelled";
    return out;
  }
  std::size_t transitions = 0;
  for (const ReplicaRunner::EpisodeStats& st : runner.history()) {
    transitions += st.transitions;
  }
  JsonValue metrics = JsonValue::object();
  metrics.set("episodes",
              static_cast<double>(runner.history().size()));
  metrics.set("total_transitions", static_cast<double>(transitions));
  metrics.set("final_mean_reward", runner.history().empty()
                                       ? 0.0
                                       : runner.history().back().mean_reward);
  metrics.set("rollout_digest", hex_u64(runner.last_digest()));
  out.ok = write_point_artifact(point, metrics);
  if (!out.ok) out.error = "artifact write failed";
  return out;
}

SweepRunner::AttemptOutcome SweepRunner::run_eval_attempt(
    const SweepPoint& point, const std::atomic<bool>& cancel) {
  AttemptOutcome out;
  Experiment ex(point.cfg);
  bool completed = false;
  const Metrics m = ex.run_chunked(
      sim::milliseconds(1),
      [this, &cancel] {
        return !cancel.load(std::memory_order_relaxed) &&
               !stop_.load(std::memory_order_relaxed);
      },
      &completed);
  if (!completed) {
    out.error = "cancelled";
    return out;
  }
  // Mirror the add_metrics() layout through a scratch artifact so per-point
  // metric keys match standalone bench artifacts exactly. The per-tier
  // roll-up rides in the metrics block so the merged sweep artifact
  // carries it for every point.
  RunArtifact scratch("scratch");
  scratch.add_metrics("", m);
  scratch.add_metric("tiers", tier_summaries_json(ex.topology(), ex.network()));
  const JsonValue doc = scratch.to_json();
  const JsonValue* metrics = doc.find("metrics");
  out.ok = metrics != nullptr && write_point_artifact(point, *metrics);
  if (!out.ok) out.error = "artifact write failed";
  return out;
}

SweepRunner::AttemptOutcome SweepRunner::run_attempt(
    const SweepPoint& point, const std::atomic<bool>& cancel,
    bool allow_resume) {
  return point.training ? run_training_attempt(point, cancel, allow_resume)
                        : run_eval_attempt(point, cancel);
}

SweepRunner::PointStatus SweepRunner::run_point(const SweepPoint& point) {
  PointStatus status;
  status.id = point.id;

  if (cfg_.resume) {
    if (const auto text = read_text_file(point_artifact_path(point))) {
      std::string error;
      if (RunArtifact::validate_text(*text, &error)) {
        status.status = "ok";
        status.completed = true;
        return status;  // a valid artifact is the completion marker
      }
      std::fprintf(stderr, "sweep: re-running %s (invalid artifact: %s)\n",
                   point.id.c_str(), error.c_str());
    }
  }

  for (std::int32_t attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (stop_.load(std::memory_order_relaxed)) {
      status.status = "stopped";
      return status;
    }
    ++status.attempts;

    auto shared = std::make_shared<AttemptShared>();
    auto outcome = std::make_shared<AttemptOutcome>();
    std::thread worker([this, shared, outcome, &point, attempt] {
      AttemptOutcome out;
      try {
        if (cfg_.attempt_hook) cfg_.attempt_hook(point, attempt);
        if (shared->cancel.load(std::memory_order_relaxed)) {
          out.error = "cancelled";
        } else {
          out = run_attempt(point, shared->cancel,
                            cfg_.resume || attempt > 0);
        }
      } catch (const std::exception& e) {
        out.ok = false;
        out.error = e.what();
      }
      std::lock_guard<std::mutex> lk(shared->m);
      *outcome = std::move(out);
      shared->done = true;
      shared->cv.notify_all();
    });

    bool finished = false;
    {
      std::unique_lock<std::mutex> lk(shared->m);
      if (cfg_.watchdog_seconds > 0.0) {
        finished = shared->cv.wait_for(
            lk, std::chrono::duration<double>(cfg_.watchdog_seconds),
            [&shared] { return shared->done; });
        if (!finished) {
          // Deadline exceeded: cancel cooperatively, then grant a grace
          // window before abandoning the attempt.
          shared->cancel.store(true, std::memory_order_relaxed);
          finished = shared->cv.wait_for(
              lk, std::chrono::duration<double>(cfg_.grace_seconds),
              [&shared] { return shared->done; });
        }
      } else {
        shared->cv.wait(lk, [&shared] { return shared->done; });
        finished = true;
      }
    }

    AttemptOutcome out;
    if (finished) {
      worker.join();
      out = *outcome;
    } else {
      // Abandoned: the thread still holds `shared`/`outcome` and will
      // observe the cancel flag at its next poll; run() joins it before
      // returning so it never outlives the runner.
      {
        std::lock_guard<std::mutex> lk(abandoned_mutex_);
        abandoned_.push_back(std::move(worker));
      }
      out.ok = false;
      out.error = "watchdog deadline exceeded";
      std::fprintf(stderr, "sweep: %s attempt %d exceeded %.1fs watchdog\n",
                   point.id.c_str(), attempt, cfg_.watchdog_seconds);
    }

    if (out.resumed && status.resumed_from_episode == 0) {
      status.resumed_from_episode = out.resumed_from_episode;
    }
    if (out.ok) {
      status.completed = true;
      if (status.attempts > 1) {
        status.status = "retried";
      } else if (out.resumed) {
        status.status = "resumed";
      } else {
        status.status = "ok";
      }
      return status;
    }
    if (stop_.load(std::memory_order_relaxed)) {
      status.status = "stopped";
      return status;
    }
    if (attempt < cfg_.max_retries) {
      // Capped exponential backoff with deterministic seeded jitter: the
      // retry schedule replays identically for a given (grid seed, point,
      // attempt) so fault-tolerance tests stay reproducible.
      sim::Rng jitter(sim::Stream(grid_.base.seed)
                          .child("sweep-retry")
                          .child(static_cast<std::uint64_t>(point.index))
                          .child(static_cast<std::uint64_t>(attempt))
                          .seed());
      const double base = std::min(
          cfg_.backoff_cap_seconds,
          cfg_.backoff_base_seconds * std::pow(2.0, static_cast<double>(attempt)));
      const double delay = base * (0.5 + 0.5 * jitter.uniform());
      std::fprintf(stderr, "sweep: retrying %s in %.2fs (%s)\n",
                   point.id.c_str(), delay, out.error.c_str());
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  }

  status.status = "quarantined";
  std::fprintf(stderr, "sweep: quarantined %s after %d attempts\n",
               point.id.c_str(), status.attempts);
  return status;
}

void SweepRunner::write_merged_artifact(Result& result) const {
  RunArtifact merged(grid_.name);
  merged.set_mode("sweep");
  merged.set_seed(grid_.base.seed);
  merged.set_threads(cfg_.threads);
  merged.set_scenario(grid_.base);

  JsonValue sweep = JsonValue::object();
  JsonValue points = JsonValue::array();
  for (const PointStatus& st : result.points) {
    JsonValue row = JsonValue::object();
    row.set("id", st.id);
    row.set("status", st.status);
    row.set("attempts", st.attempts);
    row.set("resumed_from_episode", st.resumed_from_episode);
    points.push_back(std::move(row));
  }
  sweep.set("points", std::move(points));
  merged.set_manifest_extra("sweep", std::move(sweep));

  merged.add_metric("points_total",
                    static_cast<double>(result.points.size()));
  merged.add_metric("points_completed", static_cast<double>(result.completed));
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (!result.points[i].completed) continue;
    const auto text = read_text_file(point_artifact_path(points_[i]));
    if (!text) {
      std::fprintf(stderr, "sweep: missing artifact for %s\n",
                   points_[i].id.c_str());
      continue;
    }
    std::string error;
    const auto doc = JsonValue::parse(*text, &error);
    const JsonValue* metrics = doc ? doc->find("metrics") : nullptr;
    if (metrics == nullptr) {
      std::fprintf(stderr, "sweep: unreadable artifact for %s (%s)\n",
                   points_[i].id.c_str(), error.c_str());
      continue;
    }
    merged.add_metric(points_[i].id, *metrics);
  }
  result.artifact_path = merged_artifact_path();
  static_cast<void>(merged.write(result.artifact_path));
}

SweepRunner::Result SweepRunner::run() {
  points_ = grid_.expand(cfg_.train_episodes);
  // Reject a bad point before any thread starts or file is written: one
  // invalid load must not abort the process halfway through a grid.
  for (const SweepPoint& p : points_) {
    try {
      p.cfg.validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("sweep point " + p.id + ": " + e.what());
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg_.out_dir, ec);

  std::int32_t threads = cfg_.threads;
  if (threads <= 0) {
    threads = static_cast<std::int32_t>(std::thread::hardware_concurrency());
  }
  threads = std::max(
      1, std::min(threads, static_cast<std::int32_t>(points_.size())));

  std::vector<PointStatus> statuses(points_.size());
  std::atomic<std::size_t> ticket{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (std::int32_t t = 0; t < threads; ++t) {
    pool.emplace_back([this, &ticket, &statuses] {
      for (;;) {
        const std::size_t i =
            ticket.fetch_add(1, std::memory_order_relaxed);
        if (i >= points_.size()) return;
        statuses[i] = run_point(points_[i]);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  // Abandoned attempts hold references into this runner; wait for them to
  // observe cancellation and wind down before publishing results.
  {
    std::lock_guard<std::mutex> lk(abandoned_mutex_);
    for (std::thread& th : abandoned_) {
      if (th.joinable()) th.join();
    }
    abandoned_.clear();
  }

  Result result;
  result.points = std::move(statuses);
  for (const PointStatus& st : result.points) {
    if (st.completed) ++result.completed;
    if (st.status == "quarantined") ++result.quarantined;
  }
  write_merged_artifact(result);
  return result;
}

}  // namespace pet::exp
