#include "exp/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "exp/json.hpp"
#include "exp/metrics.hpp"
#include "exp/run_artifact.hpp"
#include "sim/fork_join.hpp"
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

/// The manifest scenario block recorded in an artifact's text, dumped;
/// empty when the artifact has none.
std::string recorded_scenario(const std::string& text) {
  const std::optional<JsonValue> doc = JsonValue::parse(text);
  const JsonValue* manifest = doc ? doc->find("manifest") : nullptr;
  const JsonValue* scenario =
      manifest != nullptr ? manifest->find("scenario") : nullptr;
  return scenario != nullptr ? scenario->dump() : std::string();
}

std::string format_point_id(Scheme scheme, double load, std::uint64_t seed) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s_load%g_seed%llu", scheme_name(scheme),
                load, static_cast<unsigned long long>(seed));
  return buf;
}

}  // namespace

std::vector<SweepPoint> SweepGrid::expand() const {
  const std::vector<Scheme> ax_scheme =
      schemes.empty() ? std::vector<Scheme>{base.scheme} : schemes;
  const std::vector<double> ax_load =
      loads.empty() ? std::vector<double>{base.load} : loads;
  const std::vector<std::uint64_t> ax_seed =
      seeds.empty() ? std::vector<std::uint64_t>{base.seed} : seeds;
  std::vector<SweepPoint> points;
  points.reserve(ax_scheme.size() * ax_load.size() * ax_seed.size());
  for (const Scheme scheme : ax_scheme) {
    for (const double load : ax_load) {
      for (const std::uint64_t seed : ax_seed) {
        SweepPoint p;
        p.index = static_cast<std::int32_t>(points.size());
        p.id = format_point_id(scheme, load, seed);
        p.cfg = base;
        p.cfg.scheme = scheme;
        p.cfg.load = load;
        p.cfg.seed = seed;
        points.push_back(std::move(p));
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

SweepRunner::PointStatus SweepRunner::run_point(const SweepPoint& point) {
  PointStatus status;
  status.id = point.id;

  if (cfg_.resume) {
    if (const auto text = read_text_file(point_artifact_path(point))) {
      // A valid artifact recorded for this point's scenario is the
      // completion marker.
      std::string error;
      if (!RunArtifact::validate_text(*text, &error)) {
        std::fprintf(stderr, "sweep: re-running %s (invalid artifact: %s)\n",
                     point.id.c_str(), error.c_str());
      } else if (recorded_scenario(*text) != scenario_json(point.cfg).dump()) {
        std::fprintf(stderr,
                     "sweep: re-running %s (artifact records another "
                     "scenario)\n",
                     point.id.c_str());
      } else {
        status.completed = true;
        return status;
      }
    }
  }

  if (stop_.load(std::memory_order_relaxed)) {
    status.status = "stopped";
    return status;
  }
  status.attempts = 1;
  std::string error = "artifact write failed";
  try {
    Experiment ex(point.cfg);
    bool finished = false;
    const Metrics m = ex.run_chunked(
        sim::milliseconds(1),
        [this] { return !stop_.load(std::memory_order_relaxed); }, &finished);
    if (!finished) {
      status.status = "stopped";
      return status;
    }
    // The metrics block of a standalone bench artifact, plus the per-tier
    // roll-up so the merged sweep artifact carries it for every point.
    RunArtifact art("point_" + point.id);
    art.set_mode("sweep");
    art.set_seed(point.cfg.seed);
    art.set_scenario(point.cfg);
    art.add_metrics("", m);
    art.add_metric("tiers", tier_summaries_json(ex.topology(), ex.network()));
    if (art.write(point_artifact_path(point))) {
      note_durable_write();
      status.completed = true;
      return status;
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  status.status = "failed";
  std::fprintf(stderr, "sweep: %s failed (%s)\n", point.id.c_str(),
               error.c_str());
  return status;
}

void SweepRunner::write_merged_artifact(Result& result,
                                        std::int32_t threads) const {
  // The manifest names a scenario some point ran: the first one.
  RunArtifact merged(grid_.name);
  merged.set_mode("sweep");
  merged.set_seed(points_.front().cfg.seed);
  merged.set_threads(threads);
  merged.set_scenario(points_.front().cfg);

  JsonValue sweep = JsonValue::object();
  JsonValue points = JsonValue::array();
  for (const PointStatus& st : result.points) {
    JsonValue row = JsonValue::object();
    row.set("id", st.id);
    row.set("status", st.status);
    row.set("attempts", st.attempts);
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
  const std::string path = merged_artifact_path();
  if (merged.write(path)) result.artifact_path = path;
}

SweepRunner::Result SweepRunner::run() {
  points_ = grid_.expand();
  // Reject settings the sweep cannot run before any thread starts or file
  // is written: one invalid load must not abort the process halfway
  // through a grid, two points with one id would race on one artifact, and
  // an unusable output directory would fail every point.
  std::set<std::string> ids;
  for (const SweepPoint& p : points_) {
    try {
      p.cfg.validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("sweep point " + p.id + ": " + e.what());
    }
    if (!ids.insert(p.id).second) {
      throw std::invalid_argument("sweep point " + p.id +
                                  ": appears twice in the grid");
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg_.out_dir, ec);
  if (ec) {
    throw std::invalid_argument("sweep: cannot create output directory " +
                                cfg_.out_dir + ": " + ec.message());
  }
  if (!std::filesystem::is_directory(cfg_.out_dir, ec)) {
    throw std::invalid_argument("sweep: output directory " + cfg_.out_dir +
                                " is not a directory");
  }

  std::int32_t threads = cfg_.threads;
  if (threads <= 0) threads = static_cast<std::int32_t>(sim::usable_cpus());
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

  Result result;
  result.points = std::move(statuses);
  for (const PointStatus& st : result.points) {
    if (st.completed) ++result.completed;
    if (st.status == "failed") ++result.failed;
  }
  write_merged_artifact(result, threads);
  return result;
}

}  // namespace pet::exp
