#pragma once
// sim::Profiler — cheap run-time instrumentation for the simulator.
//
// Two kinds of data are collected:
//   * sections: per-event-kind call counters + wall-clock totals. The
//     Scheduler feeds these automatically once attached (set_profiler);
//     event kinds are the `const char*` tags passed at schedule time.
//   * spans: explicit phase scopes (PET_PROFILE_SCOPE) carrying both a
//     wall-clock duration and a simulated-time interval, so a phase like
//     "pretrain" can be attributed in a report *and* replayed on a
//     chrome://tracing timeline (sim-time spans are deterministic; wall
//     times are not and stay out of trace exports).
//
// Not thread-safe: one Profiler belongs to one simulation stack (each
// point of a parallel sweep owns its own), exactly like the Scheduler it
// observes. Detached (nullptr) profilers cost a branch per use.

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pet::sim {

class Profiler {
 public:
  struct Section {
    std::string name;
    std::uint64_t calls = 0;
    double wall_ms = 0.0;
  };
  /// A closed phase scope. t0/t1 are simulated microseconds (0 when no
  /// time source is attached); wall_ms is host time spent inside.
  struct Span {
    std::string name;
    double t0_us = 0.0;
    double t1_us = 0.0;
    double wall_ms = 0.0;
  };

  Profiler() = default;
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Simulated-time source for spans (the Scheduler attaches itself when
  /// set_profiler is called; standalone users may supply their own).
  // pet-lint: allow(hot-path-alloc): time source is installed once at
  // attach time, never on the per-event path
  void set_time_source(std::function<double()> now_us) {
    now_us_ = std::move(now_us);
  }

  /// Bump a named counter without timing.
  void count(std::string_view name, std::uint64_t n = 1);

  /// Credit `wall_ms` of host time (and one call) to a named section.
  void add_time(std::string_view name, double wall_ms);

  /// Scheduler fast path: `kind` is a string literal whose pointer identity
  /// is stable for the process lifetime, so repeat events resolve without
  /// hashing the characters. String-literal merging across translation
  /// units is NOT guaranteed by the language, so identical tags from
  /// different TUs may arrive under distinct pointers — each pointer gets
  /// its own internal row here, and sections()/section()/report() merge
  /// rows by content, so readers always see one section per tag.
  void record_event(const char* kind, double wall_ms);

  /// Scheduler fast path for events scheduled without a kind tag: bumps the
  /// "event" pool's call count with no clock access and no hashing (a
  /// cached index after the first call).
  void count_untagged_event();

  /// RAII phase scope; tolerates a null profiler so instrumented code
  /// needs no `if (profiler)` at every site.
  class Scope {
   public:
    Scope(Profiler* profiler, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* profiler_;
    const char* name_;
    // pet-lint: allow(banned-api): wall-clock profiling only — the value
    // lands in wall_ms fields, which golden canonicalization strips
    std::chrono::steady_clock::time_point wall_start_{};
    double t0_us_ = 0.0;
  };

  /// Report-time view: rows merged by section name (calls and wall time
  /// summed), in first-appearance order. The reference stays valid until
  /// the next recording call.
  [[nodiscard]] const std::vector<Section>& sections() const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Merged section by name (nullptr if never recorded). The pointer stays
  /// valid until the next recording call.
  [[nodiscard]] const Section* section(std::string_view name) const;

  /// Human-readable table of sections (sorted by wall time, descending).
  [[nodiscard]] std::string report() const;

  void clear();

 private:
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  std::size_t index_of(std::string_view name);

  // Raw rows: one per named counter plus one per distinct kind pointer —
  // duplicates by content are possible and merged lazily on read.
  std::vector<Section> sections_;
  std::unordered_map<std::string, std::size_t> by_name_;
  std::unordered_map<const void*, std::size_t> by_pointer_;
  std::size_t untagged_idx_ = kNoIndex;
  mutable std::vector<Section> merged_;
  mutable bool merged_dirty_ = false;
  std::vector<Span> spans_;
  // pet-lint: allow(hot-path-alloc): cold member — written once at setup
  std::function<double()> now_us_;
};

}  // namespace pet::sim

// Unique-name plumbing so two scopes can share a block.
#define PET_PROFILE_CONCAT_INNER(a, b) a##b
#define PET_PROFILE_CONCAT(a, b) PET_PROFILE_CONCAT_INNER(a, b)

/// Times the rest of the enclosing block under `name`. `profiler` is a
/// `sim::Profiler*` and may be null (the scope is then a no-op).
#define PET_PROFILE_SCOPE(profiler, name)                 \
  ::pet::sim::Profiler::Scope PET_PROFILE_CONCAT(         \
      pet_profile_scope_, __LINE__)((profiler), (name))
