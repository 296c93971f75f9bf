#pragma once
// Minimal leveled logging for the simulator. Off by default so benches and
// tests stay quiet; scenario drivers can raise the level for debugging.
//
// Thread-safe: the level is a process-wide atomic, and each log line is
// assembled in full before a single write(2)-sized fwrite to stderr, so
// lines from concurrent workers (e.g. sweep points) never interleave
// mid-line.

#include <cstdio>
#include <string>

#include "sim/time.hpp"

namespace pet::sim {

enum class LogLevel { kOff = 0, kError, kWarn, kInfo, kDebug, kTrace };

/// Process-wide log level (atomic; safe to read from any thread).
LogLevel log_level();
void set_log_level(LogLevel level);

namespace detail {
void vlog(LogLevel level, Time now, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));
}  // namespace detail

}  // namespace pet::sim

// Macros keep the (cheap) level check at the call site and preserve
// printf-format diagnostics from the compiler.
#define PET_LOG(level, scheduler, ...)                                      \
  do {                                                                      \
    if (::pet::sim::log_level() >= (level)) {                               \
      ::pet::sim::detail::vlog((level), (scheduler).now(), __VA_ARGS__);    \
    }                                                                       \
  } while (0)

#define PET_LOG_ERROR(scheduler, ...) \
  PET_LOG(::pet::sim::LogLevel::kError, (scheduler), __VA_ARGS__)
#define PET_LOG_WARN(scheduler, ...) \
  PET_LOG(::pet::sim::LogLevel::kWarn, (scheduler), __VA_ARGS__)
#define PET_LOG_INFO(scheduler, ...) \
  PET_LOG(::pet::sim::LogLevel::kInfo, (scheduler), __VA_ARGS__)
#define PET_LOG_DEBUG(scheduler, ...) \
  PET_LOG(::pet::sim::LogLevel::kDebug, (scheduler), __VA_ARGS__)
#define PET_LOG_TRACE(scheduler, ...) \
  PET_LOG(::pet::sim::LogLevel::kTrace, (scheduler), __VA_ARGS__)
