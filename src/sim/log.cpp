#include "sim/log.hpp"

#include <atomic>
#include <cstdarg>
#include <cstring>
#include <vector>

namespace pet::sim {

namespace {
// The logger's only mutable state: an atomic read by every thread.
std::atomic<LogLevel> g_level{LogLevel::kOff};

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kTrace: return "TRACE";
    default: return "?????";
  }
}
}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }
void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

namespace detail {

void vlog(LogLevel level, Time now, const char* fmt, ...) {
  // Assemble the whole line first so concurrent writers emit whole lines;
  // a single fwrite to (unbuffered) stderr is atomic in practice.
  char prefix[96];
  const int n = std::snprintf(prefix, sizeof prefix, "[%s %12s] ",
                              level_tag(level), now.to_string().c_str());
  if (n < 0) return;

  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int body = std::vsnprintf(nullptr, 0, fmt, args_copy);
  va_end(args_copy);
  if (body < 0) {
    va_end(args);
    return;
  }
  std::vector<char> line(static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(body) + 2);
  std::memcpy(line.data(), prefix, static_cast<std::size_t>(n));
  std::vsnprintf(line.data() + n, static_cast<std::size_t>(body) + 1, fmt,
                 args);
  va_end(args);
  line[line.size() - 2] = '\n';
  std::fwrite(line.data(), 1, line.size() - 1, stderr);
}

}  // namespace detail
}  // namespace pet::sim
