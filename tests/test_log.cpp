#include "sim/log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/scheduler.hpp"

namespace pet::sim {
namespace {

/// Restores the global level on exit so the suite leaves no logging state
/// behind.
struct LogStateGuard {
  LogLevel level = log_level();
  ~LogStateGuard() { set_log_level(level); }
};

TEST(Log, LevelRoundTrips) {
  LogStateGuard guard;
  set_log_level(LogLevel::kDebug);
  EXPECT_EQ(log_level(), LogLevel::kDebug);
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
}

TEST(Log, BelowLevelEmitsNothing) {
  LogStateGuard guard;
  set_log_level(LogLevel::kWarn);
  Scheduler sched;
  ::testing::internal::CaptureStderr();
  PET_LOG_INFO(sched, "should not appear");
  EXPECT_TRUE(::testing::internal::GetCapturedStderr().empty());
}

TEST(Log, ConcurrentWritersEmitWholeLines) {
  // Regression for the torn-line bug: level tag, timestamp and payload
  // used to be separate stdio calls, so lines from concurrent worker
  // threads could interleave mid-line. Now each line is assembled in full
  // and written once; under concurrency every captured line must still
  // parse as "[INFO ...] worker N line M", and each worker's lines arrive
  // whole and in order.
  LogStateGuard guard;
  set_log_level(LogLevel::kInfo);
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  ::testing::internal::CaptureStderr();
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int w = 0; w < kThreads; ++w) {
      pool.emplace_back([w] {
        Scheduler sched;
        for (int i = 0; i < kLines; ++i) {
          PET_LOG_INFO(sched, "worker %d line %d", w, i);
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  const std::string out = ::testing::internal::GetCapturedStderr();

  std::istringstream stream(out);
  std::string line;
  int parsed = 0;
  std::vector<int> per_worker(kThreads, 0);
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    ASSERT_EQ(line.rfind("[INFO ", 0), 0u) << "torn line: " << line;
    int body_worker = -1, body_line = -1;
    char ignored[32];
    ASSERT_EQ(std::sscanf(line.c_str(), "[INFO %31[^]]] worker %d line %d",
                          ignored, &body_worker, &body_line),
              3)
        << "torn line: " << line;
    ASSERT_GE(body_worker, 0);
    ASSERT_LT(body_worker, kThreads);
    // A worker's lines keep their order: line M is its M-th line seen.
    EXPECT_EQ(body_line, per_worker[static_cast<std::size_t>(body_worker)])
        << line;
    ++per_worker[static_cast<std::size_t>(body_worker)];
    ++parsed;
  }
  EXPECT_EQ(parsed, kThreads * kLines);
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(per_worker[static_cast<std::size_t>(w)], kLines) << "worker " << w;
  }
}

}  // namespace
}  // namespace pet::sim
