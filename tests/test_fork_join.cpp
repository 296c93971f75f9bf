#include "sim/fork_join.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

namespace pet::sim {
namespace {

void expect_each_index_once(ForkJoinPool& pool, std::size_t n) {
  const auto hits = std::make_unique<std::atomic<int>[]>(n);
  pool.run(n, [&](std::size_t i) {
    ASSERT_LT(i, n);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
  }
}

TEST(ForkJoinPool, EveryIndexRunsExactlyOnce) {
  for (const std::size_t workers : {0, 1, 3}) {
    ForkJoinPool pool(workers);
    EXPECT_EQ(pool.workers(), workers);
    for (int round = 0; round < 20; ++round) {
      for (const std::size_t n : {0, 1, 2, 7, 64}) {
        expect_each_index_once(pool, n);
      }
    }
  }
}

TEST(ForkJoinPool, TasksSeeTheSubmittersWritesAndTheJoinSeesTheirs) {
  ForkJoinPool pool(3);
  std::vector<long> in(16);
  std::vector<long> out(16, 0);
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = round * 100 + static_cast<long>(i);
    }
    pool.run(in.size(), [&](std::size_t i) { out[i] = 2 * in[i]; });
    for (std::size_t i = 0; i < in.size(); ++i) ASSERT_EQ(out[i], 2 * in[i]);
  }
}

TEST(ForkJoinPool, SubmitterProgressesWhileEveryWorkerIsBusy) {
  for (const std::size_t workers : {1, 3}) {
    ForkJoinPool pool(workers);
    std::atomic<std::size_t> started{0};
    std::atomic<bool> release{false};
    // Each blocking task holds one thread, so once workers + 1 have
    // started, every worker and the first submitter are stuck in them.
    std::thread blocker([&] {
      pool.run(workers + 1, [&](std::size_t) {
        started.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      });
    });
    while (started.load() < workers + 1) std::this_thread::yield();

    std::atomic<int> done{0};
    pool.run(5, [&](std::size_t) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 5);

    release.store(true);
    blocker.join();
    EXPECT_EQ(started.load(), workers + 1);
  }
}

TEST(ForkJoinPool, ConcurrentSubmittersBothFinish) {
  ForkJoinPool pool(3);
  constexpr int kJobs = 200;
  constexpr std::size_t kTasks = 7;
  std::atomic<long> sums[2] = {0, 0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 2; ++s) {
    submitters.emplace_back([&, s] {
      for (int j = 0; j < kJobs; ++j) {
        pool.run(kTasks, [&](std::size_t i) {
          sums[s].fetch_add(static_cast<long>(i) + 1);
        });
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  const long per_job = kTasks * (kTasks + 1) / 2;
  EXPECT_EQ(sums[0].load(), kJobs * per_job);
  EXPECT_EQ(sums[1].load(), kJobs * per_job);
}

TEST(ForkJoinPool, SharedPoolIsOneProcessWideInstance) {
  ForkJoinPool& pool = ForkJoinPool::shared();
  EXPECT_EQ(&pool, &ForkJoinPool::shared());
  EXPECT_EQ(pool.workers(), usable_cpus() - 1);
  expect_each_index_once(pool, 64);
}

}  // namespace
}  // namespace pet::sim
