#pragma once
// ForkJoinPool: runs the independent parts of one event side by side.
//
// The event loop stays single-threaded (sim/scheduler.hpp). An event whose
// work splits into tasks that each touch only their own state (ACC's
// per-switch DDQN steps) hands them to run(), which returns once every
// task is done. Nothing a task writes is read by another task or before
// the join, so results never depend on the worker count or on which
// thread ran which task.
//
// One process-wide pool serves every simulation in the process, so
// concurrent sweep points share its workers. A submitter runs its own
// tasks too and waits only for its own: it makes progress even while
// every worker is busy with another submitter's tasks, and a pool without
// workers runs everything inline.

#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/thread_annotations.hpp"

namespace pet::sim {

/// CPUs this process may run on (its affinity mask), at least 1.
[[nodiscard]] std::size_t usable_cpus();

class ForkJoinPool {
 public:
  /// The process-wide pool, started on the first call with one worker per
  /// CPU this process may run on, minus one for the submitting thread.
  [[nodiscard]] static ForkJoinPool& shared();

  /// A pool with exactly `workers` worker threads (0: run() is inline).
  explicit ForkJoinPool(std::size_t workers);
  ~ForkJoinPool();
  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  [[nodiscard]] std::size_t workers() const { return threads_.size(); }

  /// Calls body(i) exactly once for every i in [0, n), on the workers and
  /// the calling thread, and returns when all n calls have returned.
  /// `body` must not throw.
  template <typename F>
  void run(std::size_t n, F&& body) {
    if (threads_.empty() || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    using Body = std::remove_cvref_t<F>;
    Job job(&call<Body>, const_cast<Body*>(std::addressof(body)), n);
    run_job(job);
  }

 private:
  using TaskFn = void (*)(void*, std::size_t);

  /// One run() call. It lives on the submitter's stack, which outlives
  /// every use: the submitter returns only once `unfinished` is 0.
  struct Job {
    Job(TaskFn task, void* ctx, std::size_t count)
        : fn(task), body(ctx), n(count), unfinished(count) {}
    const TaskFn fn;
    void* const body;
    const std::size_t n;
    std::size_t next_task PET_GUARDED_BY(mu_) = 0;
    std::size_t unfinished PET_GUARDED_BY(mu_);
    Job* next_job PET_GUARDED_BY(mu_) = nullptr;
  };

  template <typename Body>
  static void call(void* body, std::size_t i) {
    (*static_cast<Body*>(body))(i);
  }

  void run_job(Job& job);
  void worker_loop();
  /// Takes the job's next task index; unlinks the job once it has none.
  [[nodiscard]] std::size_t claim(Job& job) PET_REQUIRES(mu_);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  /// Jobs with unclaimed tasks, oldest first (an intrusive list).
  Job* head_ PET_GUARDED_BY(mu_) = nullptr;
  bool stop_ PET_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_ PET_READ_SHARED;
};

}  // namespace pet::sim
