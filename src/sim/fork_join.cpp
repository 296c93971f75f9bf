#include "sim/fork_join.hpp"

#include <sched.h>

#include <algorithm>

namespace pet::sim {

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

ForkJoinPool& ForkJoinPool::shared() {
  // Destroyed at exit, after every submitter has returned: sweep points run
  // on threads their sweep joins before it returns.
  static ForkJoinPool pool(usable_cpus() - 1);
  return pool;
}

ForkJoinPool::ForkJoinPool(std::size_t workers) {
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ForkJoinPool::~ForkJoinPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::size_t ForkJoinPool::claim(Job& job) PET_REQUIRES(mu_) {
  const std::size_t i = job.next_task++;
  if (job.next_task == job.n) {
    Job** link = &head_;
    while (*link != &job) link = &(*link)->next_job;
    *link = job.next_job;
  }
  return i;
}

void ForkJoinPool::run_job(Job& job) {
  std::unique_lock<std::mutex> lock(mu_);
  Job** tail = &head_;
  while (*tail != nullptr) tail = &(*tail)->next_job;
  *tail = &job;
  work_cv_.notify_all();
  // Run this job's own tasks until none is left to claim, then wait for
  // the ones workers took.
  while (job.next_task < job.n) {
    const std::size_t i = claim(job);
    lock.unlock();
    job.fn(job.body, i);
    lock.lock();
    --job.unfinished;
  }
  done_cv_.wait(lock, [&job] { return job.unfinished == 0; });
}

void ForkJoinPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || head_ != nullptr; });
    if (head_ == nullptr) return;  // stopping, and no task is left
    Job& job = *head_;
    const std::size_t i = claim(job);
    lock.unlock();
    job.fn(job.body, i);
    lock.lock();
    // The submitter cannot return before this decrement, and never after
    // it without taking the lock this thread holds.
    if (--job.unfinished == 0) done_cv_.notify_all();
  }
}

}  // namespace pet::sim
