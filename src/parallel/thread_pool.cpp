#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace scg {

/// One run() call.  Its caller and every worker that picked it hold it by
/// shared_ptr, because a worker can claim an index past `count` after the
/// caller has returned.  `task` is called only for indices below `count`,
/// and all of those finish before the caller returns.
struct ThreadPool::Job {
  Job(std::size_t n, const std::function<void(std::size_t)>& t)
      : count(n), task(&t) {}

  bool open() const { return next.load() < count; }

  /// Claims and runs indices until none is left to claim.
  void work() {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        (*task)(i);
      } catch (...) {
        MutexLock lk(mu);
        if (!error) error = std::current_exception();
      }
      if (++done == count) {
        MutexLock lk(mu);
        finished = true;
        all_done.notify_one();
      }
    }
  }

  /// Blocks until every index has finished; returns the first exception.
  std::exception_ptr wait() {
    MutexLock lk(mu);
    while (!finished) all_done.wait(lk, mu);
    return error;
  }

  const std::size_t count;
  const std::function<void(std::size_t)>* const task;
  std::atomic<std::size_t> next{0};  // next index to claim
  std::atomic<std::size_t> done{0};  // indices finished
  Mutex mu;
  CondVar all_done;  // signalled once, when `done` reaches `count`
  bool finished SCG_GUARDED_BY(mu) = false;
  std::exception_ptr error SCG_GUARDED_BY(mu);  // first exception thrown
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 4;
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  const auto job = std::make_shared<Job>(count, task);
  {
    MutexLock lk(mu_);
    jobs_.push_back(job);
  }
  cv_.notify_all();
  job->work();
  {
    // Every index is claimed: no worker needs to find the job any more.
    MutexLock lk(mu_);
    jobs_.erase(std::find(jobs_.begin(), jobs_.end(), job));
  }
  if (const std::exception_ptr error = job->wait()) {
    std::rethrow_exception(error);
  }
}

std::shared_ptr<ThreadPool::Job> ThreadPool::next_job() {
  MutexLock lk(mu_);
  for (;;) {
    if (stopping_) return nullptr;
    for (const std::shared_ptr<Job>& job : jobs_) {
      if (job->open()) return job;
    }
    cv_.wait(lk, mu_);
  }
}

void ThreadPool::worker_loop() {
  while (const std::shared_ptr<Job> job = next_job()) job->work();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace scg
