// Minimal fixed-size fork-join pool used by the topology and sweep code.
//
// Design notes (why not std::async / OpenMP): the heavy kernels in this
// library are level-synchronous BFS frontiers and exhaustive solver sweeps
// over k! permutations.  Both want (a) a stable set of worker threads so that
// per-thread scratch buffers survive across parallel regions, and (b) a
// blocking "run these indices and wait" primitive.  A ~100-line pool covers
// that without adding a dependency.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"

namespace scg {

/// Fixed set of worker threads that help callers of run().  Thread-safe.
class ThreadPool {
 public:
  /// Creates a pool of `threads` participants: the thread calling run()
  /// plus `threads - 1` workers (0 means hardware concurrency).  A pool of
  /// one starts no thread.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Participants in a run() call: the workers plus the caller.
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs task(i) for every i in [0, count) and returns once all of them
  /// have finished.  The workers and the calling thread claim indices from
  /// one shared counter, and the call waits only for its own indices, so
  /// concurrent callers do not wait for each other and a task may call
  /// run() itself.  If tasks throw, the other indices still run and the
  /// first exception is rethrown here.
  ///
  /// The caller runs tasks too, so a task must not use a thread_local that
  /// the caller holds across the call.  None does: RouteEngine::scratch()
  /// users do not fan out, and route_batch gives every chunk its own arena.
  void run(std::size_t count, const std::function<void(std::size_t)>& task);

  /// Process-wide default pool (created on first use).
  static ThreadPool& global();

 private:
  struct Job;

  void worker_loop();

  /// Blocks until a posted job has an index left to claim and returns the
  /// oldest such job; returns null once shutdown has begun.
  std::shared_ptr<Job> next_job() SCG_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;  // signalled when a job is posted or shutdown begins
  std::vector<std::shared_ptr<Job>> jobs_ SCG_GUARDED_BY(mu_);
  bool stopping_ SCG_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace scg
