// Clang Thread Safety Analysis wrappers — the compile-time half of the
// repo's concurrency story.
//
// The dynamic analyses (TSan preset, chaos invariant checker) catch the
// interleavings that actually happen in a run; these annotations make the
// *lock discipline itself* machine-checked: every piece of shared mutable
// state in the serving stack, thread pool, route cache and policy registry
// declares which mutex guards it, and clang's `-Wthread-safety` analysis
// rejects any access path that does not provably hold that mutex.  See
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for the model.
//
// Conventions used across the codebase:
//  * Shared state is annotated `SCG_GUARDED_BY(mu_)` at the declaration.
//  * Locks are `scg::Mutex`, taken through the scoped `scg::MutexLock`.
//  * Condition waits go through `scg::CondVar::wait(lk, mu)` inside an
//    explicit `while (!predicate())` loop; predicates that read guarded
//    members live in small member functions annotated `SCG_REQUIRES(mu_)`
//    (lambda bodies are analysed without the caller's lock context, so
//    inline predicate lambdas would defeat the analysis).
//
// Under GCC (or any compiler without the capability attribute) every macro
// expands to nothing and the shims compile down to the std primitives they
// wrap, so non-clang builds and the sanitizer presets are unaffected.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define SCG_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef SCG_THREAD_ANNOTATION
#define SCG_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

/// Declares a type to be a capability ("mutex" in diagnostics).
#define SCG_CAPABILITY(x) SCG_THREAD_ANNOTATION(capability(x))
/// Declares an RAII type that acquires in its ctor / releases in its dtor.
#define SCG_SCOPED_CAPABILITY SCG_THREAD_ANNOTATION(scoped_lockable)
/// Data member readable/writable only while holding the named mutex.
#define SCG_GUARDED_BY(x) SCG_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is guarded by the named mutex.
#define SCG_PT_GUARDED_BY(x) SCG_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function acquires the capability (its own object when no argument).
#define SCG_ACQUIRE(...) SCG_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capability.
#define SCG_RELEASE(...) SCG_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Caller must hold the named mutex(es) to call this function.
#define SCG_REQUIRES(...) \
  SCG_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Caller must NOT hold the named mutex(es) (deadlock prevention).
#define SCG_EXCLUDES(...) SCG_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Lock-ordering declarations (checked with -Wthread-safety-beta).
#define SCG_ACQUIRED_BEFORE(...) \
  SCG_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SCG_ACQUIRED_AFTER(...) \
  SCG_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
/// Function returns a reference to the named mutex.
#define SCG_RETURN_CAPABILITY(x) SCG_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch; every use needs a comment justifying it.
#define SCG_NO_THREAD_SAFETY_ANALYSIS \
  SCG_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace scg {

/// std::mutex with the capability attribute the analysis needs.  Identical
/// machine code; `native()` exposes the wrapped mutex for condition waits.
class SCG_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SCG_ACQUIRE() { mu_.lock(); }
  void unlock() SCG_RELEASE() { mu_.unlock(); }

  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped lock over scg::Mutex (std::unique_lock underneath, so CondVar can
/// wait on it).  `unlock()` releases early — the analysis tracks whether the
/// scope still holds the capability, exactly like absl::ReleasableMutexLock.
class SCG_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SCG_ACQUIRE(mu) : lk_(mu.native()) {}
  ~MutexLock() SCG_RELEASE() = default;  // unlocks iff still held

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases before end of scope (e.g. to notify without the lock held).
  void unlock() SCG_RELEASE() { lk_.unlock(); }

  std::unique_lock<std::mutex>& native() { return lk_; }

 private:
  std::unique_lock<std::mutex> lk_;
};

/// Condition variable bound to scg::Mutex waits.  The waiting thread passes
/// both the scoped lock (the runtime handle) and the mutex (the capability
/// the analysis checks); `mu` MUST be the mutex `lk` holds.  All waits are
/// raw single wake-ups — callers re-check their predicate in an explicit
/// `while` loop, which is what the analysis can see through (and what the
/// condvar contract requires anyway: wake-ups may be spurious).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken).  Caller holds `mu` via
  /// `lk` and re-checks its predicate on return.
  void wait(MutexLock& lk, Mutex& mu) SCG_REQUIRES(mu) {
    static_cast<void>(mu);
    cv_.wait(lk.native());
  }

  /// Timed wait; std::cv_status::timeout when `deadline` passed first.
  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      MutexLock& lk, Mutex& mu,
      const std::chrono::time_point<Clock, Duration>& deadline)
      SCG_REQUIRES(mu) {
    static_cast<void>(mu);
    return cv_.wait_until(lk.native(), deadline);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace scg
