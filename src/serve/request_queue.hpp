// Bounded MPMC request queue — the front door of the RouteService.
//
// Producers (client threads inside RouteService::submit) push admitted
// ServeRequests; consumers (the micro-batch workers in serve/batcher.*)
// drain them in dual-trigger batches: a drain returns as soon as it holds
// `max` requests OR `linger` has elapsed since the batch opened, whichever
// comes first.  The queue is deliberately a small mutex+condvar ring — the
// solver work per request is microseconds, so queue overhead is not the
// bottleneck; what matters is that it is *bounded* (backpressure, not OOM),
// *closeable* (shutdown drains, never drops), and *instrumented*
// (depth/high-water/enqueue-block counters feed admission control and the
// SLO snapshot).
//
// Every request that enters the queue is eventually completed: close()
// only stops new pushes, consumers keep draining until empty.  Silent loss
// is structurally impossible — the conservation test in tests/serve_test.cpp
// pins offered == delivered + shed exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <vector>

#include "core/generator.hpp"
#include "core/thread_annotations.hpp"

namespace scg {

/// Terminal state of a served request.  Never silent: a shed or rejected
/// request still gets a reply carrying the reason.
enum class ServeStatus : std::uint8_t {
  kOk,        ///< routed; `word` holds the generator word
  kShedLoad,  ///< load-shed: queue depth crossed the high-water mark
  kShedRate,  ///< rate-limited: token bucket empty
  kClosed,    ///< service shutting down before the request was accepted
};

/// Steady-clock nanosecond stamps of one request's life: submit (client
/// called in) -> enqueue (admitted) -> batch (drained into a micro-batch)
/// -> solved (engine finished the batch) -> complete (reply fulfilled).
/// Shed/closed requests only carry submit and complete.
struct ServeTimestamps {
  std::uint64_t submit_ns = 0;
  std::uint64_t enqueue_ns = 0;
  std::uint64_t batch_ns = 0;
  std::uint64_t solved_ns = 0;
  std::uint64_t complete_ns = 0;
};

/// What the client's future resolves to.
struct RouteReply {
  ServeStatus status = ServeStatus::kOk;
  std::vector<Generator> word;  ///< empty unless status == kOk
  ServeTimestamps t;
};

/// One in-flight request moving through the queue to a worker.
struct ServeRequest {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  ServeTimestamps t;
  std::promise<RouteReply> reply;
};

struct RequestQueueStats {
  std::uint64_t enqueued = 0;        ///< accepted pushes
  std::uint64_t rejected_full = 0;   ///< try_push refusals (queue at capacity)
  std::uint64_t high_water = 0;      ///< max depth ever observed
  std::uint64_t blocked_ns = 0;      ///< total producer time spent in full-queue waits
  std::uint64_t depth = 0;           ///< current depth (sampled)
};

/// Bounded multi-producer/multi-consumer queue of ServeRequests.
class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Non-blocking push.  False if the queue is full or closed (the caller
  /// keeps the request and must complete its promise itself).
  bool try_push(ServeRequest&& r);

  /// Blocking push: waits while the queue is full.  False only if the
  /// queue is (or becomes) closed.
  bool push(ServeRequest&& r);

  /// Drains up to `max` requests into `out` (cleared first).  Blocks until
  /// at least one request is available or the queue is closed and empty.
  /// Once the first request of a batch is taken, keeps topping the batch up
  /// until it holds `max` requests or `linger` has elapsed (dual trigger).
  /// Returns the number drained; 0 means closed-and-empty (consumer should
  /// exit).
  std::size_t pop_batch(std::vector<ServeRequest>& out, std::size_t max,
                        std::chrono::microseconds linger);

  /// Stops new pushes and wakes every waiter.  Queued requests remain
  /// drainable; pop_batch keeps returning them until the queue is empty.
  void close();

  std::size_t depth() const;
  bool closed() const;
  RequestQueueStats stats() const;

 private:
  /// Wait predicate of pop_batch: a request is drainable or close() ran.
  bool has_data() const SCG_REQUIRES(mu_) { return closed_ || !q_.empty(); }
  /// Wait predicate of push: a slot freed up or close() ran.
  bool has_space() const SCG_REQUIRES(mu_) {
    return closed_ || q_.size() < capacity_;
  }
  /// Counter maintenance shared by try_push/push, under the queue lock.
  void record_push() SCG_REQUIRES(mu_);

  const std::size_t capacity_;
  mutable Mutex mu_;
  CondVar cv_space_;  ///< signalled when a slot frees up
  CondVar cv_data_;   ///< signalled on push and close
  std::deque<ServeRequest> q_ SCG_GUARDED_BY(mu_);
  bool closed_ SCG_GUARDED_BY(mu_) = false;

  std::uint64_t enqueued_ SCG_GUARDED_BY(mu_) = 0;
  std::uint64_t rejected_full_ SCG_GUARDED_BY(mu_) = 0;
  std::uint64_t high_water_ SCG_GUARDED_BY(mu_) = 0;
  std::uint64_t blocked_ns_ SCG_GUARDED_BY(mu_) = 0;
};

}  // namespace scg
