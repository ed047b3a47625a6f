// RouteService — the concurrent query-serving front end of the repo.
//
// The zero-allocation RouteEngine (networks/route_engine.*) answers
// (source, destination) -> shortest-word queries fast, but every consumer
// so far hand-builds its own batches.  This service is the missing layer
// between "millions of independent clients" and "SoA batch solver":
//
//   submit(src, dst)                          admission     round robin
//   ───────────────►  token bucket + queue   ───────────►  bounded queues
//                     depth hysteresis                       (one/worker)
//                                                               │ dual
//                                                               │ trigger
//                                                               ▼
//                     reply future  ◄───  micro-batch worker: drain up to
//                                         max_batch or linger µs, one
//                                         route_batch call on its own engine
//
// Key design points:
//  * Each worker owns its queue, its thread and a RouteEngine caching
//    ⌈cache_capacity / workers⌉ words, so no cache lock is shared.  The
//    client picks a worker round robin; route_batch keys the request by
//    W = V^{-1}∘U on the worker, so a repeated W is solved once per worker.
//  * The dual trigger batches under load without taxing idle latency: a
//    worker ships as soon as it holds `max_batch` requests, or `linger_us`
//    after the first request of the batch arrived, whichever comes first.
//  * With max_batch <= 256, RouteEngine::route_batch solves inline on the
//    worker thread (no nested thread-pool hop), in request order, into a
//    worker-owned arena: a duplicate inside a batch is a cache hit on its
//    first copy's entry, and the solve path allocates nothing in steady
//    state.
//  * Every submitted request gets exactly one reply — Ok with the word, or
//    an explicit Shed/Closed status.  offered == delivered + shed is an
//    invariant, tested under concurrent mixed traffic.
//
// Thread-safety: submit()/try_submit()/route() are safe from any number of
// threads; snapshot() is safe concurrently with traffic.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/thread_annotations.hpp"
#include "networks/route_engine.hpp"
#include "networks/super_cayley.hpp"
#include "serve/admission.hpp"
#include "serve/request_queue.hpp"
#include "serve/service_stats.hpp"

namespace scg {

struct RouteServiceConfig {
  /// Micro-batch worker threads, 1..256; each owns a queue and an engine.
  /// The constructor throws std::invalid_argument outside that range.
  int workers = 2;
  /// Batch-size trigger.  <= 256 keeps the solve inline on the worker.
  std::size_t max_batch = 128;
  /// Linger trigger: how long the first request of a batch waits for
  /// batchmates.  0 = ship whatever is queued immediately.
  std::uint64_t linger_us = 100;
  /// Capacity of each worker's request queue (blocking submit backpressure
  /// kicks in beyond this).
  std::size_t queue_capacity = 1024;
  /// Rate limiting + load shedding (defaults: both off).
  AdmissionConfig admission;
  /// Engine tuning.  cache_capacity is the service's total: each worker's
  /// engine holds ⌈cache_capacity / workers⌉ words.
  RouteEngineConfig engine;
};

/// Concurrent route-serving front end over one network.  Owns its spec and
/// its workers; destruction drains accepted requests.
class RouteService {
 public:
  explicit RouteService(const NetworkSpec& net, RouteServiceConfig cfg = {});
  ~RouteService();

  RouteService(const RouteService&) = delete;
  RouteService& operator=(const RouteService&) = delete;

  /// Submits a query by node rank; the future resolves to the reply (Ok
  /// with the generator word, or an explicit Shed/Closed status).  Blocks
  /// only when the target queue is full (backpressure).  Throws
  /// std::out_of_range on ranks past num_nodes.
  std::future<RouteReply> submit(std::uint64_t src, std::uint64_t dst);

  /// Non-blocking submit: like submit(), but if the target queue is full
  /// the request is immediately completed as kShedLoad instead of waiting.
  std::future<RouteReply> try_submit(std::uint64_t src, std::uint64_t dst);

  /// Blocking round trip.
  RouteReply route(std::uint64_t src, std::uint64_t dst);

  /// Blocks until every accepted request has been completed.
  void drain();

  /// Stops accepting, drains the queues, joins the workers.  Idempotent;
  /// the destructor calls it.
  void shutdown();

  ServiceStatsSnapshot snapshot() const;
  const NetworkSpec& spec() const { return net_; }
  int workers() const { return static_cast<int>(workers_.size()); }

 private:
  /// One micro-batch worker.  Its engine borrows the service's net_.
  struct Worker {
    Worker(std::size_t queue_capacity, const NetworkSpec& net,
           RouteEngineConfig engine_cfg)
        : queue(queue_capacity), engine(net, engine_cfg) {}

    RequestQueue queue;
    RouteEngine engine;
    std::thread thread;
  };

  void worker_loop(Worker& w);
  std::future<RouteReply> submit_impl(std::uint64_t src, std::uint64_t dst,
                                      bool blocking);
  void complete_shed(ServeRequest& r, ServeStatus status);

  static RouteServiceConfig sanitize(RouteServiceConfig cfg);

  RouteServiceConfig cfg_;
  NetworkSpec net_;  ///< owned copy; every worker's engine points at it
  AdmissionController admission_;
  ServiceStats stats_;

  std::atomic<std::uint64_t> next_worker_{0};   ///< round-robin cursor
  std::atomic<std::uint64_t> queued_depth_{0};  ///< aggregate queue backlog
  std::atomic<std::uint64_t> in_flight_{0};     ///< admitted, not yet replied
  std::atomic<bool> closed_{false};
  Mutex lifecycle_mu_;  ///< serialises shutdown() callers
  bool joined_ SCG_GUARDED_BY(lifecycle_mu_) = false;
  /// Guards nothing directly — in_flight_ is atomic — but drain()'s condvar
  /// wait needs a mutex, and notify under it closes the missed-wakeup race.
  /// Never nested with lifecycle_mu_.
  Mutex drain_mu_;
  CondVar drain_cv_;
  /// Last: the worker threads use the members above.
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace scg
