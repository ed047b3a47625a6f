// RouteService — the concurrent query-serving front end of the repo.
//
// The zero-allocation RouteEngine (networks/route_engine.*) answers
// (source, destination) -> shortest-word queries fast, but every consumer
// so far hand-builds its own batches.  This service is the missing layer
// between "millions of independent clients" and "SoA batch solver":
//
//   submit(src, dst)                          admission       per-shard
//   ───────────────►  token bucket + queue   ───────────►  bounded queues
//                     depth hysteresis                       (one/worker)
//                                                               │ dual
//                                                               │ trigger
//                                                               ▼
//                     reply future  ◄───  micro-batch worker: drain up to
//                                         max_batch or linger µs, one
//                                         RouteEngine::route_batch call
//
// Key design points:
//  * Requests are dispatched to workers by the *route-cache shard* of their
//    relative permutation W = V^{-1}∘U (the engine's cache key).  Every
//    translation-equivalent request therefore lands on the same worker, so
//    with the cache on a repeated W is solved once and then served from the
//    cache, and no two workers ever contend on one cache shard.
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
  /// Micro-batch worker threads (also the number of queue shards).
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
  /// Engine tuning.  cache_shards is raised to at least `workers` so the
  /// shard -> worker pinning is a proper partition.
  RouteEngineConfig engine;
};

/// Concurrent route-serving front end over one network.  Owns its spec,
/// engine, queues and workers; destruction drains accepted requests.
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
  const RouteEngine& engine() const { return engine_; }
  int workers() const { return static_cast<int>(workers_.size()); }
  const RouteServiceConfig& config() const { return cfg_; }

 private:
  struct PendingRequest;

  void worker_loop(std::size_t w);
  std::size_t worker_of(std::uint64_t rel) const;
  std::future<RouteReply> submit_impl(std::uint64_t src, std::uint64_t dst,
                                      bool blocking);
  void complete_shed(ServeRequest& r, ServeStatus status);

  static RouteServiceConfig sanitize(RouteServiceConfig cfg);

  RouteServiceConfig cfg_;
  NetworkSpec net_;  ///< owned copy; the engine points at it
  RouteEngine engine_;
  AdmissionController admission_;
  ServiceStats stats_;

  std::vector<std::unique_ptr<RequestQueue>> queues_;
  std::vector<std::thread> workers_;

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
};

}  // namespace scg
