#include "serve/request_queue.hpp"

#include <algorithm>
#include <utility>

#include "core/check.hpp"
#include "serve/service_stats.hpp"

namespace scg {

RequestQueue::RequestQueue(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void RequestQueue::record_push() {
  ++enqueued_;
  high_water_ = std::max<std::uint64_t>(high_water_, q_.size());
  SCG_DCHECK_LE(q_.size(), capacity_);
}

bool RequestQueue::try_push(ServeRequest&& r) {
  {
    MutexLock lk(mu_);
    if (closed_ || q_.size() >= capacity_) {
      if (!closed_) ++rejected_full_;
      return false;
    }
    q_.push_back(std::move(r));
    record_push();
  }
  cv_data_.notify_one();
  return true;
}

bool RequestQueue::push(ServeRequest&& r) {
  {
    MutexLock lk(mu_);
    if (!has_space()) {
      const std::uint64_t t0 = serve_now_ns();
      while (!has_space()) cv_space_.wait(lk, mu_);
      blocked_ns_ += serve_now_ns() - t0;
    }
    if (closed_) return false;
    q_.push_back(std::move(r));
    record_push();
  }
  cv_data_.notify_one();
  return true;
}

std::size_t RequestQueue::pop_batch(std::vector<ServeRequest>& out,
                                    std::size_t max,
                                    std::chrono::microseconds linger) {
  out.clear();
  if (max == 0) max = 1;
  MutexLock lk(mu_);
  while (!has_data()) cv_data_.wait(lk, mu_);
  if (q_.empty()) return 0;  // closed and drained

  // Batch opens with the first request; top it up until full or the linger
  // deadline passes.  A zero linger drains whatever is already queued and
  // returns immediately.
  const auto deadline = std::chrono::steady_clock::now() + linger;
  for (;;) {
    while (!q_.empty() && out.size() < max) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    if (out.size() >= max || closed_) break;
    if (linger.count() <= 0) break;
    // Timed wait with an explicit predicate re-check loop (spurious
    // wake-ups and the timeout race both re-evaluate has_data()).
    bool timed_out = false;
    while (!has_data()) {
      if (cv_data_.wait_until(lk, mu_, deadline) == std::cv_status::timeout) {
        timed_out = !has_data();
        break;
      }
    }
    if (timed_out) break;   // linger expired with nothing new
    if (q_.empty()) break;  // woken by close
  }
  lk.unlock();
  cv_space_.notify_all();
  return out.size();
}

void RequestQueue::close() {
  {
    MutexLock lk(mu_);
    closed_ = true;
  }
  cv_data_.notify_all();
  cv_space_.notify_all();
}

std::size_t RequestQueue::depth() const {
  MutexLock lk(mu_);
  return q_.size();
}

bool RequestQueue::closed() const {
  MutexLock lk(mu_);
  return closed_;
}

RequestQueueStats RequestQueue::stats() const {
  MutexLock lk(mu_);
  RequestQueueStats s;
  s.enqueued = enqueued_;
  s.rejected_full = rejected_full_;
  s.high_water = high_water_;
  s.blocked_ns = blocked_ns_;
  s.depth = q_.size();
  return s;
}

}  // namespace scg
