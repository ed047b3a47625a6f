// The event core's calendar queue (R. Brown, "Calendar queues", CACM
// 31(10), 1988): O(1) push and pop, with equal times popping in insertion
// order by construction.
//
// It relies on two facts of the event loop: each packet has at most one
// pending event, and no event is scheduled before the current cycle.  So
// the queue holds packet ids, not events, in three parts:
//  * a cursor over the injections, sorted by injection time;
//  * a ring of per-cycle FIFO buckets covering the kEventRingSlots cycles
//    from `now` on, each an intrusive list threaded through one `next`
//    index per packet;
//  * an overflow heap, ordered by (time, push order), for events past the
//    ring's horizon.  Whenever `now` advances, every overflow event whose
//    time enters the ring moves to its bucket before anything pops at the
//    new cycle, so each bucket holds its events in push order.
//
// At each cycle the due injections pop first, in cursor order, then the
// bucket.  That is exactly a heap keyed on (time, push order) into which
// every injection was pushed first.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <queue>
#include <span>
#include <vector>

#include "core/check.hpp"

namespace scg {

/// Ring length in cycles, a power of two.  Link backlog, not one hop's
/// occupancy, bounds a delay, so the ring is sized by measurement: on the
/// benchmark's MS(3,2) simulation 64 slots sent 215 of 1,469,858 pushes to
/// the overflow heap, and 256 slots sent none.
inline constexpr std::uint64_t kEventRingSlots = 256;

/// Packet `packet` is due at cycle `time`.
struct QueuedEvent {
  std::uint64_t time = 0;
  std::uint32_t packet = 0;
};

/// `InjectTime` maps a packet id to its injection cycle.
template <class InjectTime>
class EventQueue {
 public:
  /// `order` lists the packet ids 0..order.size()-1 once each, sorted by
  /// `inject_time` (stably, so equal times keep packet-index order); it
  /// must outlive the queue.  Every packet starts pending at its injection.
  EventQueue(std::span<const std::uint32_t> order, InjectTime inject_time)
      : order_(order),
        inject_time_(inject_time),
        next_(order.size()),
        due_(order.empty() ? kNever : inject_time_(order.front())),
        now_(order.empty() ? 0 : due_) {
    head_.fill(kNil);
  }

  /// Pending events.
  std::size_t size() const {
    return (order_.size() - cursor_) + in_ring_ + overflow_.size();
  }

  /// Schedules `packet`, which must have no pending event, at `time`,
  /// which must not precede the last popped event.
  void push(std::uint64_t time, std::uint32_t packet) {
    SCG_DCHECK_GE(time, now_);
    if (time - now_ < kSlots) {
      append(time, packet);
    } else {
      overflow_.push(Overflow{time, overflow_seq_++, packet});
    }
  }

  /// Pops the earliest event (ties in insertion order) into `ev`; returns
  /// false when no event is pending.
  bool pop(QueuedEvent& ev) {
    for (;;) {
      if (due_ == now_) {
        ev = {now_, order_[cursor_++]};
        due_ = cursor_ < order_.size() ? inject_time_(order_[cursor_]) : kNever;
        return true;
      }
      std::uint32_t& head = head_[now_ & kMask];
      if (head != kNil) {
        ev = {now_, head};
        head = next_[head];
        --in_ring_;
        return true;
      }
      if (in_ring_ == 0) {
        if (due_ == kNever && overflow_.empty()) return false;
        // Nothing is due inside the ring: jump to the next event.
        now_ = overflow_.empty() ? due_ : std::min(due_, overflow_.top().time);
      } else {
        ++now_;
      }
      while (!overflow_.empty() && overflow_.top().time - now_ < kSlots) {
        append(overflow_.top().time, overflow_.top().packet);
        overflow_.pop();
      }
    }
  }

 private:
  static constexpr std::uint64_t kSlots = kEventRingSlots;
  static constexpr std::uint64_t kMask = kSlots - 1;
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
  static constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  static_assert((kSlots & kMask) == 0, "kSlots must be a power of two");

  struct Overflow {
    std::uint64_t time;
    std::uint64_t seq;  ///< push order among overflow events
    std::uint32_t packet;
  };
  /// Min-heap order on (time, push order).
  struct Later {
    bool operator()(const Overflow& a, const Overflow& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  /// Appends `packet` to the bucket of `time`, which is inside the ring.
  void append(std::uint64_t time, std::uint32_t packet) {
    const std::uint64_t slot = time & kMask;
    next_[packet] = kNil;
    if (head_[slot] == kNil) {
      head_[slot] = packet;
    } else {
      next_[tail_[slot]] = packet;
    }
    tail_[slot] = packet;
    ++in_ring_;
  }

  std::span<const std::uint32_t> order_;
  InjectTime inject_time_;
  std::size_t cursor_ = 0;          ///< next injection in `order_`
  std::vector<std::uint32_t> next_;  ///< per packet: next in its bucket
  std::array<std::uint32_t, kSlots> head_;
  std::array<std::uint32_t, kSlots> tail_{};  ///< valid where head_ is set
  std::size_t in_ring_ = 0;
  std::priority_queue<Overflow, std::vector<Overflow>, Later> overflow_;
  std::uint64_t overflow_seq_ = 0;
  std::uint64_t due_;  ///< injection time at the cursor, kNever past the end
  std::uint64_t now_;  ///< cycle of the last pop (or of the first injection)
};

}  // namespace scg
