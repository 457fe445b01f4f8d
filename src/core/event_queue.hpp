// Discrete-event simulation engine.
//
// A time-ordered queue of closures. Events at equal times run in a
// documented, insertion-order-stable sequence: ties break on ascending
// (lane, within-lane scheduling order). Two events scheduled into the
// same lane run in the order they were scheduled; events in different
// lanes run in ascending lane order regardless of which producer's
// schedule call won the race to the queue mutex. Plain schedule() and
// schedule_in() use lane 0, preserving the historical "ties run in
// scheduling order" behavior exactly.
//
// Threading: step / run_until / run_all must only be called from the
// single driver thread that owns the simulation. schedule / schedule_in /
// schedule_lane / now / pending / empty take the queue mutex and so are
// safe from any thread, but no caller needs that today: batch admission
// schedules its completions on the driver thread after establish_batch
// has returned, and pool workers never schedule. Lanes fix the pop order
// of same-time events independently of scheduling order (batch admission
// uses 1 + arrival slot). Actions run outside the queue lock, so an
// action may freely schedule further events.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/assert.hpp"

namespace qres {

class EventQueue {
 public:
  /// Current simulation time (the time of the last executed event).
  double now() const {
    MutexLock lock(mutex_);
    return now_;
  }

  /// Schedules `action` at absolute `time` in lane 0; requires
  /// time >= now().
  void schedule(double time, std::function<void()> action) {
    MutexLock lock(mutex_);
    schedule_locked(0, time, std::move(action));
  }

  /// Schedules `action` `delay` time units from now; requires delay >= 0.
  void schedule_in(double delay, std::function<void()> action) {
    QRES_REQUIRE(delay >= 0.0, "EventQueue::schedule_in: negative delay");
    MutexLock lock(mutex_);
    schedule_locked(0, now_ + delay, std::move(action));
  }

  /// Schedules `action` at absolute `time` in `lane`. Same-time events
  /// pop in ascending (lane, within-lane scheduling order); lane 0 is
  /// the default lane used by schedule(). Safe to call concurrently from
  /// multiple producer threads.
  void schedule_lane(std::uint32_t lane, double time,
                     std::function<void()> action) {
    MutexLock lock(mutex_);
    schedule_locked(lane, time, std::move(action));
  }

  std::size_t pending() const {
    MutexLock lock(mutex_);
    return heap_.size();
  }
  bool empty() const {
    MutexLock lock(mutex_);
    return heap_.empty();
  }

  /// Executes the earliest event; returns false when the queue is empty.
  /// Driver thread only.
  bool step() {
    std::function<void()> action;
    {
      MutexLock lock(mutex_);
      if (heap_.empty()) return false;
      // Move the action out before popping (top() is const; the
      // comparator heap stores by value).
      Event event = heap_.top();
      heap_.pop();
      now_ = event.time;
      action = std::move(event.action);
    }
    action();
    return true;
  }

  /// Runs events with time <= end_time (inclusive); afterwards now() is
  /// max(now, end_time) and later events remain pending. Driver thread
  /// only.
  void run_until(double end_time) {
    for (;;) {
      std::function<void()> action;
      {
        MutexLock lock(mutex_);
        QRES_REQUIRE(end_time >= now_,
                     "EventQueue::run_until: time in the past");
        if (heap_.empty() || heap_.top().time > end_time) {
          if (now_ < end_time) now_ = end_time;
          return;
        }
        Event event = heap_.top();
        heap_.pop();
        now_ = event.time;
        action = std::move(event.action);
      }
      action();
    }
  }

  /// Runs until no events remain. Driver thread only.
  void run_all() {
    while (step()) {
    }
  }

 private:
  struct Event {
    double time;
    std::uint32_t lane;
    std::uint64_t seq;  ///< within-lane scheduling order
    std::function<void()> action;
    bool operator>(const Event& other) const noexcept {
      if (time != other.time) return time > other.time;
      if (lane != other.lane) return lane > other.lane;
      return seq > other.seq;
    }
  };

  void schedule_locked(std::uint32_t lane, double time,
                       std::function<void()> action)
      QRES_REQUIRES(mutex_) {
    QRES_REQUIRE(time >= now_, "EventQueue::schedule: time in the past");
    QRES_REQUIRE(action != nullptr, "EventQueue::schedule: null action");
    if (lane >= lane_seq_.size()) lane_seq_.resize(lane + 1, 0);
    heap_.push(Event{time, lane, lane_seq_[lane]++, std::move(action)});
  }

  mutable Mutex mutex_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_
      QRES_GUARDED_BY(mutex_);
  double now_ QRES_GUARDED_BY(mutex_) = 0.0;
  std::vector<std::uint64_t> lane_seq_ QRES_GUARDED_BY(mutex_);
};

}  // namespace qres
