#include "sim/simulator.h"

#include <utility>

#include "util/check.h"

namespace stagger {

EventHandle Simulator::ScheduleAt(SimTime when, EventFn fn, int priority) {
  STAGGER_CHECK(when >= now_) << "event scheduled in the past: " << when
                              << " < now " << now_;
  return events_.Schedule(when, std::move(fn), priority);
}

EventHandle Simulator::ScheduleAfter(SimTime delay, EventFn fn, int priority) {
  STAGGER_CHECK(delay >= SimTime::Zero()) << "negative delay";
  return ScheduleAt(now_ + delay, std::move(fn), priority);
}

bool Simulator::Step() {
  if (events_.empty()) return false;
  EventQueue::Fired fired = events_.PopNext();
  STAGGER_DCHECK(fired.time >= now_);
  now_ = fired.time;
  ++events_executed_;
  fired.fn();
  return true;
}

void Simulator::DispatchUntil(SimTime deadline) {
  stop_requested_ = false;
  batch_seq_end_ = 0;
  while (!stop_requested_ && !events_.empty() && events_.NextTime() <= deadline) {
    EventQueue::Fired fired = events_.PopNext();
    STAGGER_DCHECK(fired.time >= now_);
    if (fired.seq >= batch_seq_end_ || fired.time != batch_time_ ||
        fired.priority != batch_priority_) {
      batch_time_ = fired.time;
      batch_priority_ = fired.priority;
      batch_seq_end_ = events_.next_seq();
      ++batches_dispatched_;
    }
    now_ = fired.time;
    ++events_executed_;
    fired.fn();
  }
}

SimTime Simulator::Run() {
  DispatchUntil(SimTime::Max());
  return now_;
}

SimTime Simulator::RunUntil(SimTime deadline) {
  DispatchUntil(deadline);
  // Clock semantics: RunUntil advances to the deadline even if the model
  // went quiet earlier, so utilization denominators are exact.  A
  // RequestStop() leaves the clock where the stopping event fired.
  if (!stop_requested_ && now_ < deadline) now_ = deadline;
  return now_;
}

PeriodicTicker::PeriodicTicker(Simulator* sim, SimTime start, SimTime period,
                               std::function<void(int64_t)> fn)
    : sim_(sim), period_(period), fn_(std::move(fn)) {
  STAGGER_CHECK(period_ > SimTime::Zero()) << "ticker period must be positive";
  Arm(start);
}

void PeriodicTicker::Arm(SimTime when) {
  next_ = sim_->ScheduleAt(when, [this] {
    const int64_t index = tick_++;
    // Re-arm before invoking so the callback can Stop() the ticker.
    Arm(sim_->Now() + period_);
    fn_(index);
  });
}

void PeriodicTicker::Stop() {
  if (!running_) return;
  running_ = false;
  sim_->Cancel(next_);
}

}  // namespace stagger
