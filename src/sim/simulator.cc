#include "sim/simulator.h"

#include <algorithm>
#include <climits>
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

namespace {

// A bound past every event: a sleeping ticker's ticks up to `deadline`
// precede it.
EventQueue::Key EndOf(SimTime deadline) {
  return EventQueue::Key{deadline, INT_MAX, UINT64_MAX};
}

}  // namespace

void Simulator::FireSleepingTicks(const EventQueue::Key& bound,
                                  int64_t max_ticks, bool count_batches) {
  PeriodicTicker& t = *sleeper_;
  constexpr int kPriority = PeriodicTicker::kPriority;
  const SimTime first = t.next_time_;
  const bool first_precedes =
      first < bound.time ||
      (first == bound.time &&
       (kPriority < bound.priority ||
        (kPriority == bound.priority && t.next_seq_ < bound.seq)));
  if (!first_precedes) return;
  // Every later tick's seq is taken from here on, above any pending
  // event's, so only time and priority order it against the bound.
  const int64_t period = t.period_.micros();
  const int64_t last_us =
      bound.time.micros() - (kPriority < bound.priority ? 0 : 1);
  const int64_t later =
      last_us < first.micros() ? 0 : (last_us - first.micros()) / period;
  const int64_t n = std::min({max_ticks, t.wake_index_ - t.tick_, later + 1});
  STAGGER_CHECK(n <= (SimTime::Max().micros() - first.micros()) / period)
      << "a ticker sleeping with no wake index would tick past the end of "
         "time";
  const SimTime last = first + t.period_ * (n - 1);

  // Tick i re-arms under seq base + i; tick n, the next, holds the last.
  const uint64_t base = events_.TakeSeqs(static_cast<uint64_t>(n));
  const auto fired = static_cast<uint64_t>(n);
  events_executed_ += fired;
  ticks_skipped_ += fired;
  if (count_batches) {
    // Only the first tick can join the open batch: every later one is at
    // a later instant than the batch its predecessor opened.
    const bool joins = first == batch_time_ && kPriority == batch_priority_ &&
                       t.next_seq_ < batch_seq_end_;
    batches_dispatched_ += fired - (joins ? 1 : 0);
    if (!joins || n > 1) {
      batch_time_ = last;
      batch_priority_ = kPriority;
      batch_seq_end_ = base + fired - 1;
    }
  }
  STAGGER_DCHECK(last >= now_);
  now_ = last;
  t.tick_ += n;
  t.next_time_ = last + t.period_;
  t.next_seq_ = base + fired - 1;
  if (t.tick_ == t.wake_index_) t.Wake();
  t.skipped_(n);
}

bool Simulator::Step() {
  if (sleeper_ != nullptr) {
    const uint64_t skipped = ticks_skipped_;
    FireSleepingTicks(
        events_.empty() ? EndOf(SimTime::Max()) : events_.NextKey(),
        /*max_ticks=*/1, /*count_batches=*/false);
    if (ticks_skipped_ != skipped) return true;
  }
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
  while (!stop_requested_) {
    if (sleeper_ != nullptr) {
      // The sleeper's ticks before the next event, or through the
      // deadline; its wake tick may become that next event.
      const bool due = !events_.empty() && events_.NextTime() <= deadline;
      FireSleepingTicks(due ? events_.NextKey() : EndOf(deadline),
                        PeriodicTicker::kNever, /*count_batches=*/true);
    }
    if (events_.empty() || events_.NextTime() > deadline) break;
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
                               std::function<void(int64_t)> fn,
                               std::function<void(int64_t)> skipped)
    : sim_(sim), period_(period), fn_(std::move(fn)),
      skipped_(std::move(skipped)) {
  STAGGER_CHECK(period_ > SimTime::Zero()) << "ticker period must be positive";
  Arm(start);
}

void PeriodicTicker::Arm(SimTime when) {
  next_time_ = when;
  next_seq_ = sim_->events_.next_seq();
  next_ = sim_->ScheduleAt(when, [this] { Fire(); }, kPriority);
}

void PeriodicTicker::Fire() {
  const int64_t index = tick_++;
  // Re-arm before invoking so the callback can Stop() the ticker.
  Arm(sim_->Now() + period_);
  fn_(index);
}

bool PeriodicTicker::SleepUntil(int64_t wake_index) {
  if (!running_ || sleeping_ || !skipped_ || wake_index <= tick_ ||
      sim_->sleeper_ != nullptr) {
    return false;
  }
  sim_->Cancel(next_);
  sleeping_ = true;
  wake_index_ = wake_index;
  sim_->sleeper_ = this;
  return true;
}

void PeriodicTicker::Wake() {
  if (!sleeping_) return;
  sleeping_ = false;
  sim_->sleeper_ = nullptr;
  next_ = sim_->events_.ScheduleTaken(next_time_, [this] { Fire(); },
                                      kPriority, next_seq_);
}

void PeriodicTicker::Stop() {
  if (!running_) return;
  running_ = false;
  if (sleeping_) {
    sleeping_ = false;
    sim_->sleeper_ = nullptr;
    return;
  }
  sim_->Cancel(next_);
}

}  // namespace stagger
