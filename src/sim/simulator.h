// The discrete-event simulation kernel.  This is our substitute for the
// CSIM simulation language the paper used: a single-threaded event loop
// with an exact integer clock, deterministic tie-breaking, and a small
// set of conveniences (relative scheduling, periodic tickers, stop
// conditions).

#ifndef STAGGER_SIM_SIMULATOR_H_
#define STAGGER_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>

#include "sim/event_queue.h"
#include "util/status.h"
#include "util/units.h"

namespace stagger {

/// \brief Single-threaded discrete-event simulator.
///
/// Usage:
/// \code
///   Simulator sim;
///   sim.ScheduleAt(SimTime::Seconds(1), [&]{ ... });
///   sim.RunUntil(SimTime::Hours(24));
/// \endcode
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (must be >= Now()).
  EventHandle ScheduleAt(SimTime when, EventFn fn, int priority = 0);

  /// Schedules `fn` after `delay` (must be >= 0).
  EventHandle ScheduleAfter(SimTime delay, EventFn fn, int priority = 0);

  bool Cancel(EventHandle handle) { return events_.Cancel(handle); }

  /// Runs until the event set drains.  Returns the final clock value.
  SimTime Run();

  /// Runs until the clock would pass `deadline` or the event set drains,
  /// whichever is first.  Events exactly at `deadline` are executed.
  /// Returns the final clock value.
  SimTime RunUntil(SimTime deadline);

  /// Executes at most one event; returns false if none are pending.
  bool Step();

  /// Requests that Run/RunUntil return after the current event.
  void RequestStop() { stop_requested_ = true; }

  /// Number of events executed so far (for tests and microbenchmarks).
  uint64_t events_executed() const { return events_executed_; }

  /// Number of same-(time, priority) batches dispatched by Run/RunUntil.
  /// A batch is the events sharing the earliest key that were already
  /// pending when it opened; Step() counts none.
  uint64_t batches_dispatched() const { return batches_dispatched_; }

  size_t pending_events() const { return events_.size(); }

 private:
  /// The pop loop behind Run/RunUntil: fires events up to `deadline`
  /// until the set drains or a stop is requested.  A popped event opens
  /// a new batch unless it shares the open batch's (time, priority) and
  /// was scheduled before the batch opened, so anything a callback
  /// schedules, even at the same key, starts a batch of its own.
  void DispatchUntil(SimTime deadline);

  EventQueue events_;
  SimTime now_ = SimTime::Zero();
  bool stop_requested_ = false;
  uint64_t events_executed_ = 0;
  uint64_t batches_dispatched_ = 0;
  // The open batch's key; an event joins it only if its seq is below
  // batch_seq_end_ (0 = no batch open).
  SimTime batch_time_;
  int batch_priority_ = 0;
  uint64_t batch_seq_end_ = 0;
};

/// \brief Repeats a callback every `period`, starting at `start`.
/// The callback may call Stop() to cancel further ticks.
class PeriodicTicker {
 public:
  /// \param sim     simulator to schedule on; must outlive the ticker.
  /// \param start   absolute time of the first tick.
  /// \param period  strictly positive tick spacing.
  /// \param fn      invoked once per tick with the tick index (0-based).
  PeriodicTicker(Simulator* sim, SimTime start, SimTime period,
                 std::function<void(int64_t)> fn);
  ~PeriodicTicker() { Stop(); }

  PeriodicTicker(const PeriodicTicker&) = delete;
  PeriodicTicker& operator=(const PeriodicTicker&) = delete;

  void Stop();
  bool running() const { return running_; }
  int64_t ticks_fired() const { return tick_; }

 private:
  void Arm(SimTime when);

  Simulator* sim_;
  SimTime period_;
  std::function<void(int64_t)> fn_;
  EventHandle next_;
  int64_t tick_ = 0;
  bool running_ = true;
};

}  // namespace stagger

#endif  // STAGGER_SIM_SIMULATOR_H_
