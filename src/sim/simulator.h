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

class PeriodicTicker;

/// \brief Single-threaded discrete-event simulator.
///
/// Usage:
/// \code
///   Simulator sim;
///   sim.ScheduleAt(SimTime::Seconds(1), [&]{ ... });
///   sim.RunUntil(SimTime::Hours(24));
/// \endcode
///
/// Sleeping tickers.  A PeriodicTicker whose ticks would change nothing
/// but counters with a closed form may sleep (PeriodicTicker::SleepUntil);
/// at most one ticker per simulator sleeps at a time.  Its ticks are
/// then fired virtually: no callback runs, but each tick still happens
/// at its place in the (time, priority, seq) order.  Before every real
/// event, and at the end of RunUntil (or as the one event of a Step),
/// the ticks of the sleeper that precede it are fired in closed form,
/// in one go:
///   - each consumes the seq its re-arm would have taken, so events
///     scheduled afterwards get the seqs they would have got;
///   - each counts in events_executed(), and in batches_dispatched()
///     with the open batch's state, exactly as the real tick would;
///   - the owner gets one `skipped(n)` call for the n ticks;
///   - the tick at the wake index, or the next one after a Wake(), is
///     inserted as a real event under the seq it would have had.
/// So same-instant ties order as if the ticker had ticked throughout.
/// Run() and pending_events() see a sleeping ticker as pending.
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
  /// A ticker sleeping with no wake index keeps the set from draining;
  /// running past the end of its ticks' time range is a fatal error.
  SimTime Run();

  /// Runs until the clock would pass `deadline` or the event set drains,
  /// whichever is first.  Events exactly at `deadline` are executed.
  /// Returns the final clock value.
  SimTime RunUntil(SimTime deadline);

  /// Executes at most one event; returns false if none are pending.  A
  /// sleeping ticker's tick, when it comes first, is the one event.
  bool Step();

  /// Requests that Run/RunUntil return after the current event.
  void RequestStop() { stop_requested_ = true; }

  /// Number of events executed so far (for tests and microbenchmarks),
  /// a sleeping ticker's virtual ticks included.
  uint64_t events_executed() const { return events_executed_; }

  /// Of those, the ticks a sleeping ticker fired virtually.
  uint64_t ticks_skipped() const { return ticks_skipped_; }

  /// Number of same-(time, priority) batches dispatched by Run/RunUntil.
  /// A batch is the events sharing the earliest key that were already
  /// pending when it opened; Step() counts none.
  uint64_t batches_dispatched() const { return batches_dispatched_; }

  /// Pending events, a sleeping ticker's next tick included.
  size_t pending_events() const {
    return events_.size() + (sleeper_ != nullptr ? 1 : 0);
  }

 private:
  friend class PeriodicTicker;

  /// Fires, in closed form, up to `max_ticks` of the sleeping ticker's
  /// ticks that precede `bound` in firing order, counting batches when
  /// `count_batches`.  Wakes the ticker at its wake index.
  void FireSleepingTicks(const EventQueue::Key& bound, int64_t max_ticks,
                         bool count_batches);

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
  uint64_t ticks_skipped_ = 0;
  PeriodicTicker* sleeper_ = nullptr;
  // The open batch's key; an event joins it only if its seq is below
  // batch_seq_end_ (0 = no batch open).
  SimTime batch_time_;
  int batch_priority_ = 0;
  uint64_t batch_seq_end_ = 0;
};

/// \brief Repeats a callback every `period`, starting at `start`.
/// The callback may call Stop() to cancel further ticks.
///
/// A ticker given a `skipped` callback may sleep through ticks that
/// would do nothing but advance counters with a closed form (see
/// Simulator): the kernel fires them virtually and reports each run of
/// them to `skipped` as one count.
class PeriodicTicker {
 public:
  /// Priority of every tick event.
  static constexpr int kPriority = 0;
  /// SleepUntil index meaning "until woken".
  static constexpr int64_t kNever = INT64_MAX;

  /// \param sim      simulator to schedule on; must outlive the ticker.
  /// \param start    absolute time of the first tick.
  /// \param period   strictly positive tick spacing.
  /// \param fn       invoked once per real tick with the tick index
  ///                 (0-based).
  /// \param skipped  invoked with the number of ticks fired virtually,
  ///                 once per run of them, before the event that
  ///                 follows them runs; it must neither schedule nor
  ///                 cancel events.  Without it the ticker never sleeps.
  PeriodicTicker(Simulator* sim, SimTime start, SimTime period,
                 std::function<void(int64_t)> fn,
                 std::function<void(int64_t)> skipped = nullptr);
  ~PeriodicTicker() { Stop(); }

  PeriodicTicker(const PeriodicTicker&) = delete;
  PeriodicTicker& operator=(const PeriodicTicker&) = delete;

  void Stop();
  bool running() const { return running_; }
  /// Ticks fired so far, real and virtual.
  int64_t ticks_fired() const { return tick_; }

  /// From a tick's callback: fires the ticks before index `wake_index`
  /// (or kNever) virtually, and tick `wake_index` for real.  Returns
  /// false, and keeps ticking, when no tick lies before `wake_index`,
  /// the ticker has no `skipped` callback, or another ticker of the
  /// simulator sleeps.
  bool SleepUntil(int64_t wake_index);
  /// Ends a sleep: the first tick not yet fired runs for real.  Call it
  /// from an event, or between runs, never from `skipped`.
  void Wake();
  bool sleeping() const { return sleeping_; }

 private:
  friend class Simulator;

  void Arm(SimTime when);
  void Fire();

  Simulator* sim_;
  SimTime period_;
  std::function<void(int64_t)> fn_;
  std::function<void(int64_t)> skipped_;
  EventHandle next_;
  /// The next tick's key (time and seq; the priority is kPriority),
  /// kept while it is armed and advanced while the ticker sleeps.
  SimTime next_time_;
  uint64_t next_seq_ = 0;
  int64_t wake_index_ = kNever;
  int64_t tick_ = 0;
  bool running_ = true;
  bool sleeping_ = false;
};

}  // namespace stagger

#endif  // STAGGER_SIM_SIMULATOR_H_
