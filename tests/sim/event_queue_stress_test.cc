// Randomized stress of the event queue's cancellation machinery:
// interleave schedules, cancels (including double-cancels and cancels
// of fired events), and pops; verify ordering, counts, and that no
// cancelled event ever fires.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace stagger {
namespace {

TEST(EventQueueStressTest, RandomScheduleCancelPop) {
  Rng rng(2024);
  EventQueue q;

  struct Tracked {
    EventHandle handle;
    bool cancelled = false;
    bool fired = false;
  };
  std::vector<Tracked> events;
  int64_t live = 0;

  for (int round = 0; round < 20000; ++round) {
    const double action = rng.NextDouble();
    if (action < 0.55) {
      // Schedule.
      const size_t index = events.size();
      events.push_back({});
      const SimTime when =
          SimTime::Micros(static_cast<int64_t>(rng.NextBounded(1 << 20)));
      events[index].handle = q.Schedule(when, [&events, index] {
        events[index].fired = true;
      });
      ++live;
    } else if (action < 0.8 && !events.empty()) {
      // Cancel a random event (possibly already fired/cancelled).
      Tracked& t = events[rng.NextBounded(events.size())];
      const bool was_live = !t.cancelled && !t.fired;
      const bool result = q.Cancel(t.handle);
      EXPECT_EQ(result, was_live);
      if (result) {
        t.cancelled = true;
        --live;
      }
    } else if (!q.empty()) {
      // Pop-execute the earliest event.
      q.PopNext().fn();
      --live;
    }
    ASSERT_EQ(static_cast<int64_t>(q.size()), live);
  }

  // Drain; verify monotone times.
  SimTime last = SimTime::Zero();
  while (!q.empty()) {
    auto fired = q.PopNext();
    EXPECT_GE(fired.time, last);
    last = fired.time;
    fired.fn();
  }

  // Exactly the uncancelled events fired.
  for (const Tracked& t : events) {
    EXPECT_NE(t.fired, t.cancelled);
    EXPECT_TRUE(t.fired || t.cancelled);
  }
}

// Every event on one instant: ordering rests on seq alone.  Insertion
// order must be preserved exactly, interleaved cancels included.
TEST(EventQueueStressTest, SingleIntervalCohort) {
  Rng rng(7);
  EventQueue q;
  const SimTime when = SimTime::Millis(42);
  std::vector<EventHandle> handles;
  std::vector<int> fired;
  std::vector<int> expected;
  for (int i = 0; i < 5000; ++i) {
    handles.push_back(q.Schedule(when, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 5000; ++i) {
    if (rng.NextDouble() < 0.3) {
      EXPECT_TRUE(q.Cancel(handles[static_cast<size_t>(i)]));
    } else {
      expected.push_back(i);
    }
  }
  while (!q.empty()) {
    auto f = q.PopNext();
    EXPECT_EQ(f.time, when);
    f.fn();
  }
  EXPECT_EQ(fired, expected);
}

// One event every 8192 us over ~8.5 s, scheduled in reverse: every pop
// is a distinct instant and every schedule sifts to the top.
TEST(EventQueueStressTest, OneEventPerCalendarDay) {
  EventQueue q;
  const int kDays = 4 * 256 + 17;
  std::vector<int> fired;
  for (int i = kDays - 1; i >= 0; --i) {
    q.Schedule(SimTime::Micros(i * int64_t{8192}),
               [&fired, i] { fired.push_back(i); });
  }
  int64_t expect = 0;
  while (!q.empty()) {
    EXPECT_EQ(q.NextTime(), SimTime::Micros(expect * 8192));
    auto f = q.PopNext();
    f.fn();
    ++expect;
  }
  EXPECT_EQ(expect, kDays);
  for (int i = 0; i < kDays; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

// Monotonically increasing far-future times, each more than 6 s past
// the last (the final one ~10 h out).  Alternating schedule/pop keeps
// the queue nearly empty while the clock races ahead.
TEST(EventQueueStressTest, MonotoneFarFutureOverflow) {
  EventQueue q;
  const int64_t kSpanMicros = 2097152;  // ~2.1 s
  int64_t t = 0;
  int fired = 0;
  for (int i = 0; i < 2000; ++i) {
    t += kSpanMicros * 3 + 12345 * i;
    q.Schedule(SimTime::Micros(t), [&fired] { ++fired; });
    if (i % 2 == 0) {
      auto f = q.PopNext();
      f.fn();
    }
  }
  SimTime last = SimTime::Zero();
  while (!q.empty()) {
    auto f = q.PopNext();
    EXPECT_GE(f.time, last);
    last = f.time;
    f.fn();
  }
  EXPECT_EQ(fired, 2000);
}

// Callbacks scheduling more events while the queue is mid-drain,
// including a same-instant event at a lower priority number than the
// one in flight, which must fire next rather than be skipped.
TEST(EventQueueStressTest, ScheduleFromInsideCallback) {
  EventQueue q;
  std::vector<int> fired;
  int64_t clock = 0;

  std::function<void(int)> spawn = [&](int depth) {
    if (depth >= 6) return;
    const int64_t at = clock + 100;
    q.Schedule(SimTime::Micros(at), [&, depth, at] {
      clock = at;
      fired.push_back(depth + 100);
      spawn(depth + 1);
    });
  };

  q.Schedule(SimTime::Micros(10),
             [&] {
               clock = 10;
               fired.push_back(1);
               spawn(0);
               q.Schedule(SimTime::Micros(10), [&] { fired.push_back(0); },
                          /*priority=*/-5);
             },
             /*priority=*/0);
  q.Schedule(SimTime::Micros(10), [&] { fired.push_back(2); },
             /*priority=*/0);

  // Events fire in nondecreasing time even though callbacks keep
  // scheduling.
  int64_t last_us = 0;
  while (!q.empty()) {
    auto f = q.PopNext();
    EXPECT_GE(f.time.micros(), last_us);
    last_us = f.time.micros();
    f.fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 0, 2, 100, 101, 102, 103, 104, 105}));
}

TEST(EventQueueStressTest, CancelEverythingLeavesCleanQueue) {
  EventQueue q;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 1000; ++i) {
    handles.push_back(q.Schedule(SimTime::Micros(i), [] {
      FAIL() << "cancelled event fired";
    }));
  }
  for (EventHandle& h : handles) {
    EXPECT_TRUE(q.Cancel(h));
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.NextTime(), SimTime::Max());
}

}  // namespace
}  // namespace stagger
