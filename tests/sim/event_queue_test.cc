#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.h"

namespace stagger {
namespace {

TEST(EventQueueTest, EmptyByDefault) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.NextTime(), SimTime::Max());
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Seconds(3), [&] { order.push_back(3); });
  q.Schedule(SimTime::Seconds(1), [&] { order.push_back(1); });
  q.Schedule(SimTime::Seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.PopNext().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(SimTime::Seconds(1), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.PopNext().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, PriorityBreaksTiesBeforeInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Seconds(1), [&] { order.push_back(1); }, /*priority=*/5);
  q.Schedule(SimTime::Seconds(1), [&] { order.push_back(2); }, /*priority=*/1);
  while (!q.empty()) q.PopNext().fn();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueueTest, NextTimeTracksEarliestLiveEvent) {
  EventQueue q;
  q.Schedule(SimTime::Seconds(5), [] {});
  EventHandle early = q.Schedule(SimTime::Seconds(2), [] {});
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(2));
  EXPECT_TRUE(q.Cancel(early));
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(5));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  EventHandle h = q.Schedule(SimTime::Seconds(1), [&] { ++fired; });
  q.Schedule(SimTime::Seconds(2), [&] { ++fired; });
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.PopNext().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, DoubleCancelReturnsFalse) {
  EventQueue q;
  EventHandle h = q.Schedule(SimTime::Seconds(1), [] {});
  EXPECT_TRUE(q.Cancel(h));
  EXPECT_FALSE(q.Cancel(h));
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  EventHandle h = q.Schedule(SimTime::Seconds(1), [] {});
  q.PopNext();
  EXPECT_FALSE(q.Cancel(h));
}

TEST(EventQueueTest, InvalidHandleCancelIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(EventHandle()));
}

TEST(EventQueueTest, PopReturnsScheduledTime) {
  EventQueue q;
  q.Schedule(SimTime::Millis(250), [] {});
  auto fired = q.PopNext();
  EXPECT_EQ(fired.time, SimTime::Millis(250));
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue q;
  // Deterministic pseudo-random times; verify nondecreasing pop order.
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    q.Schedule(SimTime::Micros(static_cast<int64_t>(x % 1000000)), [] {});
  }
  SimTime last = SimTime::Zero();
  while (!q.empty()) {
    auto fired = q.PopNext();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

// The four tests below check same-instant cohorts: the queue pops them in
// (priority, seq) order, and Simulator::Run draws the batch boundaries
// from each popped key and the queue's next_seq().

TEST(EventQueueTest, PopIntervalReturnsWholeCohort) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.Schedule(SimTime::Seconds(1), [&order, i] { order.push_back(i); });
  }
  q.Schedule(SimTime::Seconds(2), [&order] { order.push_back(99); });

  const uint64_t seq_end = q.next_seq();
  for (int i = 0; i < 5; ++i) {
    EventQueue::Fired f = q.PopNext();
    EXPECT_EQ(f.time, SimTime::Seconds(1));
    EXPECT_EQ(f.priority, 0);
    EXPECT_LT(f.seq, seq_end);
    f.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.NextTime(), SimTime::Seconds(2));

  // Run dispatches the whole cohort as one batch.
  Simulator sim;
  std::vector<int> sim_order;
  for (int i = 0; i < 5; ++i) {
    sim.ScheduleAt(SimTime::Seconds(1),
                   [&sim_order, i] { sim_order.push_back(i); });
  }
  sim.ScheduleAt(SimTime::Seconds(2), [&sim_order] { sim_order.push_back(99); });
  EXPECT_EQ(sim.RunUntil(SimTime::Seconds(1)), SimTime::Seconds(1));
  EXPECT_EQ(sim_order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(sim.events_executed(), 5u);
  EXPECT_EQ(sim.batches_dispatched(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(EventQueueTest, PriorityPartitionsBatchesAtOneInstant) {
  EventQueue q;
  q.Schedule(SimTime::Seconds(1), [] {}, /*priority=*/2);
  q.Schedule(SimTime::Seconds(1), [] {}, /*priority=*/1);
  q.Schedule(SimTime::Seconds(1), [] {}, /*priority=*/1);

  EXPECT_EQ(q.PopNext().priority, 1);
  EXPECT_EQ(q.PopNext().priority, 1);
  EXPECT_EQ(q.PopNext().priority, 2);
  EXPECT_TRUE(q.empty());

  // One instant, two priorities: two batches of 2 and 1.
  Simulator sim;
  sim.ScheduleAt(SimTime::Seconds(1), [] {}, /*priority=*/2);
  sim.ScheduleAt(SimTime::Seconds(1), [] {}, /*priority=*/1);
  sim.ScheduleAt(SimTime::Seconds(1), [] {}, /*priority=*/1);
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.batches_dispatched(), 2u);
}

TEST(EventQueueTest, CancelWhileStagedPreventsFiring) {
  EventQueue q;
  int fired = 0;
  q.Schedule(SimTime::Seconds(1), [&] { ++fired; });
  EventHandle victim = q.Schedule(SimTime::Seconds(1), [&] { ++fired; });
  q.Schedule(SimTime::Seconds(1), [&] { ++fired; });

  q.PopNext().fn();
  EXPECT_TRUE(q.Cancel(victim));  // same instant, not yet popped
  EXPECT_FALSE(q.Cancel(victim));
  while (!q.empty()) q.PopNext().fn();
  EXPECT_EQ(fired, 2);

  // Cancelled from inside the cohort's first callback: the rest of the
  // cohort still fires as the same batch.
  Simulator sim;
  int sim_fired = 0;
  EventHandle sim_victim;
  sim.ScheduleAt(SimTime::Seconds(1), [&] {
    ++sim_fired;
    EXPECT_TRUE(sim.Cancel(sim_victim));
  });
  sim_victim = sim.ScheduleAt(SimTime::Seconds(1), [&] { ++sim_fired; });
  sim.ScheduleAt(SimTime::Seconds(1), [&] { ++sim_fired; });
  sim.Run();
  EXPECT_EQ(sim_fired, 2);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.batches_dispatched(), 1u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(EventQueueTest, EqualKeyScheduleJoinsOpenBatchInstant) {
  EventQueue q;
  std::vector<int> order;
  q.Schedule(SimTime::Seconds(1), [&] { order.push_back(0); });
  const uint64_t seq_end = q.next_seq();
  q.PopNext().fn();
  // Same (time, priority) as the event just fired: it fires at this
  // instant, with a seq past the one its batch opened with.
  q.Schedule(SimTime::Seconds(1), [&] { order.push_back(1); });
  EventQueue::Fired f = q.PopNext();
  EXPECT_EQ(f.time, SimTime::Seconds(1));
  EXPECT_GE(f.seq, seq_end);
  f.fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));

  // Under Run the same-key event fires at the same instant, as a new
  // batch.
  Simulator sim;
  std::vector<int> sim_order;
  sim.ScheduleAt(SimTime::Seconds(1), [&] {
    sim_order.push_back(0);
    sim.ScheduleAt(sim.Now(), [&] { sim_order.push_back(1); });
  });
  EXPECT_EQ(sim.Run(), SimTime::Seconds(1));
  EXPECT_EQ(sim_order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.batches_dispatched(), 2u);
}

TEST(EventQueueTest, ScheduleAndCancelChurnKeepsMemoryBounded) {
  EventQueue q;
  // One million schedule/cancel pairs against a small live set.  With
  // eager callback release and heap compaction, neither the buffered
  // entries nor the slot table may grow with the churn count.
  std::vector<EventHandle> live;
  for (int i = 0; i < 64; ++i) {
    live.push_back(q.Schedule(SimTime::Micros(i), [] {}));
  }
  for (int i = 0; i < 1000000; ++i) {
    EventHandle h = q.Schedule(SimTime::Micros(i % 4096), [] {});
    EXPECT_TRUE(q.Cancel(h));
    EXPECT_FALSE(q.Cancel(h));  // generation check: stale handle
    EXPECT_TRUE(h.valid());     // validity is not liveness
  }
  EXPECT_EQ(q.size(), 64u);
  // Cancelled debt is compacted away: entries must stay within a small
  // constant of the live set, and slots must be recycled.
  EXPECT_LE(q.buffered_entries(), 64u + 256u);
  EXPECT_LE(q.allocated_slots(), 64u + 1024u);
  for (EventHandle& h : live) EXPECT_TRUE(q.Cancel(h));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueDeathTest, PopOnEmptyAborts) {
  EventQueue q;
  EXPECT_DEATH(q.PopNext(), "PopNext on empty");
}

}  // namespace
}  // namespace stagger
