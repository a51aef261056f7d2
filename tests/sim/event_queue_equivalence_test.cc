// Differential test of the event kernel against an independent
// reference: a std::priority_queue over (time, priority, seq) with lazy
// cancellation through id sets.  Every observable — firing order,
// NextTime(), size(), Cancel() return values — must match at every step
// of a randomized op sequence, across seeds that exercise clustered
// instants, wide and far-future time spans, priority ties, and cancels
// of events at the top of the heap.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"
#include "util/units.h"

namespace stagger {
namespace {

// The reference event queue, kept as an executable specification.  Interface matches EventQueue except that handles are
// plain ids (EventHandle's constructor is private to EventQueue).
class ReferenceEventQueue {
 public:
  struct Fired {
    SimTime time;
    EventFn fn;
  };

  uint64_t Schedule(SimTime when, EventFn fn, int priority = 0) {
    const uint64_t id = next_seq_++;
    heap_.push(Entry{when, priority, id, id, std::move(fn)});
    live_ids_.insert(id);
    return id;
  }

  bool Cancel(uint64_t id) {
    if (id == 0) return false;
    if (live_ids_.erase(id) == 0) return false;
    cancelled_ids_.insert(id);
    return true;
  }

  bool empty() const { return live_ids_.empty(); }
  size_t size() const { return live_ids_.size(); }

  SimTime NextTime() const {
    auto* self = const_cast<ReferenceEventQueue*>(this);
    self->SkipCancelled();
    if (heap_.empty()) return SimTime::Max();
    return heap_.top().time;
  }

  Fired PopNext() {
    SkipCancelled();
    Entry& top = const_cast<Entry&>(heap_.top());
    Fired fired{top.time, std::move(top.fn)};
    live_ids_.erase(top.id);
    heap_.pop();
    return fired;
  }

 private:
  struct Entry {
    SimTime time;
    int priority;
    uint64_t seq;
    uint64_t id;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority > b.priority;
      return a.seq > b.seq;
    }
  };

  void SkipCancelled() {
    while (!heap_.empty()) {
      auto it = cancelled_ids_.find(heap_.top().id);
      if (it == cancelled_ids_.end()) return;
      cancelled_ids_.erase(it);
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<uint64_t> live_ids_;
  std::unordered_set<uint64_t> cancelled_ids_;
  uint64_t next_seq_ = 1;
};

// One scheduled event mirrored into both queues.
struct Mirrored {
  EventHandle q_handle;
  uint64_t ref_handle = 0;
};

// Seed-dependent time distribution.  Cycles through regimes so every
// seed stresses a different key pattern:
//   0: clustered — a handful of distinct instants (dense ties)
//   1: uniform over ~2 s
//   2: far future — uniform over ~4.8 h
//   3: aligned — 512 instants 8192 us apart
int64_t DrawTime(Rng& rng, uint64_t seed) {
  switch (seed % 4) {
    case 0:
      return static_cast<int64_t>(rng.NextBounded(16)) * 12345;
    case 1:
      return static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 21));
    case 2:
      return static_cast<int64_t>(rng.NextBounded(uint64_t{1} << 34));
    default:
      return static_cast<int64_t>(rng.NextBounded(512)) * 8192;
  }
}

// Runs `rounds` random ops on both queues, asserting every observable
// matches after every op.  Pops go through PopNext on both sides.
void RunLockstep(uint64_t seed, int rounds) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  Rng rng(seed);
  EventQueue q;
  ReferenceEventQueue ref;
  std::vector<Mirrored> events;
  std::vector<size_t> q_log;
  std::vector<size_t> ref_log;

  for (int round = 0; round < rounds; ++round) {
    const double action = rng.NextDouble();
    if (action < 0.5) {
      const size_t index = events.size();
      const SimTime when = SimTime::Micros(DrawTime(rng, seed));
      const int priority = static_cast<int>(rng.NextBounded(7)) - 3;
      Mirrored m;
      m.q_handle = q.Schedule(
          when, [&q_log, index] { q_log.push_back(index); }, priority);
      m.ref_handle =
          ref.Schedule(when, [&ref_log, index] { ref_log.push_back(index); },
                       priority);
      EXPECT_TRUE(m.q_handle.valid());
      events.push_back(m);
    } else if (action < 0.75 && !events.empty()) {
      // Cancel a random event: maybe live, maybe fired, maybe already
      // cancelled.  Both queues must agree on the return value.
      Mirrored& m = events[rng.NextBounded(events.size())];
      const bool ref_result = ref.Cancel(m.ref_handle);
      const bool q_result = q.Cancel(m.q_handle);
      ASSERT_EQ(q_result, ref_result);
    } else if (!ref.empty()) {
      ASSERT_FALSE(q.empty());
      ReferenceEventQueue::Fired rf = ref.PopNext();
      EventQueue::Fired cf = q.PopNext();
      ASSERT_EQ(cf.time, rf.time);
      rf.fn();
      cf.fn();
      ASSERT_EQ(q_log, ref_log);
    }
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
    ASSERT_EQ(q.NextTime(), ref.NextTime());
  }

  // Drain both; identical residue in identical order.
  while (!ref.empty()) {
    ASSERT_EQ(q.NextTime(), ref.NextTime());
    ReferenceEventQueue::Fired rf = ref.PopNext();
    EventQueue::Fired cf = q.PopNext();
    ASSERT_EQ(cf.time, rf.time);
    rf.fn();
    cf.fn();
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q_log, ref_log);
}

TEST(EventQueueEquivalenceTest, LockstepMatchesReferenceAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 56; ++seed) {
    RunLockstep(seed, 1500);
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueueEquivalenceTest, CancelAfterFireAgreesWithReference) {
  EventQueue q;
  ReferenceEventQueue ref;
  EventHandle ch = q.Schedule(SimTime::Micros(5), [] {});
  uint64_t rh = ref.Schedule(SimTime::Micros(5), [] {});
  q.PopNext();
  ref.PopNext();
  EXPECT_EQ(q.Cancel(ch), ref.Cancel(rh));
  EXPECT_FALSE(q.Cancel(ch));
}

}  // namespace
}  // namespace stagger
