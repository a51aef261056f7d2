#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "disk/disk_array.h"
#include "disk/disk_parameters.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "util/check.h"

namespace stagger {
namespace {

TEST(SimulatorTest, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime::Zero());
}

TEST(SimulatorTest, RunExecutesAllEventsInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::Seconds(2), [&] { order.push_back(2); });
  sim.ScheduleAt(SimTime::Seconds(1), [&] { order.push_back(1); });
  const SimTime end = sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(end, SimTime::Seconds(2));
}

TEST(SimulatorTest, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) sim.ScheduleAfter(SimTime::Seconds(1), chain);
  };
  sim.ScheduleAt(SimTime::Seconds(1), chain);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), SimTime::Seconds(5));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(SimTime::Seconds(1), [&] { ++fired; });
  sim.ScheduleAt(SimTime::Seconds(10), [&] { ++fired; });
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime::Seconds(5));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilExecutesEventExactlyAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(SimTime::Seconds(5), [&] { ++fired; });
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(SimTime::Hours(1));
  EXPECT_EQ(sim.Now(), SimTime::Hours(1));
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  SimTime observed;
  sim.ScheduleAt(SimTime::Seconds(3), [&] {
    sim.ScheduleAfter(SimTime::Seconds(2), [&] { observed = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(observed, SimTime::Seconds(5));
}

TEST(SimulatorTest, CancelPendingEvent) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.ScheduleAt(SimTime::Seconds(1), [&] { ++fired; });
  EXPECT_TRUE(sim.Cancel(h));
  sim.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, RequestStopEndsRunEarly) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(SimTime::Seconds(1), [&] {
    ++fired;
    sim.RequestStop();
  });
  sim.ScheduleAt(SimTime::Seconds(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime::Seconds(1));
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(SimTime::Seconds(1), [&] { ++fired; });
  sim.ScheduleAt(SimTime::Seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_executed(), 2u);
}

// Batched dispatch (Run) must replay a fault-laden scenario in exactly
// the order a Step() loop produces.  The scenario mirrors the real
// server: a periodic scheduler tick, fault events at a negative
// priority landing exactly on tick boundaries, per-tick work events,
// and callbacks that cancel and reschedule.
class ReplayScenario {
 public:
  std::vector<std::pair<int64_t, int>> log;  // (time us, tag)

  explicit ReplayScenario(Simulator* sim) : sim_(sim) {
    DiskParameters params = DiskParameters::Evaluation();
    auto disks = DiskArray::Create(4, params);
    STAGGER_CHECK(disks.ok());
    disks_ = std::make_unique<DiskArray>(std::move(disks).ValueOrDie());

    FaultPlan plan;
    plan.FailAt(1, SimTime::Millis(20))
        .StallAt(2, SimTime::Millis(30), SimTime::Millis(25))
        .RecoverAt(1, SimTime::Millis(60))
        .FailAt(3, SimTime::Millis(60));
    auto injector = FaultInjector::Create(sim_, disks_.get(), std::move(plan));
    STAGGER_CHECK(injector.ok());
    injector_ = std::move(injector).ValueOrDie();
    injector_->OnDown([this](DiskId d, SimTime t) {
      log.push_back({t.micros(), 1000 + d});
    });
    injector_->OnUp([this](DiskId d, SimTime t) {
      log.push_back({t.micros(), 2000 + d});
    });

    ticker_ = std::make_unique<PeriodicTicker>(
        sim_, SimTime::Zero(), SimTime::Millis(10), [this](int64_t tick) {
          if (tick >= 10) {
            ticker_->Stop();
            return;
          }
          log.push_back({sim_->Now().micros(), 100});
          // Per-tick work at the same instant, varying priorities.
          for (int i = 0; i < 3; ++i) {
            sim_->ScheduleAt(sim_->Now(),
                             [this, i] {
                               log.push_back({sim_->Now().micros(), 200 + i});
                             },
                             /*priority=*/i % 2);
          }
          // Retries: some fire, some are cancelled before their time.
          if (tick % 2 == 0) {
            retry_ = sim_->ScheduleAfter(SimTime::Millis(25), [this] {
              log.push_back({sim_->Now().micros(), 300});
            });
          } else if (tick % 4 == 1 && retry_.valid()) {
            sim_->Cancel(retry_);
          }
        });
  }

 private:
  Simulator* sim_;
  std::unique_ptr<DiskArray> disks_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<PeriodicTicker> ticker_;
  EventHandle retry_;
};

TEST(SimulatorTest, BatchedRunMatchesStepLoopOnFaultReplay) {
  Simulator step_sim;
  ReplayScenario step_scenario(&step_sim);
  while (step_sim.Step()) {
  }

  Simulator run_sim;
  ReplayScenario run_scenario(&run_sim);
  run_sim.Run();

  // Identical event-fire order, fault applications included.
  ASSERT_EQ(run_scenario.log.size(), step_scenario.log.size());
  for (size_t i = 0; i < run_scenario.log.size(); ++i) {
    EXPECT_EQ(run_scenario.log[i], step_scenario.log[i]) << "at index " << i;
  }
  EXPECT_EQ(run_sim.events_executed(), step_sim.events_executed());
  EXPECT_EQ(run_sim.events_executed(), 48u);
  EXPECT_EQ(run_sim.batches_dispatched(), 37u);

  // Same-instant cohorts count once per batch; Step() counts none.
  EXPECT_GT(run_sim.events_executed(), run_sim.batches_dispatched());
  EXPECT_EQ(step_sim.batches_dispatched(), 0u);
}

// Where Run() draws batch boundaries.  A batch is the run of events
// sharing the earliest (time, priority) that were already pending when
// the batch opened, so each instant below scripts one way a callback can
// end or reshape its cohort.
TEST(SimulatorTest, BatchBoundariesFollowCallbacks) {
  Simulator sim;
  std::vector<int> order;
  auto log = [&order](int tag) { return [&order, tag] { order.push_back(tag); }; };

  // t = 1 s: a same-key schedule from inside the cohort fires after the
  // cohort, as a batch of its own.
  sim.ScheduleAt(SimTime::Seconds(1), [&] {
    order.push_back(10);
    sim.ScheduleAt(sim.Now(), log(12));
  });
  sim.ScheduleAt(SimTime::Seconds(1), log(11));

  // t = 2 s: a same-instant schedule with a lower priority number
  // preempts the rest of the cohort, which resumes as a new batch.
  sim.ScheduleAt(SimTime::Seconds(2), [&] {
    order.push_back(20);
    sim.ScheduleAt(sim.Now(), log(22), /*priority=*/-1);
  });
  sim.ScheduleAt(SimTime::Seconds(2), log(21));

  // t = 3 s: cancelling a pending member of the cohort keeps it from
  // firing and leaves the batch whole.
  EventHandle victim;
  sim.ScheduleAt(SimTime::Seconds(3), [&] {
    order.push_back(30);
    EXPECT_TRUE(sim.Cancel(victim));
  });
  victim = sim.ScheduleAt(SimTime::Seconds(3), log(31));
  sim.ScheduleAt(SimTime::Seconds(3), log(32));

  // t = 4 s: RequestStop in mid-cohort; the next Run opens a new batch.
  sim.ScheduleAt(SimTime::Seconds(4), log(40));
  sim.ScheduleAt(SimTime::Seconds(4), [&] {
    order.push_back(41);
    sim.RequestStop();
  });
  sim.ScheduleAt(SimTime::Seconds(4), log(42));

  EXPECT_EQ(sim.Run(), SimTime::Seconds(4));
  EXPECT_EQ(order, (std::vector<int>{10, 11, 12, 20, 22, 21, 30, 32, 40, 41}));
  EXPECT_EQ(sim.events_executed(), 10u);
  EXPECT_EQ(sim.batches_dispatched(), 7u);
  EXPECT_EQ(sim.pending_events(), 1u);

  EXPECT_EQ(sim.Run(), SimTime::Seconds(4));
  EXPECT_EQ(order.back(), 42);
  EXPECT_EQ(sim.events_executed(), 11u);
  EXPECT_EQ(sim.batches_dispatched(), 8u);
}

TEST(SimulatorDeathTest, SchedulingInThePastAborts) {
  Simulator sim;
  sim.ScheduleAt(SimTime::Seconds(5), [] {});
  sim.Run();
  EXPECT_DEATH(sim.ScheduleAt(SimTime::Seconds(1), [] {}),
               "scheduled in the past");
}

TEST(PeriodicTickerTest, FiresAtFixedCadence) {
  Simulator sim;
  std::vector<SimTime> at;
  PeriodicTicker ticker(&sim, SimTime::Seconds(1), SimTime::Seconds(2),
                        [&](int64_t) { at.push_back(sim.Now()); });
  sim.RunUntil(SimTime::Seconds(7));
  ASSERT_EQ(at.size(), 4u);  // t = 1, 3, 5, 7
  EXPECT_EQ(at[0], SimTime::Seconds(1));
  EXPECT_EQ(at[3], SimTime::Seconds(7));
  EXPECT_EQ(ticker.ticks_fired(), 4);
}

TEST(PeriodicTickerTest, PassesTickIndex) {
  Simulator sim;
  std::vector<int64_t> indices;
  PeriodicTicker ticker(&sim, SimTime::Zero(), SimTime::Seconds(1),
                        [&](int64_t i) { indices.push_back(i); });
  sim.RunUntil(SimTime::Seconds(3));
  EXPECT_EQ(indices, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(PeriodicTickerTest, StopFromCallback) {
  Simulator sim;
  PeriodicTicker* self = nullptr;
  int fired = 0;
  PeriodicTicker ticker(&sim, SimTime::Zero(), SimTime::Seconds(1),
                        [&](int64_t) {
                          if (++fired == 3) self->Stop();
                        });
  self = &ticker;
  sim.RunUntil(SimTime::Seconds(10));
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(ticker.running());
}

TEST(PeriodicTickerTest, DestructionCancelsFutureTicks) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTicker ticker(&sim, SimTime::Seconds(1), SimTime::Seconds(1),
                          [&](int64_t) { ++fired; });
  }
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace stagger
