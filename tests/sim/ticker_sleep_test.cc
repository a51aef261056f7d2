// Differential tests of sleeping tickers: a ticker that sleeps through
// runs of its ticks and is woken by outside events must leave the
// simulation exactly as a ticker that ticks every period does — the
// same firing order of every event (ticks included, virtual ones at
// their place), the same events_executed() and batches_dispatched(),
// and the same seqs for whatever is scheduled afterwards.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/rng.h"

namespace stagger {
namespace {

constexpr SimTime kPeriod = SimTime::Millis(10);
constexpr int64_t kTickTag = 1000000;

// One run of the scenario.  Both variants share every decision; only
// the sleepy one hands its ticker a `skipped` callback, without which
// SleepUntil never sleeps.
class SleepScenario {
 public:
  SleepScenario(Simulator* sim, bool sleepy, uint64_t seed) : sim_(sim) {
    std::function<void(int64_t)> skipped;
    if (sleepy) {
      skipped = [this](int64_t n) {
        // Ticks ticks_fired() - n .. ticks_fired() - 1 fired virtually,
        // before the event about to run: log them where they fired.
        for (int64_t i = ticker_->ticks_fired() - n; i < ticker_->ticks_fired();
             ++i) {
          log.push_back({(kPeriod * i).micros(), kTickTag + i});
        }
      };
    }
    ticker_ = std::make_unique<PeriodicTicker>(
        sim_, SimTime::Zero(), kPeriod,
        [this](int64_t i) {
          log.push_back({sim_->Now().micros(), kTickTag + i});
          // Sleep plan by tick index: runs of 1-13 ticks, and every
          // eleventh sleep lasts until an outside event wakes it.
          if (i % 3 == 0) {
            ticker_->SleepUntil(i % 11 == 0 ? PeriodicTicker::kNever
                                            : i + 1 + (i * 7919) % 13);
          }
        },
        std::move(skipped));

    Rng rng(seed);
    constexpr int kPriorities[] = {-100, -1, 0, 1};
    for (int e = 0; e < 400; ++e) {
      // A tick instant, or (one in five) a time between two.
      const int64_t tick = 2 + static_cast<int64_t>(rng.NextBounded(300));
      SimTime at = kPeriod * tick;
      if (rng.NextBounded(5) == 0) {
        at += SimTime::Micros(1 + static_cast<int64_t>(rng.NextBounded(9999)));
      }
      const int priority = kPriorities[rng.NextBounded(4)];
      const bool wakes = rng.NextBounded(6) == 0;
      const int64_t tag = e;
      auto fire = [this, tag, wakes] {
        log.push_back({sim_->Now().micros(), tag});
        if (wakes) ticker_->Wake();
      };
      switch (rng.NextBounded(3)) {
        case 0:
          // Scheduled now, long before the instant before `at`.
          sim_->ScheduleAt(at, fire, priority);
          break;
        case 1: {
          // Scheduled after the preceding instant, whose tick armed the
          // one at `at`.
          const SimTime from = kPeriod * (tick - 1) + SimTime::Millis(5);
          sim_->ScheduleAt(from, [this, at, fire, priority] {
            sim_->ScheduleAt(at, fire, priority);
          });
          break;
        }
        default:
          // Scheduled at `at` itself by an earlier-priority event, the
          // way a probe brackets a tick.
          sim_->ScheduleAt(
              at,
              [this, at, fire, priority] {
                log.push_back({sim_->Now().micros(), -1});
                sim_->ScheduleAt(at, fire, priority < 0 ? 0 : priority);
              },
              -1);
          break;
      }
    }
  }

  PeriodicTicker& ticker() { return *ticker_; }

  std::vector<std::pair<int64_t, int64_t>> log;

 private:
  Simulator* sim_;
  std::unique_ptr<PeriodicTicker> ticker_;
};

struct Outcome {
  std::vector<std::pair<int64_t, int64_t>> log;
  uint64_t events = 0;
  uint64_t batches = 0;
  uint64_t skipped = 0;
  int64_t ticks = 0;
  int64_t now_us = 0;
  /// Firing order of events scheduled after the run at the final
  /// instant: checks the seqs the run left behind.
  std::vector<int> tail;
};

// Drives the scenario through RunUntil in uneven chunks, some ending on
// a tick instant, with outside schedules and wakes between chunks.
Outcome RunChunks(bool sleepy, uint64_t seed) {
  Simulator sim;
  SleepScenario sc(&sim, sleepy, seed);
  Rng rng(seed ^ 0x5eed);
  SimTime deadline = SimTime::Zero();
  for (int chunk = 0; chunk < 40; ++chunk) {
    deadline += kPeriod * static_cast<int64_t>(rng.NextBounded(20));
    if (rng.NextBool(0.5)) {
      deadline += SimTime::Micros(static_cast<int64_t>(rng.NextBounded(10000)));
    }
    sim.RunUntil(deadline);
    EXPECT_GT(sim.pending_events(), 0u);
    if (rng.NextBounded(4) == 0) {
      const int64_t tag = 5000 + chunk;
      sim.ScheduleAt(deadline + kPeriod, [&sc, &sim, tag] {
        sc.log.push_back({sim.Now().micros(), tag});
      });
    }
    if (rng.NextBounded(5) == 0) sc.ticker().Wake();
  }
  Outcome out;
  // Three events at the end instant and priority 0: the ticker's next
  // tick (seq taken before them) and their own seqs order them.
  std::vector<int> tail;
  const SimTime end = deadline + kPeriod * 3;
  for (int i = 0; i < 3; ++i) {
    sim.ScheduleAt(end, [&tail, i] { tail.push_back(i); });
  }
  sc.ticker().Wake();
  sim.RunUntil(end);
  out.log = sc.log;
  out.events = sim.events_executed();
  out.batches = sim.batches_dispatched();
  out.skipped = sim.ticks_skipped();
  out.ticks = sc.ticker().ticks_fired();
  out.now_us = sim.Now().micros();
  out.tail = tail;
  return out;
}

TEST(TickerSleepTest, SleepingTickerMatchesTickingTicker) {
  for (uint64_t seed : {1ull, 7ull, 20240101ull}) {
    const Outcome ticking = RunChunks(false, seed);
    const Outcome sleeping = RunChunks(true, seed);
    EXPECT_EQ(ticking.skipped, 0u);
    EXPECT_GT(sleeping.skipped, static_cast<uint64_t>(ticking.ticks / 4))
        << "seed=" << seed;
    ASSERT_EQ(sleeping.log.size(), ticking.log.size()) << "seed=" << seed;
    for (size_t i = 0; i < ticking.log.size(); ++i) {
      ASSERT_EQ(sleeping.log[i], ticking.log[i])
          << "seed=" << seed << " at index " << i;
    }
    EXPECT_EQ(sleeping.events, ticking.events) << "seed=" << seed;
    EXPECT_EQ(sleeping.batches, ticking.batches) << "seed=" << seed;
    EXPECT_EQ(sleeping.ticks, ticking.ticks) << "seed=" << seed;
    EXPECT_EQ(sleeping.now_us, ticking.now_us) << "seed=" << seed;
    EXPECT_EQ(sleeping.tail, ticking.tail) << "seed=" << seed;
  }
}

// Step() executes one event at a time; a virtual tick counts as one.
TEST(TickerSleepTest, StepLoopMatchesTickingTicker) {
  auto run = [](bool sleepy) {
    Simulator sim;
    SleepScenario sc(&sim, sleepy, 99);
    for (int i = 0; i < 1500; ++i) EXPECT_TRUE(sim.Step());
    return std::make_tuple(sc.log, sim.events_executed(), sim.Now().micros(),
                           sim.ticks_skipped() > 0);
  };
  const auto ticking = run(false);
  const auto sleeping = run(true);
  EXPECT_EQ(std::get<0>(sleeping), std::get<0>(ticking));
  EXPECT_EQ(std::get<1>(sleeping), std::get<1>(ticking));
  EXPECT_EQ(std::get<2>(sleeping), std::get<2>(ticking));
  EXPECT_TRUE(std::get<3>(sleeping));
  EXPECT_FALSE(std::get<3>(ticking));
}

TEST(TickerSleepTest, SleepingTickerIsPendingAndWakesOnTime) {
  Simulator sim;
  std::vector<int64_t> real;
  int64_t skipped = 0;
  PeriodicTicker* self = nullptr;
  PeriodicTicker ticker(
      &sim, SimTime::Zero(), kPeriod,
      [&](int64_t i) {
        real.push_back(i);
        if (i == 0) {
          EXPECT_TRUE(self->SleepUntil(5));
        }
      },
      [&](int64_t n) { skipped += n; });
  self = &ticker;
  sim.RunUntil(kPeriod * 2);
  EXPECT_TRUE(ticker.sleeping());
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(ticker.ticks_fired(), 3);
  EXPECT_EQ(skipped, 2);
  sim.RunUntil(kPeriod * 6);
  EXPECT_FALSE(ticker.sleeping());
  EXPECT_EQ(real, (std::vector<int64_t>{0, 5, 6}));
  EXPECT_EQ(skipped, 4);
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_EQ(sim.ticks_skipped(), 4u);
  // Nothing to skip, or no skip callback: the ticker keeps ticking.
  EXPECT_FALSE(ticker.SleepUntil(ticker.ticks_fired()));
  PeriodicTicker plain(&sim, sim.Now(), kPeriod, [](int64_t) {});
  EXPECT_FALSE(plain.SleepUntil(PeriodicTicker::kNever));
}

TEST(TickerSleepTest, OneSleeperPerSimulator) {
  Simulator sim;
  PeriodicTicker* a = nullptr;
  PeriodicTicker* b = nullptr;
  std::vector<bool> slept;
  PeriodicTicker first(
      &sim, SimTime::Zero(), kPeriod,
      [&](int64_t i) {
        if (i == 0) slept.push_back(a->SleepUntil(10));
      },
      [](int64_t) {});
  PeriodicTicker second(
      &sim, SimTime::Zero(), kPeriod,
      [&](int64_t i) {
        if (i == 0) slept.push_back(b->SleepUntil(10));
      },
      [](int64_t) {});
  a = &first;
  b = &second;
  sim.RunUntil(kPeriod * 20);
  EXPECT_EQ(slept, (std::vector<bool>{true, false}));
  EXPECT_EQ(first.ticks_fired(), 21);
  EXPECT_EQ(second.ticks_fired(), 21);
}

TEST(TickerSleepTest, StopWhileSleepingEndsTicks) {
  Simulator sim;
  PeriodicTicker* self = nullptr;
  PeriodicTicker ticker(
      &sim, SimTime::Zero(), kPeriod,
      [&](int64_t) { self->SleepUntil(PeriodicTicker::kNever); },
      [](int64_t) {});
  self = &ticker;
  sim.ScheduleAt(kPeriod * 4 + SimTime::Millis(1), [&] { ticker.Stop(); });
  sim.RunUntil(kPeriod * 10);
  EXPECT_EQ(ticker.ticks_fired(), 5);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.Run(), kPeriod * 10);
}

TEST(TickerSleepDeathTest, RunWithOnlyAnEndlessSleeperAborts) {
  Simulator sim;
  PeriodicTicker* self = nullptr;
  PeriodicTicker ticker(
      &sim, SimTime::Zero(), kPeriod,
      [&](int64_t) { self->SleepUntil(PeriodicTicker::kNever); },
      [](int64_t) {});
  self = &ticker;
  EXPECT_DEATH(sim.Run(), "end of time");
}

}  // namespace
}  // namespace stagger
