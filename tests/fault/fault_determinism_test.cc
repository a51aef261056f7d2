// Determinism of faulted runs: the fault subsystem must not perturb
// the simulation's reproducibility.  Identical seeds produce
// bit-identical schedules and statistics, for the striped scheduler
// and the VDR baseline alike, whether a fault plan is active, the
// injector is present but empty, or absent entirely.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "../core/display_callbacks.h"
#include "core/interval_scheduler.h"
#include "disk/disk_array.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "server/experiment.h"
#include "sim/simulator.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Millis(605);

struct SchedulerRun {
  std::vector<ReadLog::Read> reads;
  int64_t displays_completed = 0;
  int64_t degraded_reads = 0;
  int64_t streams_paused = 0;
  int64_t streams_resumed = 0;
};

// A fixed 6-stream load on 12 disks, optionally with a fault injector.
SchedulerRun RunSchedulerOnce(const FaultPlan& plan, bool with_injector) {
  SchedulerRun out;
  Simulator sim;
  auto disks = DiskArray::Create(12, DiskParameters::Evaluation());
  STAGGER_CHECK(disks.ok());
  SchedulerConfig config;
  config.stride = 2;
  config.interval = kInterval;
  ReadLog log;
  config.read_listener = &log;
  auto sched = IntervalScheduler::Create(&sim, &*disks, config);
  STAGGER_CHECK(sched.ok());

  std::unique_ptr<FaultInjector> injector;
  if (with_injector) {
    auto created = FaultInjector::Create(&sim, &*disks, plan);
    STAGGER_CHECK(created.ok()) << created.status();
    injector = *std::move(created);
  }

  for (int i = 0; i < 6; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = 1 + i % 3;
    req.start_disk = (5 * i) % 12;
    req.num_subobjects = 20 + 7 * i;
    sim.ScheduleAt(kInterval * (3 * i), [&sched, req = std::move(req)]() mutable {
      STAGGER_CHECK((*sched)->Submit(std::move(req)).ok());
    });
  }
  sim.RunUntil(kInterval * 400);

  const SchedulerMetrics& m = (*sched)->metrics();
  out.reads = std::move(log.reads);
  out.displays_completed = m.displays_completed;
  out.degraded_reads = m.degraded_reads;
  out.streams_paused = m.streams_paused;
  out.streams_resumed = m.streams_resumed;
  return out;
}

TEST(FaultDeterminismTest, EmptyInjectorIsTransparent) {
  const FaultPlan empty;
  const SchedulerRun bare = RunSchedulerOnce(empty, /*with_injector=*/false);
  const SchedulerRun with = RunSchedulerOnce(empty, /*with_injector=*/true);
  EXPECT_EQ(bare.reads, with.reads);
  EXPECT_EQ(bare.displays_completed, with.displays_completed);
  EXPECT_EQ(with.degraded_reads, 0);
  EXPECT_EQ(with.streams_paused, 0);
}

TEST(FaultDeterminismTest, FaultedScheduleIsBitIdentical) {
  FaultPlan plan;
  plan.FailAt(4, kInterval * 10)
      .RecoverAt(4, kInterval * 30)
      .StallAt(9, kInterval * 20, kInterval * 3);
  const SchedulerRun a = RunSchedulerOnce(plan, /*with_injector=*/true);
  const SchedulerRun b = RunSchedulerOnce(plan, /*with_injector=*/true);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.displays_completed, b.displays_completed);
  EXPECT_EQ(a.degraded_reads, b.degraded_reads);
  EXPECT_EQ(a.streams_paused, b.streams_paused);
  EXPECT_EQ(a.streams_resumed, b.streams_resumed);
  // And the plan had teeth: some degraded handling actually happened.
  EXPECT_GT(a.degraded_reads + a.streams_paused, 0);
}

// --- end-to-end experiment determinism --------------------------------

ExperimentConfig FaultedConfig(Scheme scheme) {
  ExperimentConfig cfg;
  cfg.scheme = scheme;
  cfg.num_disks = 100;
  cfg.num_objects = 100;
  cfg.subobjects_per_object = 150;
  cfg.preload_objects = 20;
  cfg.stations = 8;
  cfg.geometric_mean = 5.0;
  cfg.warmup = SimTime::Minutes(10);
  cfg.measure = SimTime::Minutes(30);
  cfg.fault_plan.FailAt(3, SimTime::Minutes(12))
      .RecoverAt(3, SimTime::Minutes(20))
      .StallAt(47, SimTime::Minutes(15), SimTime::Seconds(45))
      .FailAt(12, SimTime::Minutes(25))
      .RecoverAt(12, SimTime::Minutes(32));
  return cfg;
}

void ExpectIdentical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_DOUBLE_EQ(a.displays_per_hour, b.displays_per_hour);
  EXPECT_EQ(a.displays_completed, b.displays_completed);
  EXPECT_DOUBLE_EQ(a.mean_startup_latency_sec, b.mean_startup_latency_sec);
  EXPECT_DOUBLE_EQ(a.disk_utilization, b.disk_utilization);
  EXPECT_DOUBLE_EQ(a.tertiary_utilization, b.tertiary_utilization);
  EXPECT_EQ(a.materializations, b.materializations);
  EXPECT_EQ(a.hiccups, b.hiccups);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.degraded_reads, b.degraded_reads);
  EXPECT_EQ(a.streams_paused, b.streams_paused);
  EXPECT_EQ(a.streams_resumed, b.streams_resumed);
  EXPECT_EQ(a.displays_interrupted, b.displays_interrupted);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_DOUBLE_EQ(a.mean_resume_latency_sec, b.mean_resume_latency_sec);
}

TEST(FaultDeterminismTest, StripedExperimentRepeatsExactly) {
  const ExperimentConfig cfg = FaultedConfig(Scheme::kSimpleStriping);
  auto a = RunExperiment(cfg);
  auto b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdentical(*a, *b);
}

TEST(FaultDeterminismTest, VdrExperimentRepeatsExactly) {
  const ExperimentConfig cfg = FaultedConfig(Scheme::kVdr);
  auto a = RunExperiment(cfg);
  auto b = RunExperiment(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdentical(*a, *b);
}

}  // namespace
}  // namespace stagger
