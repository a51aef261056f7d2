#include "core/logical_scheduler.h"

#include <gtest/gtest.h>

#include <memory>

#include "display_callbacks.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Millis(605);

class LogicalSchedulerTest : public ::testing::Test {
 protected:
  void Init(int32_t num_disks, int32_t logical_per_disk, int32_t stride = 1) {
    LogicalSchedulerConfig config;
    config.num_disks = num_disks;
    config.logical_per_disk = logical_per_disk;
    config.stride = stride;
    config.interval = kInterval;
    auto sched = LogicalDiskScheduler::Create(&sim_, config, &calls_);
    ASSERT_TRUE(sched.ok()) << sched.status();
    sched_ = *std::move(sched);
  }

  struct Probe {
    bool started = false;
    bool completed = false;
    SimTime latency;
  };

  RequestId Request(int64_t units, int32_t start_disk, int64_t subobjects,
                    Probe* probe, bool partial_first = false) {
    LogicalRequest req;
    req.object = 0;
    req.units = units;
    req.start_disk = start_disk;
    req.num_subobjects = subobjects;
    req.partial_lane_first = partial_first;
    auto id = calls_.Submit(
        sched_.get(), req,
        {.on_started =
             [probe](SimTime latency) {
               probe->started = true;
               probe->latency = latency;
             },
         .on_completed = [probe] { probe->completed = true; }});
    STAGGER_CHECK(id.ok()) << id.status();
    return *id;
  }

  Simulator sim_;
  CallbackListener calls_;
  std::unique_ptr<LogicalDiskScheduler> sched_;
};

TEST_F(LogicalSchedulerTest, ConfigValidation) {
  LogicalSchedulerConfig config;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());  // no disks
  config.num_disks = 4;
  EXPECT_TRUE(config.Validate().ok());
  config.logical_per_disk = 0;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
  config.logical_per_disk = 2;
  config.stride = 5;
  EXPECT_TRUE(config.Validate().IsInvalidArgument());
}

TEST_F(LogicalSchedulerTest, SubmitValidation) {
  Init(4, 2);
  LogicalRequest req;
  req.units = 0;
  req.num_subobjects = 5;
  EXPECT_TRUE(sched_->Submit(req).status().IsInvalidArgument());
  req.units = 9;  // > D * L = 8
  EXPECT_TRUE(sched_->Submit(req).status().IsInvalidArgument());
  req.units = 2;
  req.num_subobjects = 0;
  EXPECT_TRUE(sched_->Submit(req).status().IsInvalidArgument());
  req.num_subobjects = 5;
  req.start_disk = 4;
  EXPECT_TRUE(sched_->Submit(req).status().IsInvalidArgument());
}

// Figure 7: two half-rate objects share one disk within an interval.
TEST_F(LogicalSchedulerTest, TwoHalfRateObjectsShareOneDisk) {
  Init(1, 2);
  Probe a, b;
  Request(1, 0, 10, &a);
  Request(1, 0, 10, &b);
  sim_.RunUntil(kInterval * 12);
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(b.completed);
  // Both started in the first interval — concurrent on one disk.
  EXPECT_EQ(a.latency, SimTime::Zero());
  EXPECT_EQ(b.latency, SimTime::Zero());
}

TEST_F(LogicalSchedulerTest, WholeDiskAllocationSerializes) {
  Init(1, 1);
  Probe a, b;
  Request(1, 0, 10, &a);
  Request(1, 0, 10, &b);
  sim_.RunUntil(kInterval * 25);
  EXPECT_TRUE(a.completed && b.completed);
  // The second display had to wait for the first to finish.
  EXPECT_GE(b.latency, kInterval * 9);
}

TEST_F(LogicalSchedulerTest, PartialLanesBuffer) {
  Init(2, 2);
  Probe a;
  Request(3, 0, 10, &a);  // 1.5 disks: one full lane + one half lane
  sim_.RunUntil(kInterval * 12);
  EXPECT_TRUE(a.completed);
  // The half lane buffers (1 - 1/2) of its data each interval.
  EXPECT_GT(sched_->metrics().buffered_fraction.Average(sim_.Now()), 0.0);
}

TEST_F(LogicalSchedulerTest, FullLanesDoNotBuffer) {
  Init(2, 2);
  Probe a;
  Request(4, 0, 10, &a);  // exactly two whole disks
  sim_.RunUntil(kInterval * 12);
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(sched_->metrics().buffered_fraction.Average(sim_.Now()), 0.0);
}

TEST_F(LogicalSchedulerTest, UtilizationAccountsUnits) {
  Init(2, 2);
  Probe a;
  Request(2, 0, 10, &a);  // half the farm's units
  sim_.RunUntil(kInterval * 10);
  EXPECT_NEAR(sched_->Utilization(), 0.5, 0.05);
}

// The Section 3.2.3 capacity claim, measured: 30 mbps objects
// (1.5 disks at B_Disk = 20) on a 6-disk farm.  Whole-disk allocation
// rounds each display up to 2 disks (3 concurrent); with L = 2 and the
// Figure 7 pairing ([full, half] next to [half, full]) four displays
// fit — 33% more concurrency from the same disks.
TEST_F(LogicalSchedulerTest, LogicalUnitsRaiseConcurrency) {
  Init(6, 1);
  Probe whole[4];
  for (int i = 0; i < 4; ++i) {
    Request(2, (2 * i) % 6, 20, &whole[i]);  // ceil(30/20) = 2 disks
  }
  sim_.RunUntil(kInterval);
  int started_whole = 0;
  for (const Probe& p : whole) {
    if (p.started) ++started_whole;
  }
  EXPECT_EQ(started_whole, 3);  // 6 disks / 2 = 3 at once

  // Logical halves, paired: X=[full@0,half@1], Y=[half@1,full@2],
  // Z=[full@3,half@4], W=[half@4,full@5].
  Init(6, 2);
  Probe half[4];
  Request(3, 0, 20, &half[0], /*partial_first=*/false);
  Request(3, 1, 20, &half[1], /*partial_first=*/true);
  Request(3, 3, 20, &half[2], /*partial_first=*/false);
  Request(3, 4, 20, &half[3], /*partial_first=*/true);
  sim_.RunUntil(kInterval);
  int started_half = 0;
  for (const Probe& p : half) {
    if (p.started) ++started_half;
  }
  EXPECT_EQ(started_half, 4);
}

TEST_F(LogicalSchedulerTest, StrideShiftsLanes) {
  // Stride > 1 with gcd(D, k) = 1 still delivers (frame invariance).
  Init(5, 2, /*stride=*/3);
  Probe a, b;
  Request(3, 0, 15, &a);
  Request(3, 2, 15, &b);
  sim_.RunUntil(kInterval * 20);
  EXPECT_TRUE(a.completed && b.completed);
}

TEST_F(LogicalSchedulerTest, MetricsCountRequests) {
  Init(2, 2);
  Probe a;
  Request(1, 0, 5, &a);
  sim_.RunUntil(kInterval * 8);
  EXPECT_EQ(sched_->metrics().displays_requested, 1);
  EXPECT_EQ(sched_->metrics().displays_completed, 1);
  EXPECT_EQ(sched_->metrics().startup_latency_sec.count(), 1);
  EXPECT_EQ(sched_->active_streams(), 0u);
}

}  // namespace
}  // namespace stagger
