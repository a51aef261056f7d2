// Edge cases of the interval scheduler beyond the main suite: extreme
// strides, degree-1 streams, observer accounting, pending-request
// control operations, and exact completion timing.

#include <gtest/gtest.h>

#include <memory>

#include "core/interval_scheduler.h"
#include "disk/disk_array.h"
#include "display_callbacks.h"
#include "sim/simulator.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Millis(605);

class SchedulerEdgeTest : public ::testing::Test {
 protected:
  void Init(int32_t num_disks, int32_t stride, SchedulerConfig base = {}) {
    auto disks = DiskArray::Create(num_disks, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    disks_ = std::make_unique<DiskArray>(*std::move(disks));
    base.stride = stride;
    base.interval = kInterval;
    auto sched = IntervalScheduler::Create(&sim_, disks_.get(), base, &calls_);
    ASSERT_TRUE(sched.ok()) << sched.status();
    sched_ = *std::move(sched);
  }

  Simulator sim_;
  std::unique_ptr<DiskArray> disks_;
  CallbackListener calls_;
  std::unique_ptr<IntervalScheduler> sched_;
};

TEST_F(SchedulerEdgeTest, CancelUnknownIdIsNotFound) {
  Init(4, 1);
  EXPECT_TRUE(sched_->Cancel(12345).IsNotFound());
}

TEST_F(SchedulerEdgeTest, SeekOnPendingRequestFails) {
  Init(4, 1);
  DisplayRequest blocker;
  blocker.degree = 4;
  blocker.num_subobjects = 50;
  ASSERT_TRUE(sched_->Submit(std::move(blocker)).ok());
  sim_.RunUntil(kInterval);
  DisplayRequest queued;
  queued.degree = 2;
  queued.num_subobjects = 5;
  auto id = sched_->Submit(std::move(queued));
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(kInterval * 2);
  EXPECT_TRUE(sched_->Seek(*id, 0, 3).status().IsFailedPrecondition());
}

TEST_F(SchedulerEdgeTest, DegreeOneStream) {
  Init(3, 1);
  for (int i = 0; i < 3; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = 1;
    req.start_disk = i;
    req.num_subobjects = 10;
    ASSERT_TRUE(sched_->Submit(std::move(req)).ok());
  }
  sim_.RunUntil(kInterval * 12);
  EXPECT_EQ(calls_.completed(), 3);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
}

TEST_F(SchedulerEdgeTest, StrideDPinsDisplaysToFixedDisks) {
  // k = D: virtual disks never move; two displays on disjoint disk sets
  // coexist, and their reads always hit the same physical disks.
  int64_t reads = 0;
  bool disjoint = true;
  SchedulerConfig config;
  config.read_observer = [&](int64_t, ObjectId o, int64_t, int32_t,
                             int32_t d) {
    ++reads;
    // Object 0 must only read disks 0..3; object 1 only 4..7.
    if ((o == 0) != (d < 4)) disjoint = false;
  };
  Init(8, 8, config);
  for (int i = 0; i < 2; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = 4;
    req.start_disk = 4 * i;
    req.num_subobjects = 6;
    ASSERT_TRUE(sched_->Submit(std::move(req)).ok());
  }
  sim_.RunUntil(kInterval * 10);
  EXPECT_EQ(calls_.completed(), 2);
  EXPECT_EQ(reads, 2 * 4 * 6);
  EXPECT_TRUE(disjoint);
}

TEST_F(SchedulerEdgeTest, ObserverSeesEveryFragmentRead) {
  int64_t reads = 0;
  SchedulerConfig config;
  config.read_observer = [&reads](int64_t, ObjectId, int64_t, int32_t,
                                  int32_t) { ++reads; };
  Init(10, 1, config);
  DisplayRequest req;
  req.degree = 4;
  req.num_subobjects = 25;
  ASSERT_TRUE(sched_->Submit(std::move(req)).ok());
  sim_.RunUntil(SimTime::Minutes(1));
  EXPECT_EQ(reads, 4 * 25);
}

TEST_F(SchedulerEdgeTest, QueueLengthMetricTracksContention) {
  Init(4, 1);
  for (int i = 0; i < 3; ++i) {
    DisplayRequest req;
    req.object = i;
    req.degree = 4;  // whole array: strictly serialized
    req.num_subobjects = 10;
    ASSERT_TRUE(sched_->Submit(std::move(req)).ok());
  }
  sim_.RunUntil(kInterval * 15);  // second display mid-flight
  EXPECT_GT(sched_->metrics().queue_length.Average(sim_.Now()), 0.5);
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_EQ(sched_->metrics().displays_completed, 3);
}

TEST_F(SchedulerEdgeTest, FragmentedPrefersContiguousWhenAvailable) {
  SchedulerConfig config;
  config.policy = AdmissionPolicy::kFragmented;
  Init(10, 1, config);
  DisplayRequest req;
  req.degree = 5;
  req.num_subobjects = 10;
  ASSERT_TRUE(sched_->Submit(std::move(req)).ok());
  sim_.RunUntil(SimTime::Minutes(1));
  EXPECT_EQ(sched_->metrics().displays_completed, 1);
  EXPECT_EQ(sched_->metrics().fragmented_admissions, 0);
  EXPECT_EQ(sched_->metrics().peak_buffered_fragments, 0);
}

TEST_F(SchedulerEdgeTest, CompletionTimeIsExact) {
  Init(6, 1);
  SimTime completed_at;
  DisplayRequest req;
  req.degree = 2;
  req.num_subobjects = 7;
  ASSERT_TRUE(calls_
                  .Submit(sched_.get(), req,
                          {.on_completed = [&] { completed_at = sim_.Now(); }})
                  .ok());
  sim_.RunUntil(SimTime::Minutes(1));
  // Admitted at interval 0 with delta 0: last subobject delivered at
  // interval 6's tick.
  EXPECT_EQ(completed_at, kInterval * 6);
}

TEST_F(SchedulerEdgeTest, DisksReusableImmediatelyAfterCancel) {
  Init(4, 1);
  DisplayRequest a;
  a.degree = 4;
  a.num_subobjects = 100;
  auto id = sched_->Submit(std::move(a));
  ASSERT_TRUE(id.ok());
  sim_.RunUntil(kInterval * 3);
  ASSERT_TRUE(sched_->Cancel(*id).ok());

  DisplayRequest b;
  b.degree = 4;
  b.num_subobjects = 5;
  ASSERT_TRUE(sched_->Submit(std::move(b)).ok());
  sim_.RunUntil(kInterval * 12);
  EXPECT_EQ(calls_.completed(), 1);  // the cancelled display reports nothing
}

TEST_F(SchedulerEdgeTest, ZeroLookaheadMatchesContiguousLatency) {
  // With lookahead 0 the fragmented policy can only pick the disks that
  // are aligned right now — exactly the contiguous rule.
  for (bool fragmented : {false, true}) {
    SchedulerConfig config;
    config.policy = fragmented ? AdmissionPolicy::kFragmented
                               : AdmissionPolicy::kContiguous;
    config.fragmented_lookahead = 0;
    Simulator sim;
    auto disks = DiskArray::Create(6, DiskParameters::Evaluation());
    config.stride = 1;
    config.interval = kInterval;
    CallbackListener calls;
    auto sched = IntervalScheduler::Create(&sim, &*disks, config, &calls);
    ASSERT_TRUE(sched.ok());
    SimTime latency_a, latency_b;
    DisplayRequest req;
    req.degree = 4;
    req.num_subobjects = 8;
    ASSERT_TRUE(calls
                    .Submit(sched->get(), req,
                            {.on_started = [&](SimTime l) { latency_a = l; }})
                    .ok());
    ASSERT_TRUE(calls
                    .Submit(sched->get(), req,
                            {.on_started = [&](SimTime l) { latency_b = l; }})
                    .ok());
    sim.RunUntil(SimTime::Minutes(1));
    EXPECT_EQ(latency_a, SimTime::Zero());
    EXPECT_GT(latency_b, SimTime::Zero());
  }
}

}  // namespace
}  // namespace stagger
