#include "core/interval_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "disk/disk_array.h"
#include "display_callbacks.h"
#include "sim/simulator.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Millis(605);

// Requests and streams are plain data: lifecycle events go to the
// scheduler's DisplayListener, not to closures each one carries.  The
// bounds are the LP64 sizes: a 32-byte request, and a stream whose
// inline lanes take 208 of its 288 bytes.
static_assert(sizeof(DisplayRequest) <= 32);
static_assert(sizeof(Stream) <= 288);

class SchedulerTest : public ::testing::Test {
 protected:
  void Init(int32_t num_disks, int32_t stride,
            AdmissionPolicy policy = AdmissionPolicy::kContiguous,
            bool coalesce = false) {
    auto disks = DiskArray::Create(num_disks, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    disks_ = std::make_unique<DiskArray>(*std::move(disks));
    SchedulerConfig config;
    config.stride = stride;
    config.interval = kInterval;
    config.policy = policy;
    config.coalesce = coalesce;
    auto sched =
        IntervalScheduler::Create(&sim_, disks_.get(), config, &calls_);
    ASSERT_TRUE(sched.ok()) << sched.status();
    sched_ = *std::move(sched);
  }

  struct Probe {
    bool started = false;
    bool completed = false;
    SimTime latency;
    SimTime completed_at;
  };

  RequestId Request(ObjectId object, int32_t start_disk, int32_t degree,
                    int64_t subobjects, Probe* probe) {
    DisplayRequest req;
    req.object = object;
    req.start_disk = start_disk;
    req.degree = degree;
    req.num_subobjects = subobjects;
    auto id = calls_.Submit(
        sched_.get(), req,
        {.on_started =
             [probe](SimTime latency) {
               probe->started = true;
               probe->latency = latency;
             },
         .on_completed =
             [this, probe] {
               probe->completed = true;
               probe->completed_at = sim_.Now();
             }});
    STAGGER_CHECK(id.ok()) << id.status();
    return *id;
  }

  Simulator sim_;
  std::unique_ptr<DiskArray> disks_;
  CallbackListener calls_;
  std::unique_ptr<IntervalScheduler> sched_;
};

TEST_F(SchedulerTest, SubmitValidatesRequests) {
  Init(10, 1);
  DisplayRequest bad;
  bad.degree = 0;
  bad.num_subobjects = 5;
  EXPECT_TRUE(sched_->Submit(bad).status().IsInvalidArgument());
  bad.degree = 11;
  EXPECT_TRUE(sched_->Submit(bad).status().IsInvalidArgument());
  bad.degree = 2;
  bad.num_subobjects = 0;
  EXPECT_TRUE(sched_->Submit(bad).status().IsInvalidArgument());
  bad.num_subobjects = 5;
  bad.start_disk = 10;
  EXPECT_TRUE(sched_->Submit(bad).status().IsInvalidArgument());
}

TEST_F(SchedulerTest, CreateValidatesConfig) {
  auto disks = DiskArray::Create(4, DiskParameters::Evaluation());
  SchedulerConfig config;
  config.stride = 0;
  EXPECT_FALSE(IntervalScheduler::Create(&sim_, &*disks, config).ok());
  config.stride = 1;
  config.interval = SimTime::Zero();
  EXPECT_FALSE(IntervalScheduler::Create(&sim_, &*disks, config).ok());
  config.interval = kInterval;
  config.fragmented_lookahead = -1;
  EXPECT_FALSE(IntervalScheduler::Create(&sim_, &*disks, config).ok());
}

TEST_F(SchedulerTest, SingleDisplayDeliversAllSubobjects) {
  Init(10, 1);
  Probe probe;
  Request(0, 0, 3, 20, &probe);
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_TRUE(probe.started);
  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.latency, SimTime::Zero());  // aligned run free at t=0
  // Delivery spans intervals 0..19; completion at interval 19's tick.
  EXPECT_EQ(probe.completed_at, kInterval * 19);
  EXPECT_EQ(sched_->metrics().displays_completed, 1);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
  EXPECT_EQ(sched_->active_streams(), 0u);
  EXPECT_EQ(sched_->idle_virtual_disks(), 10);
}

TEST_F(SchedulerTest, DiskUtilizationMatchesLoad) {
  Init(10, 1);
  Probe probe;
  Request(0, 0, 5, 100, &probe);
  sim_.RunUntil(kInterval * 100);
  EXPECT_TRUE(probe.completed);
  // 5 of 10 disks busy for 100 of ~100 intervals.
  EXPECT_NEAR(disks_->MeanUtilization(), 0.5, 0.02);
}

// Figure 3: three cluster-aligned displays on 9 disks (M = 3, k = 3)
// run concurrently, one cluster each per interval.
TEST_F(SchedulerTest, Figure3ThreeConcurrentDisplays) {
  Init(9, 3);
  Probe x, y, z;
  Request(0, 0, 3, 30, &x);
  Request(1, 3, 3, 30, &y);
  Request(2, 6, 3, 30, &z);
  sim_.RunUntil(kInterval * 2);
  // All three admitted immediately: every disk busy, no idle slots.
  EXPECT_EQ(sched_->active_streams(), 3u);
  EXPECT_EQ(sched_->idle_virtual_disks(), 0);
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_TRUE(x.completed && y.completed && z.completed);
  EXPECT_EQ(x.completed_at, y.completed_at);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
  EXPECT_NEAR(disks_->MeanUtilization(), 30.0 * 9 / 9 / 198, 0.05);
}

// A fourth request waits until the cluster holding its first subobject
// comes free — the simple-striping admission rule.
TEST_F(SchedulerTest, RequestWaitsForAlignedCluster) {
  Init(9, 3);
  Probe x, y, z, w;
  Request(0, 0, 3, 10, &x);
  Request(1, 3, 3, 10, &y);
  Request(2, 6, 3, 10, &z);
  sim_.RunUntil(kInterval);
  Request(3, 0, 3, 10, &w);
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_TRUE(w.completed);
  // X's stream reads through interval 9; W admitted at interval 10,
  // having arrived during interval 1.
  EXPECT_NEAR(w.latency.seconds(), (kInterval * 9).seconds(), 0.7);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
}

TEST_F(SchedulerTest, BackfillServesLaterRequests) {
  // Two degree-3 displays leave only 3 free virtual disks; a degree-4
  // head request cannot fit, but a degree-3 request behind it can.
  Init(9, 1);
  Probe a, b, blocked, later;
  Request(0, 0, 3, 50, &a);
  Request(1, 3, 3, 50, &b);
  sim_.RunUntil(kInterval);
  Request(2, 0, 4, 10, &blocked);
  Request(3, 0, 3, 10, &later);
  sim_.RunUntil(kInterval * 30);
  EXPECT_FALSE(blocked.started);
  EXPECT_TRUE(later.completed);
}

TEST_F(SchedulerTest, FragmentedAdmissionStartsEarlier) {
  // Degree-1 blockers on even disks: adjacency never available, but
  // Algorithm 1 assembles non-adjacent free disks.
  Init(8, 1, AdmissionPolicy::kFragmented);
  std::vector<Probe> blockers(4);
  for (int b = 0; b < 4; ++b) {
    Request(b, 2 * b, 1, 12, &blockers[static_cast<size_t>(b)]);
  }
  Probe x;
  Request(9, 0, 2, 12, &x);
  sim_.RunUntil(kInterval * 40);
  EXPECT_TRUE(x.completed);
  EXPECT_LT(x.latency, kInterval * 8);  // well before the blockers end
  EXPECT_GE(sched_->metrics().fragmented_admissions, 1);
  EXPECT_GT(sched_->metrics().peak_buffered_fragments, 0);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
}

TEST_F(SchedulerTest, CoalescingMigratesAndDrainsBuffers) {
  Init(16, 1, AdmissionPolicy::kFragmented, /*coalesce=*/true);
  std::vector<Probe> blockers(8);
  for (int b = 0; b < 8; ++b) {
    Request(b, 2 * b, 1, 20, &blockers[static_cast<size_t>(b)]);
  }
  Probe x;
  Request(9, 0, 4, 60, &x);
  sim_.RunUntil(kInterval * 100);
  EXPECT_TRUE(x.completed);
  EXPECT_GT(sched_->metrics().coalesce_migrations, 0);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
  // After everything drains, no stream holds a virtual disk.
  EXPECT_EQ(sched_->active_streams(), 0u);
  EXPECT_EQ(sched_->idle_virtual_disks(), 16);
}

TEST_F(SchedulerTest, CancelPendingRequest) {
  Init(9, 3);
  Probe x, pending;
  Request(0, 0, 3, 30, &x);
  sim_.RunUntil(kInterval);
  RequestId id = Request(1, 0, 3, 10, &pending);
  EXPECT_EQ(sched_->pending_requests(), 1u);
  EXPECT_TRUE(sched_->Cancel(id).ok());
  EXPECT_EQ(sched_->pending_requests(), 0u);
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_FALSE(pending.started);
  EXPECT_FALSE(pending.completed);
  EXPECT_EQ(sched_->metrics().displays_cancelled, 1);
}

TEST_F(SchedulerTest, CancelActiveStreamFreesDisks) {
  Init(9, 3);
  Probe x;
  RequestId id = Request(0, 0, 3, 100, &x);
  sim_.RunUntil(kInterval * 5);
  EXPECT_EQ(sched_->active_streams(), 1u);
  EXPECT_TRUE(sched_->Cancel(id).ok());
  EXPECT_EQ(sched_->active_streams(), 0u);
  EXPECT_EQ(sched_->idle_virtual_disks(), 9);
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_FALSE(x.completed);
  EXPECT_TRUE(sched_->Cancel(id).IsNotFound());
}

// A live handle is its stream's id wherever the request sits: Cancel
// finds it queued, active or paused by a failed disk.  A dead handle —
// cancelled, sought away, completed or given up — is NotFound.
TEST_F(SchedulerTest, CancelByHandleInEveryState) {
  auto disks = DiskArray::Create(4, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  disks_ = std::make_unique<DiskArray>(*std::move(disks));
  SchedulerConfig config;
  config.interval = kInterval;
  config.degraded_policy = DegradedPolicy::kPause;
  config.max_pause_intervals = 8;
  auto sched = IntervalScheduler::Create(&sim_, disks_.get(), config, &calls_);
  ASSERT_TRUE(sched.ok()) << sched.status();
  sched_ = *std::move(sched);
  // A display over the whole array, counting its interruptions.
  int interrupted = 0;
  const auto whole_array = [&](ObjectId object, Probe* probe) {
    DisplayRequest req;
    req.object = object;
    req.degree = 4;
    req.num_subobjects = 1000;
    auto id = calls_.Submit(
        sched_.get(), req,
        {.on_completed = [probe] { probe->completed = true; },
         .on_interrupted = [&interrupted] { ++interrupted; }});
    STAGGER_CHECK(id.ok()) << id.status();
    return *id;
  };

  // Active, then a queued request behind it.
  Probe paused, queued;
  const RequestId paused_id = whole_array(0, &paused);
  sim_.RunUntil(kInterval * 2);
  ASSERT_EQ(sched_->active_streams(), 1u);
  const RequestId queued_id = Request(1, 0, 2, 10, &queued);
  EXPECT_EQ(sched_->pending_requests(), 1u);
  EXPECT_TRUE(sched_->Cancel(queued_id).ok());
  EXPECT_EQ(sched_->pending_requests(), 0u);
  EXPECT_TRUE(sched_->Cancel(queued_id).IsNotFound());
  EXPECT_EQ(sched_->metrics().displays_cancelled, 1);

  // A failed disk pauses the active display; cancel it while paused.
  disks_->FailDisk(2);
  sim_.RunUntil(kInterval * 3);
  ASSERT_EQ(sched_->paused_streams(), 1u);
  EXPECT_EQ(sched_->active_streams(), 0u);
  EXPECT_TRUE(sched_->Cancel(paused_id).ok());
  EXPECT_EQ(sched_->paused_streams(), 0u);
  EXPECT_EQ(sched_->metrics().displays_cancelled, 2);
  EXPECT_TRUE(sched_->Cancel(paused_id).IsNotFound());
  // Past the pause limit nothing is left to give up on.
  sim_.RunUntil(kInterval * 40);
  EXPECT_EQ(interrupted, 0);
  EXPECT_EQ(sched_->metrics().displays_interrupted, 0);
  disks_->RecoverDisk(2);

  // Sought away: the old handle dies, the new one is live.
  Probe sought;
  const RequestId sought_id = Request(2, 0, 2, 100, &sought);
  sim_.RunUntil(kInterval * 42);
  ASSERT_EQ(sched_->active_streams(), 1u);
  auto new_id = sched_->Seek(sought_id, 1, 10);
  ASSERT_TRUE(new_id.ok()) << new_id.status();
  EXPECT_TRUE(sched_->Cancel(sought_id).IsNotFound());
  EXPECT_TRUE(sched_->Seek(sought_id, 1, 10).status().IsFailedPrecondition());
  EXPECT_TRUE(sched_->Cancel(*new_id).ok());
  EXPECT_EQ(sched_->metrics().displays_cancelled, 3);

  // Completed.
  Probe done;
  const RequestId done_id = Request(3, 0, 2, 3, &done);
  sim_.RunUntil(kInterval * 50);
  ASSERT_TRUE(done.completed);
  EXPECT_TRUE(sched_->Cancel(done_id).IsNotFound());

  // Given up: paused past max_pause_intervals.
  Probe given_up;
  const RequestId given_up_id = whole_array(4, &given_up);
  sim_.RunUntil(kInterval * 52);
  ASSERT_EQ(sched_->active_streams(), 1u);
  disks_->FailDisk(0);
  sim_.RunUntil(kInterval * 80);
  EXPECT_EQ(interrupted, 1);
  EXPECT_EQ(sched_->paused_streams(), 0u);
  EXPECT_TRUE(sched_->Cancel(given_up_id).IsNotFound());
  EXPECT_EQ(sched_->metrics().displays_cancelled, 4);
  EXPECT_FALSE(paused.completed || given_up.completed);
}

TEST_F(SchedulerTest, SeekRestartsAtNewPosition) {
  Init(10, 1);
  Probe x;
  RequestId id = Request(0, 0, 2, 100, &x);
  sim_.RunUntil(kInterval * 10);
  // Fast-forward to subobject 80: first fragment on disk (0 + 80*1).
  auto new_id = calls_.Seek(sched_.get(), id, /*target_row=*/80,
                            /*num_subobjects=*/20);
  ASSERT_TRUE(new_id.ok()) << new_id.status();
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_TRUE(x.completed);  // reported under the new handle
  EXPECT_EQ(sched_->metrics().hiccups, 0);
  EXPECT_EQ(sched_->active_streams(), 0u);
  // A seek continues the same display: one request, accounted once,
  // with one startup sample.
  const SchedulerMetrics& m = sched_->metrics();
  EXPECT_EQ(m.displays_requested,
            m.displays_completed + m.displays_cancelled +
                static_cast<int64_t>(sched_->active_streams() +
                                     sched_->pending_requests() +
                                     sched_->paused_streams()));
  EXPECT_EQ(m.displays_requested, 1);
  EXPECT_EQ(m.displays_admitted, 1);
  EXPECT_EQ(m.startup_latency_sec.count(), 1);
}

TEST_F(SchedulerTest, SeekRequiresActiveStream) {
  Init(10, 1);
  Probe x;
  Request(0, 0, 2, 100, &x);
  EXPECT_TRUE(sched_->Seek(9999, 0, 10).status().IsFailedPrecondition());
}

TEST_F(SchedulerTest, SeekOutOfRangeKeepsTheStream) {
  Init(10, 1);
  Probe x;
  RequestId id = Request(0, 0, 2, 100, &x);
  sim_.RunUntil(kInterval * 3);
  EXPECT_TRUE(sched_->Seek(id, /*target_row=*/-1, 20).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(sched_->Seek(id, 0, /*new_num_subobjects=*/0).status()
                  .IsInvalidArgument());
  EXPECT_EQ(sched_->active_streams(), 1u);
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_TRUE(x.completed);
}

TEST_F(SchedulerTest, StartupLatencyMetricMatchesCallback) {
  Init(9, 3);
  Probe x, w;
  Request(0, 0, 3, 10, &x);
  sim_.RunUntil(kInterval);
  Request(1, 0, 3, 10, &w);
  sim_.RunUntil(SimTime::Minutes(2));
  EXPECT_EQ(sched_->metrics().startup_latency_sec.count(), 2);
  EXPECT_NEAR(sched_->metrics().startup_latency_sec.max(),
              w.latency.seconds(), 1e-9);
}

TEST_F(SchedulerTest, ManySequentialDisplaysReuseDisks) {
  Init(6, 2);
  std::vector<Probe> probes(9);
  for (int i = 0; i < 9; ++i) {
    Request(i, (2 * i) % 6, 2, 8, &probes[static_cast<size_t>(i)]);
  }
  sim_.RunUntil(SimTime::Minutes(3));
  for (const Probe& p : probes) EXPECT_TRUE(p.completed);
  EXPECT_EQ(sched_->metrics().displays_completed, 9);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
  EXPECT_EQ(sched_->idle_virtual_disks(), 6);
}

TEST_F(SchedulerTest, DegreeEqualsDUsesWholeArray) {
  Init(4, 1);
  Probe x;
  Request(0, 0, 4, 10, &x);
  sim_.RunUntil(kInterval * 2);
  EXPECT_EQ(sched_->idle_virtual_disks(), 0);
  sim_.RunUntil(SimTime::Minutes(1));
  EXPECT_TRUE(x.completed);
}

}  // namespace
}  // namespace stagger
