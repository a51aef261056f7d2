// Degraded-mode behavior: the scheduler's remap / pause / resume
// machinery and the VDR baseline's cluster failover, driven by the
// fault subsystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "../core/display_callbacks.h"
#include "baseline/vdr_server.h"
#include "core/interval_scheduler.h"
#include "core/invariants.h"
#include "core/schedule_trace.h"
#include "disk/disk_array.h"
#include "fault/fault_injector.h"
#include "sim/simulator.h"
#include "storage/layout.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Millis(605);

class DegradedSchedulerTest : public ::testing::Test {
 protected:
  void Init(int32_t num_disks, int32_t stride, DegradedPolicy policy,
            int64_t max_pause_intervals = 4096) {
    auto disks = DiskArray::Create(num_disks, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    disks_ = std::make_unique<DiskArray>(*std::move(disks));
    SchedulerConfig config;
    config.stride = stride;
    config.interval = kInterval;
    config.degraded_policy = policy;
    config.max_pause_intervals = max_pause_intervals;
    config.read_listener = &log_;
    auto sched =
        IntervalScheduler::Create(&sim_, disks_.get(), config, &calls_);
    ASSERT_TRUE(sched.ok()) << sched.status();
    sched_ = *std::move(sched);
  }

  void Inject(const FaultPlan& plan) {
    auto injector = FaultInjector::Create(&sim_, disks_.get(), plan);
    ASSERT_TRUE(injector.ok()) << injector.status();
    injector_ = *std::move(injector);
  }

  struct Probe {
    bool started = false;
    bool completed = false;
    SimTime latency;
    SimTime completed_at;
  };

  RequestId Request(ObjectId object, int32_t start_disk, int32_t degree,
                    int64_t subobjects, Probe* probe, bool parity = false) {
    DisplayRequest req;
    req.object = object;
    req.start_disk = start_disk;
    req.degree = degree;
    req.num_subobjects = subobjects;
    req.parity = parity;
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

  using Read = ReadLog::Read;

  Simulator sim_;
  std::unique_ptr<DiskArray> disks_;
  CallbackListener calls_;
  std::unique_ptr<IntervalScheduler> sched_;
  std::unique_ptr<FaultInjector> injector_;
  ReadLog log_;
};

// A single failed disk with idle disks around it: the lost fragment's
// read is remapped and the display never notices.
TEST_F(DegradedSchedulerTest, RemapKeepsDisplayOnSchedule) {
  Init(10, 1, DegradedPolicy::kRemapOrPause);
  FaultPlan plan;
  plan.FailAt(5, kInterval * 5).RecoverAt(5, kInterval * 6);
  Inject(plan);

  Probe probe;
  Request(0, 0, 3, 20, &probe);
  sim_.RunUntil(SimTime::Minutes(2));

  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.completed_at, kInterval * 19);  // no delay at all
  EXPECT_EQ(sched_->metrics().degraded_reads, 1);
  EXPECT_EQ(sched_->metrics().streams_paused, 0);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
  EXPECT_EQ(sched_->metrics().displays_completed, 1);

  // At interval 5 the stream's stripe is disks {5,6,7}; 6 and 7 are
  // claimed by its own lanes, so the lost read lands on the lowest idle
  // disk, 0.
  bool found = false;
  for (const Read& r : log_.reads) {
    if (std::get<0>(r) == 5 && std::get<3>(r) == 0) {
      EXPECT_EQ(std::get<4>(r), 0) << "remapped read on wrong disk";
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// The claimed set is per interval: a disk a lane read in one interval
// is free to absorb a remapped read in the next.  Disk 0 is claimed at
// interval 0 (stream 1's only read) and idle at interval 1, when stream
// 0's read of failed disk 5 needs a substitute.
TEST_F(DegradedSchedulerTest, ClaimedSetIsRebuiltEveryInterval) {
  Init(10, 1, DegradedPolicy::kRemapOrPause);
  FaultPlan plan;
  plan.FailAt(5, SimTime::Zero());
  Inject(plan);

  Probe remapped, early;
  Request(0, 4, 1, 3, &remapped);
  Request(1, 0, 1, 1, &early);
  sim_.RunUntil(SimTime::Minutes(1));

  EXPECT_TRUE(remapped.completed);
  EXPECT_TRUE(early.completed);
  EXPECT_EQ(sched_->metrics().degraded_reads, 1);
  const Read want{1, 0, 1, 0, 0};
  EXPECT_NE(std::find(log_.reads.begin(), log_.reads.end(), want),
            log_.reads.end())
      << "stream 0's interval-1 read was not remapped onto disk 0";
}

// A transient stall is treated exactly like a short outage.
TEST_F(DegradedSchedulerTest, StallRemapsForItsDuration) {
  Init(10, 1, DegradedPolicy::kRemapOrPause);
  FaultPlan plan;
  plan.StallAt(6, kInterval * 5, kInterval * 2);
  Inject(plan);

  Probe probe;
  Request(0, 0, 3, 20, &probe);
  sim_.RunUntil(SimTime::Minutes(2));

  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.completed_at, kInterval * 19);
  // Disk 6 is read at intervals 4..6 (lanes 2,1,0); the stall covers
  // intervals 5 and 6.
  EXPECT_EQ(sched_->metrics().degraded_reads, 2);
  EXPECT_EQ(sched_->metrics().streams_paused, 0);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
}

// kPause never remaps: the stream parks and resumes with exponential
// backoff once the disk recovers.
TEST_F(DegradedSchedulerTest, PauseAndResumeAfterRecovery) {
  Init(10, 1, DegradedPolicy::kPause);
  FaultPlan plan;
  plan.FailAt(5, kInterval * 5).RecoverAt(5, kInterval * 10);
  Inject(plan);

  Probe probe;
  Request(0, 0, 3, 20, &probe);

  sim_.RunUntil(kInterval * 5 + SimTime::Millis(1));
  EXPECT_EQ(sched_->paused_streams(), 1u);
  EXPECT_EQ(sched_->active_streams(), 0u);

  sim_.RunUntil(SimTime::Minutes(2));
  // Paused at interval 5 with 5 subobjects delivered; retries at 6 and
  // 8 fail (disk still down), backoff doubles to 4, the retry at 12
  // succeeds, and the remaining 15 subobjects run through interval 26.
  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.completed_at, kInterval * 26);
  EXPECT_EQ(sched_->metrics().streams_paused, 1);
  EXPECT_EQ(sched_->metrics().streams_resumed, 1);
  EXPECT_EQ(sched_->metrics().displays_admitted, 1);  // counted once
  EXPECT_EQ(sched_->metrics().displays_interrupted, 0);
  EXPECT_EQ(sched_->metrics().degraded_reads, 0);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
  EXPECT_NEAR(sched_->metrics().resume_latency_sec.mean(),
              (kInterval * 7).seconds(), 1e-9);
  // OnStarted fired exactly once, at the original admission.
  EXPECT_EQ(calls_.started(), 1);
  EXPECT_EQ(calls_.breach(), "");
  EXPECT_TRUE(probe.started);
  EXPECT_EQ(probe.latency, SimTime::Zero());
}

// Latent cells are keyed by the layout row.  A display resumed after a
// pause counts its own rows from 0 again, so its reads must be checked,
// and reported, at its first undelivered layout row plus that count.
// Here a failure pauses a degree-1 display at row 3; after it resumes,
// its read of row 12 on disk 4 hits the corrupt cell, which must be
// caught (once: under kPause the display then waits, and retries that
// would re-read the cell fail, until a repair lets it finish).  Every
// read the listener hears lies where the layout puts it.
TEST_F(DegradedSchedulerTest, ResumedDisplayChecksLatentCellsAtLayoutRows) {
  Init(8, 1, DegradedPolicy::kPause);
  const SimTime mid = SimTime::Millis(300);
  FaultPlan plan;
  plan.LatentAt(4, SimTime::Zero(), 12, 12)
      .FailAt(3, kInterval * 2 + mid)
      .RecoverAt(3, kInterval * 5 + mid);
  Inject(plan);
  sim_.ScheduleAt(kInterval * 20 + mid, [this] {
    ASSERT_TRUE(disks_->latent_errors().IsCorrupt(4, 12));
    disks_->latent_errors().Repair(4, 12);
  });

  Probe probe;
  Request(0, 0, 1, 40, &probe);
  sim_.RunUntil(SimTime::Minutes(2));

  // Paused at interval 3 (row 3 on the failed disk 3); the retry at 4
  // finds disk 3 still down, the one at 6 resumes.  Row 12 comes up at
  // interval 15 on disk 4: caught, paused again.  Retries at 16 and 18
  // would re-read the cell; the one at 22, after the repair, resumes,
  // and rows 12..39 run through interval 49.
  const SchedulerMetrics& m = sched_->metrics();
  EXPECT_EQ(m.corrupt_reads_detected, 1);
  EXPECT_EQ(m.corrupt_frames_delivered, 0);
  EXPECT_EQ(disks_->latent_errors().metrics().detected, 1);
  EXPECT_EQ(m.streams_paused, 2);
  EXPECT_EQ(m.streams_resumed, 2);
  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.completed_at, kInterval * 49);
  EXPECT_EQ(m.hiccups, 0);
  EXPECT_EQ(calls_.started(), 1);
  EXPECT_EQ(calls_.breach(), "");

  // Rows 0..39 each read once, in order, from disk row mod 8.
  ASSERT_EQ(log_.reads.size(), 40u);
  ScheduleTracer trace(8, 64);
  for (size_t i = 0; i < log_.reads.size(); ++i) {
    const auto& [interval, object, row, fragment, disk] = log_.reads[i];
    EXPECT_EQ(row, static_cast<int64_t>(i));
    EXPECT_EQ(disk, static_cast<int32_t>(i % 8));
    trace.OnRead(interval, object, row, fragment, disk);
  }
  auto layout = StaggeredLayout::Create(8, /*start_disk=*/0, /*stride=*/1,
                                        /*degree=*/1);
  ASSERT_TRUE(layout.ok());
  const Status audit =
      InvariantAuditor::AuditTrace(trace, {{ObjectId{0}, *layout}});
  EXPECT_TRUE(audit.ok()) << audit;
}

// A sought display reads from its target row on: the latent check and
// the read listener see layout rows, not rows counted from the seek.
TEST_F(DegradedSchedulerTest, SoughtDisplayChecksLatentCellsAtLayoutRows) {
  Init(8, 1, DegradedPolicy::kRemapOrPause);
  FaultPlan plan;
  plan.LatentAt(4, SimTime::Zero(), 20, 20);
  Inject(plan);

  Probe probe;
  const RequestId id = Request(0, 0, 1, 40, &probe);
  RequestId sought = kNoStream;
  sim_.ScheduleAt(kInterval * 5 + SimTime::Millis(300), [&] {
    auto moved = calls_.Seek(sched_.get(), id, /*target_row=*/20,
                             /*num_subobjects=*/20);
    ASSERT_TRUE(moved.ok()) << moved.status();
    sought = *moved;
  });
  sim_.RunUntil(SimTime::Minutes(2));

  // Rows 0..5 at intervals 0..5, then rows 20..39 from interval 6 on,
  // starting on disk 20 mod 8 = 4, whose row-20 cell is corrupt: caught
  // once and served by a substitute.
  const SchedulerMetrics& m = sched_->metrics();
  EXPECT_NE(sought, kNoStream);
  EXPECT_EQ(m.corrupt_reads_detected, 1);
  EXPECT_EQ(m.corrupt_frames_delivered, 0);
  EXPECT_EQ(m.degraded_reads, 1);
  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.completed_at, kInterval * 25);
  EXPECT_EQ(m.hiccups, 0);
  ASSERT_EQ(log_.reads.size(), 26u);
  for (size_t i = 0; i < log_.reads.size(); ++i) {
    const auto& [interval, object, row, fragment, disk] = log_.reads[i];
    const int64_t want = i < 6 ? static_cast<int64_t>(i)
                               : static_cast<int64_t>(i) + 14;
    EXPECT_EQ(interval, static_cast<int64_t>(i)) << "read " << i;
    EXPECT_EQ(row, want) << "read " << i;
    if (row != 20) {
      EXPECT_EQ(disk, static_cast<int32_t>(row % 8)) << "read " << i;
    }
  }
  EXPECT_NE(std::get<4>(log_.reads[6]), 4);
}

// A stream paused past max_pause_intervals is cancelled as an
// interrupted display.
TEST_F(DegradedSchedulerTest, PausedPastDeadlineIsCancelled) {
  Init(10, 1, DegradedPolicy::kPause, /*max_pause_intervals=*/3);
  FaultPlan plan;
  plan.FailAt(5, kInterval * 5);  // never recovers
  Inject(plan);

  Probe probe;
  Request(0, 0, 3, 20, &probe);
  sim_.RunUntil(SimTime::Minutes(2));

  EXPECT_TRUE(probe.started);
  EXPECT_FALSE(probe.completed);
  EXPECT_EQ(sched_->paused_streams(), 0u);
  EXPECT_EQ(sched_->metrics().streams_paused, 1);
  EXPECT_EQ(sched_->metrics().streams_resumed, 0);
  EXPECT_EQ(sched_->metrics().displays_interrupted, 1);
  EXPECT_EQ(sched_->metrics().displays_cancelled, 1);
}

// With every disk claimed by the stream itself there is no slack, so
// kRemapOrPause falls back to pausing.
TEST_F(DegradedSchedulerTest, RemapFallsBackToPauseWithoutSlack) {
  Init(3, 1, DegradedPolicy::kRemapOrPause);
  FaultPlan plan;
  plan.FailAt(1, kInterval * 2).RecoverAt(1, kInterval * 4);
  Inject(plan);

  Probe probe;
  Request(0, 0, 3, 10, &probe);
  sim_.RunUntil(SimTime::Minutes(2));

  // Paused at interval 2 (2 delivered); retry at 3 fails, backoff 2,
  // retry at 5 succeeds; the remaining 8 subobjects end at interval 12.
  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.completed_at, kInterval * 12);
  EXPECT_EQ(sched_->metrics().degraded_reads, 0);
  EXPECT_EQ(sched_->metrics().streams_paused, 1);
  EXPECT_EQ(sched_->metrics().streams_resumed, 1);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
}

// Fresh admissions are availability-gated: a request whose first
// stripe includes a down disk waits instead of admitting into a pause.
TEST_F(DegradedSchedulerTest, AdmissionWaitsForDownStripeDisk) {
  Init(6, 1, DegradedPolicy::kRemapOrPause);
  FaultPlan plan;
  plan.FailAt(1, SimTime::Zero()).RecoverAt(1, kInterval * 3);
  Inject(plan);

  Probe probe;
  Request(0, 0, 2, 8, &probe);

  sim_.RunUntil(kInterval * 2 + SimTime::Millis(1));
  EXPECT_FALSE(probe.started);
  EXPECT_EQ(sched_->pending_requests(), 1u);

  sim_.RunUntil(SimTime::Minutes(1));
  EXPECT_TRUE(probe.started);
  EXPECT_EQ(probe.latency, kInterval * 3);
  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.completed_at, kInterval * 10);
  EXPECT_EQ(sched_->metrics().streams_paused, 0);
}

// A degraded drive flips its availability at each interval close with no
// health notification.  A queued request whose first stripe holds it is
// refused while it is off duty and starts on its next on-duty interval.
// Disk 2 at 25% serves from interval 4 on, every fourth interval.  A
// and B share the key (start disk 1, degree 2): A starts at interval 4
// and finishes there; B, refused at 4 by A's disks, starts at 8.
TEST_F(DegradedSchedulerTest, AdmissionStartsOnDegradedDiskDutyInterval) {
  Init(8, 1, DegradedPolicy::kRemapOrPause);
  FaultPlan plan;
  plan.DegradeAt(2, SimTime::Zero(), SimTime::Hours(1), 25);
  Inject(plan);

  Probe a;
  Probe b;
  Request(0, 1, 2, 1, &a);
  Request(1, 1, 2, 1, &b);

  sim_.RunUntil(kInterval * 3 + SimTime::Millis(1));
  EXPECT_FALSE(a.started);
  EXPECT_EQ(sched_->pending_requests(), 2u);

  sim_.RunUntil(SimTime::Minutes(1));
  EXPECT_TRUE(a.started);
  EXPECT_EQ(a.latency, kInterval * 4);
  EXPECT_TRUE(b.started);
  EXPECT_EQ(b.latency, kInterval * 8);
  EXPECT_TRUE(a.completed && b.completed);
  EXPECT_EQ(sched_->metrics().degraded_reads, 0);
  EXPECT_EQ(sched_->metrics().streams_paused, 0);
}

// ---------------------------------------------------------------------
// kReconstruct: the lost fragment is re-derived from the stripe's
// parity fragment, read in the same interval.
// ---------------------------------------------------------------------

// One failed disk mid-display: the read shifts to the stripe's parity
// disk and the display never notices.  At interval 5 the stripe is
// disks {5,6,7}, so the parity fragment sits on disk 8.
TEST_F(DegradedSchedulerTest, ReconstructReadsParityDisk) {
  Init(10, 1, DegradedPolicy::kReconstruct);
  FaultPlan plan;
  plan.FailAt(5, kInterval * 5).RecoverAt(5, kInterval * 6);
  Inject(plan);

  Probe probe;
  Request(0, 0, 3, 20, &probe, /*parity=*/true);
  sim_.RunUntil(SimTime::Minutes(2));

  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.completed_at, kInterval * 19);  // no delay at all
  EXPECT_EQ(sched_->metrics().reconstructed_reads, 1);
  EXPECT_EQ(sched_->metrics().degraded_reads, 0);  // parity, not remap
  EXPECT_EQ(sched_->metrics().streams_paused, 0);
  EXPECT_EQ(sched_->metrics().hiccups, 0);

  bool found = false;
  for (const Read& r : log_.reads) {
    if (std::get<0>(r) == 5 && std::get<4>(r) == 8) found = true;
  }
  EXPECT_TRUE(found) << "no read landed on the parity disk at interval 5";
}

// A parity-less stream under kReconstruct falls through to the remap
// ladder — reconstruction needs the parity fragment on disk.
TEST_F(DegradedSchedulerTest, ReconstructWithoutParityFallsBackToRemap) {
  Init(10, 1, DegradedPolicy::kReconstruct);
  FaultPlan plan;
  plan.FailAt(5, kInterval * 5).RecoverAt(5, kInterval * 6);
  Inject(plan);

  Probe probe;
  Request(0, 0, 3, 20, &probe, /*parity=*/false);
  sim_.RunUntil(SimTime::Minutes(2));

  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.completed_at, kInterval * 19);
  EXPECT_EQ(sched_->metrics().reconstructed_reads, 0);
  EXPECT_EQ(sched_->metrics().degraded_reads, 1);
}

// Admission under kReconstruct: a down disk in the first stripe does
// not hold the stream back when the stripe's parity disk is healthy —
// it admits immediately and reconstructs until the disk returns.
TEST_F(DegradedSchedulerTest, ReconstructAdmitsOverDownStripeDisk) {
  Init(10, 1, DegradedPolicy::kReconstruct);
  FaultPlan plan;
  plan.FailAt(1, SimTime::Zero()).RecoverAt(1, kInterval * 2);
  Inject(plan);

  Probe probe;
  Request(0, 0, 3, 20, &probe, /*parity=*/true);
  sim_.RunUntil(SimTime::Minutes(2));

  // Disk 1 carries fragment reads at intervals 0 (lane 1) and 1
  // (lane 0); both reconstruct from parity disks 3 and 4.
  EXPECT_TRUE(probe.started);
  EXPECT_EQ(probe.latency, SimTime::Zero());
  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(probe.completed_at, kInterval * 19);
  EXPECT_EQ(sched_->metrics().reconstructed_reads, 2);
  EXPECT_EQ(sched_->metrics().streams_paused, 0);
}

// The parity disk is one read, not a free pass: when a second stripe
// disk is down in the same interval, one parity fragment cannot cover
// two losses and the stream falls back down the ladder (pause here).
TEST_F(DegradedSchedulerTest, DoubleFailureExceedsParityAndPauses) {
  Init(4, 1, DegradedPolicy::kReconstruct);
  FaultPlan plan;
  plan.FailAt(1, kInterval * 1).RecoverAt(1, kInterval * 5);
  plan.FailAt(2, kInterval * 1).RecoverAt(2, kInterval * 5);
  Inject(plan);

  Probe probe;
  Request(0, 0, 3, 10, &probe, /*parity=*/true);
  sim_.RunUntil(SimTime::Minutes(2));

  // With D = 4 and two disks down there is no idle substitute either,
  // so the stream pauses and resumes after recovery.
  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(sched_->metrics().streams_paused, 1);
  EXPECT_EQ(sched_->metrics().streams_resumed, 1);
}

// ---------------------------------------------------------------------
// Admission order: paused remainders are planned before the fresh
// requests of the same tick, so resumed displays have priority.
// ---------------------------------------------------------------------

// The first three cases run D = 4, k = 1 under kPause.  Display A (start
// disk 0, degree 2) reads row r from disks {r, r + 1} (mod 4); disk 2 fails
// at interval 2, so A pauses there with rows 0-1 delivered.  Its
// remainder starts on disk 2 (stripe {2, 3}) and retries at intervals
// 3, 5, 9, ... (backoff 1, 2, 4, ...).
class AdmissionOrderTest : public DegradedSchedulerTest {
 protected:
  void PauseDisplayA(SimTime recover_at, int64_t max_pause_intervals) {
    Init(4, 1, DegradedPolicy::kPause, max_pause_intervals);
    FaultPlan plan;
    plan.FailAt(2, kInterval * 2);
    if (recover_at > SimTime::Zero()) plan.RecoverAt(2, recover_at);
    Inject(plan);
  }
};

// B, queued at interval 1 (before A pauses) on A's remainder's disks,
// waits for disk 2 with it.  Disk 2 recovers at interval 5, a retry
// interval of A: both want virtual disks {1, 2}, and A takes them
// although B is the older entry.  B starts at interval 7, the first
// interval its window {v, v + 1} clears A's.
TEST_F(AdmissionOrderTest, DuePausedRemainderTakesContestedDisksFirst) {
  PauseDisplayA(kInterval * 5, /*max_pause_intervals=*/4096);
  Probe a, b;
  Request(0, 0, 2, 20, &a);
  sim_.RunUntil(kInterval * 1 + SimTime::Millis(1));
  Request(1, 2, 2, 4, &b);

  sim_.RunUntil(kInterval * 5 + SimTime::Millis(1));
  EXPECT_EQ(sched_->metrics().streams_paused, 1);
  EXPECT_EQ(sched_->metrics().streams_resumed, 1);
  EXPECT_EQ(sched_->paused_streams(), 0u);
  EXPECT_EQ(sched_->pending_requests(), 1u);
  EXPECT_FALSE(b.started);

  sim_.RunUntil(SimTime::Minutes(1));
  EXPECT_TRUE(b.started);
  EXPECT_EQ(b.latency, kInterval * 6 - SimTime::Millis(1));
  // A's 18 remaining rows run from interval 5 through 22.
  EXPECT_TRUE(a.completed);
  EXPECT_EQ(a.completed_at, kInterval * 22);
  EXPECT_NEAR(sched_->metrics().resume_latency_sec.mean(),
              (kInterval * 3).seconds(), 1e-9);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
  EXPECT_EQ(calls_.breach(), "");
}

// B, queued behind A's remainder at interval 3, starts at interval 4
// while the remainder waits out its backoff (next retry at 5): an entry
// that is not due blocks nothing behind it.
TEST_F(AdmissionOrderTest, RemainderInBackoffDoesNotBlockFreshRequest) {
  PauseDisplayA(SimTime::Zero(), /*max_pause_intervals=*/4096);
  Probe a, b;
  Request(0, 0, 2, 20, &a);
  sim_.RunUntil(kInterval * 3 + SimTime::Millis(1));
  ASSERT_EQ(sched_->paused_streams(), 1u);
  Request(1, 0, 2, 4, &b);

  sim_.RunUntil(kInterval * 4 + SimTime::Millis(1));
  EXPECT_TRUE(b.started);
  EXPECT_EQ(b.latency, kInterval - SimTime::Millis(1));
  EXPECT_EQ(sched_->paused_streams(), 1u);
  EXPECT_EQ(sched_->pending_requests(), 0u);
  EXPECT_EQ(sched_->metrics().streams_resumed, 0);
  EXPECT_EQ(calls_.breach(), "");
}

// With max_pause_intervals = 3 the give-up comes at the first retry
// more than 3 intervals after the pause: retries at +1 and +3 fail, the
// one at +7 (interval 9) gives up.  A's station re-requests one row
// from OnInterrupted, and that request is planned in the same tick: it
// starts and completes at interval 9, with zero startup latency.
TEST_F(AdmissionOrderTest, ReRequestFromGiveUpIsPlannedInTheSameTick) {
  PauseDisplayA(SimTime::Zero(), /*max_pause_intervals=*/3);
  Probe again;
  SimTime gave_up_at = SimTime::Zero();
  auto id = calls_.Submit(
      sched_.get(),
      DisplayRequest{.object = 0, .start_disk = 0, .degree = 2,
                     .num_subobjects = 20},
      {.on_interrupted = [&] {
        gave_up_at = sim_.Now();
        Request(0, 0, 2, 1, &again);
      }});
  ASSERT_TRUE(id.ok()) << id.status();

  sim_.RunUntil(SimTime::Minutes(1));
  EXPECT_EQ(gave_up_at, kInterval * 9);
  EXPECT_EQ(sched_->metrics().displays_interrupted, 1);
  EXPECT_TRUE(again.started);
  EXPECT_EQ(again.latency, SimTime::Zero());
  EXPECT_TRUE(again.completed);
  EXPECT_EQ(again.completed_at, kInterval * 9);
  EXPECT_EQ(sched_->paused_streams(), 0u);
  EXPECT_EQ(sched_->pending_requests(), 0u);
  EXPECT_EQ(calls_.breach(), "");
}

// A give-up's listener may cancel another waiting display: here the
// paused remainder right behind the given-up one in the queue (D = 8:
// A pauses at interval 2 and is given up at 9; A2, from start disk 6,
// reads disk 2 at interval 3, pauses there and waits out its backoff
// until 10).  The pass goes on, and A2 hears nothing more.
TEST_F(AdmissionOrderTest, GiveUpListenerMayCancelTheNextPausedDisplay) {
  Init(8, 1, DegradedPolicy::kPause, /*max_pause_intervals=*/3);
  FaultPlan plan;
  plan.FailAt(2, kInterval * 2);
  Inject(plan);
  RequestId a2 = kNoStream;
  auto a = calls_.Submit(
      sched_.get(),
      DisplayRequest{.object = 0, .start_disk = 0, .degree = 2,
                     .num_subobjects = 20},
      {.on_interrupted =
           [&] { EXPECT_TRUE(calls_.Cancel(sched_.get(), a2).ok()); }});
  ASSERT_TRUE(a.ok()) << a.status();
  Probe probe;
  a2 = Request(1, 6, 2, 20, &probe);

  sim_.RunUntil(kInterval * 9 + SimTime::Millis(1));
  EXPECT_EQ(sched_->metrics().streams_paused, 2);
  EXPECT_EQ(sched_->metrics().displays_interrupted, 1);
  EXPECT_EQ(sched_->metrics().displays_cancelled, 2);
  EXPECT_EQ(sched_->paused_streams(), 0u);
  sim_.RunUntil(SimTime::Minutes(1));
  EXPECT_EQ(calls_.interrupted(), 1);
  EXPECT_EQ(calls_.breach(), "");
}

// A give-up's listener may free the disks a waiting request needs, and
// that request starts in the same tick, not at its next wake.  D = 8:
// A (virtual disks {0, 1}) and S (degree 6, {2..7}) fill the array at
// interval 0, so F (degree 3), submitted then, fails and waits.  Disk 2
// is down during interval 2 only, which pauses A (S reads disks
// {4..7, 0, 1} then); A's remainder then fails on occupancy at its
// retries 3, 5 and 9, and is given up at 17, when F's wait still holds.
// Its listener cancels S, whose free ends F's wait, and F starts at 17.
TEST_F(AdmissionOrderTest, GiveUpListenerFreeStartsAWaitingRequest) {
  Init(8, 1, DegradedPolicy::kPause, /*max_pause_intervals=*/7);
  FaultPlan plan;
  plan.FailAt(2, kInterval * 2).RecoverAt(2, kInterval * 3);
  Inject(plan);
  RequestId s = kNoStream;
  SimTime gave_up_at = SimTime::Zero();
  auto a = calls_.Submit(
      sched_.get(),
      DisplayRequest{.object = 0, .start_disk = 0, .degree = 2,
                     .num_subobjects = 20},
      {.on_interrupted = [&] {
        gave_up_at = sim_.Now();
        EXPECT_TRUE(calls_.Cancel(sched_.get(), s).ok());
      }});
  ASSERT_TRUE(a.ok()) << a.status();
  Probe held, f;
  s = Request(1, 2, 6, 100, &held);
  Request(2, 4, 3, 4, &f);

  sim_.RunUntil(kInterval * 16 + SimTime::Millis(1));
  EXPECT_EQ(sched_->metrics().streams_paused, 1);
  EXPECT_EQ(sched_->metrics().streams_resumed, 0);
  EXPECT_EQ(sched_->pending_requests(), 1u);
  EXPECT_FALSE(f.started);

  sim_.RunUntil(SimTime::Minutes(1));
  EXPECT_EQ(gave_up_at, kInterval * 17);
  EXPECT_EQ(sched_->metrics().displays_interrupted, 1);
  EXPECT_TRUE(f.started);
  EXPECT_EQ(f.latency, kInterval * 17);
  EXPECT_TRUE(f.completed);
  EXPECT_FALSE(held.completed);
  EXPECT_EQ(sched_->metrics().hiccups, 0);
  EXPECT_EQ(calls_.breach(), "");
}

// ---------------------------------------------------------------------
// VDR cluster failover.
// ---------------------------------------------------------------------

class VdrFailoverTest : public ::testing::Test {
 protected:
  // Two clusters of five disks, one object of 10 subobjects.
  void MakeServer(std::vector<int32_t> preload_replicas) {
    catalog_ = Catalog::Uniform(1, 10, Bandwidth::Mbps(100));
    TertiaryParameters tp;
    tp.bandwidth = Bandwidth::Mbps(40);
    tp.reposition = SimTime::Zero();
    tertiary_ = std::make_unique<TertiaryManager>(&sim_, TertiaryDevice(tp));
    VdrConfig config;
    config.num_clusters = 2;
    config.cluster_degree = 5;
    config.interval = kInterval;
    config.fragment_size = DataSize::MB(1.512);
    config.enable_replication = false;
    config.preload_objects = 0;
    config.objects_per_cluster = 1;
    config.preload_replicas = std::move(preload_replicas);
    auto server = VdrServer::Create(&sim_, &catalog_, tertiary_.get(), config);
    ASSERT_TRUE(server.ok()) << server.status();
    server_ = *std::move(server);
  }

  struct Probe {
    bool started = false;
    int32_t starts = 0;
    bool completed = false;
    SimTime completed_at;
  };

  void Request(ObjectId object, Probe* probe) {
    Status st = server_->RequestDisplay(
        object,
        [probe](SimTime) {
          probe->started = true;
          ++probe->starts;
        },
        [this, probe] {
          probe->completed = true;
          probe->completed_at = sim_.Now();
        });
    ASSERT_TRUE(st.ok()) << st;
  }

  SimTime DisplayTime() const { return kInterval * 10; }

  Simulator sim_;
  Catalog catalog_;
  std::unique_ptr<TertiaryManager> tertiary_;
  std::unique_ptr<VdrServer> server_;
};

TEST_F(VdrFailoverTest, DisplayFailsOverToSurvivingReplica) {
  MakeServer(/*preload_replicas=*/{2});
  Probe probe;
  Request(0, &probe);
  EXPECT_TRUE(probe.started);

  // Lose a disk (and its cluster's media) mid-display.
  sim_.RunUntil(kInterval * 4);
  server_->OnDiskDown(0, /*media_lost=*/true);
  EXPECT_FALSE(server_->ClusterUp(0));

  sim_.RunUntil(kInterval * 4 + DisplayTime() + SimTime::Seconds(1));
  EXPECT_TRUE(probe.completed);
  // The display restarted from the surviving replica at the failure
  // instant and ran a full display time from there.
  EXPECT_EQ(probe.completed_at, kInterval * 4 + DisplayTime());
  EXPECT_EQ(probe.starts, 1);  // no duplicate on_started
  EXPECT_EQ(server_->metrics().displays_interrupted, 1);
  EXPECT_EQ(server_->metrics().failovers, 1);
  EXPECT_EQ(server_->metrics().replicas_lost, 1);
  EXPECT_EQ(server_->metrics().displays_completed, 1);

  server_->OnDiskUp(0);
  EXPECT_TRUE(server_->ClusterUp(0));
}

TEST_F(VdrFailoverTest, StallFailsOverWithoutLosingMedia) {
  MakeServer(/*preload_replicas=*/{2});
  Probe probe;
  Request(0, &probe);

  sim_.RunUntil(kInterval * 4);
  server_->OnDiskDown(0, /*media_lost=*/false);
  sim_.RunUntil(kInterval * 4 + DisplayTime() + SimTime::Seconds(1));

  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(server_->metrics().failovers, 1);
  EXPECT_EQ(server_->metrics().replicas_lost, 0);
  EXPECT_EQ(server_->ResidentObjectCount(), 1);
}

TEST_F(VdrFailoverTest, LastReplicaLossRematerializesFromTertiary) {
  MakeServer(/*preload_replicas=*/{1});
  Probe probe;
  Request(0, &probe);

  sim_.RunUntil(kInterval * 4);
  server_->OnDiskDown(0, /*media_lost=*/true);
  EXPECT_EQ(server_->metrics().replicas_lost, 1);
  EXPECT_EQ(server_->ResidentObjectCount(), 0);

  // The only copy is gone: the re-queued display must wait for a fresh
  // materialization onto the surviving cluster.
  sim_.RunUntil(SimTime::Hours(2));
  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(server_->metrics().displays_interrupted, 1);
  EXPECT_EQ(server_->metrics().displays_completed, 1);
  EXPECT_EQ(server_->ResidentObjectCount(), 1);
}

TEST_F(VdrFailoverTest, ClusterReturnsOnlyWhenAllDisksAreUp) {
  MakeServer(/*preload_replicas=*/{1});
  server_->OnDiskDown(0, /*media_lost=*/false);
  server_->OnDiskDown(1, /*media_lost=*/false);
  EXPECT_FALSE(server_->ClusterUp(0));
  server_->OnDiskUp(0);
  EXPECT_FALSE(server_->ClusterUp(0));
  server_->OnDiskUp(1);
  EXPECT_TRUE(server_->ClusterUp(0));
  EXPECT_EQ(server_->metrics().failovers, 0);  // nothing was displaying
}

TEST_F(VdrFailoverTest, QueuedRequestWaitsOutFullOutage) {
  MakeServer(/*preload_replicas=*/{1});
  server_->OnDiskDown(0, /*media_lost=*/false);

  Probe probe;
  Request(0, &probe);
  EXPECT_FALSE(probe.started);  // sole replica's cluster is down

  sim_.RunUntil(SimTime::Seconds(1));
  server_->OnDiskUp(0);  // dispatches the queued request
  EXPECT_TRUE(probe.started);
  sim_.RunUntil(SimTime::Seconds(1) + DisplayTime() + SimTime::Seconds(1));
  EXPECT_TRUE(probe.completed);
  EXPECT_EQ(server_->metrics().displays_interrupted, 0);
}

}  // namespace
}  // namespace stagger
