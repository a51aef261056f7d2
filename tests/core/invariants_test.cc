#include "core/invariants.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "core/interval_scheduler.h"
#include "core/logical_scheduler.h"
#include "core/schedule_trace.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"
#include "storage/catalog.h"
#include "storage/layout.h"

namespace stagger {
namespace {

constexpr SimTime kInterval = SimTime::Millis(605);

StaggeredLayout MakeLayout(int32_t num_disks, int32_t start_disk,
                           int32_t stride, int32_t degree) {
  auto layout = StaggeredLayout::Create(num_disks, start_disk, stride, degree);
  STAGGER_CHECK_OK(layout.status());
  return *layout;
}

// --- static placement audits ---------------------------------------------

TEST(InvariantsPlacementTest, ValidStaggeredLayoutPasses) {
  // The paper's running example: D=20, k=3.
  const StaggeredLayout layout = MakeLayout(20, 5, 3, 4);
  for (int64_t n : {1, 7, 20, 61}) {
    EXPECT_TRUE(InvariantAuditor::AuditLayout(layout, n).ok()) << "n=" << n;
  }
}

TEST(InvariantsPlacementTest, ValidLayoutsAcrossGcdRegimesPass) {
  for (int32_t stride : {1, 2, 3, 4, 5, 10}) {
    for (int32_t degree : {1, 3, 10}) {
      const StaggeredLayout layout = MakeLayout(10, 7, stride, degree);
      EXPECT_TRUE(InvariantAuditor::AuditLayout(layout, 25).ok())
          << "stride=" << stride << " degree=" << degree;
    }
  }
}

TEST(InvariantsPlacementTest, RejectsNonContiguousFragments) {
  const StaggeredLayout layout = MakeLayout(20, 0, 3, 4);
  PlacementTable placement = MaterializePlacement(layout, 6);
  ASSERT_TRUE(InvariantAuditor::AuditPlacement(placement, 20, 3).ok());

  // Fragment X_{2.2} jumps off its subobject's consecutive-disk run.
  placement[2][2] = (placement[2][2] + 5) % 20;
  const Status status = InvariantAuditor::AuditPlacement(placement, 20, 3);
  EXPECT_TRUE(status.IsInternal()) << status;
}

TEST(InvariantsPlacementTest, RejectsStrideViolation) {
  const StaggeredLayout layout = MakeLayout(20, 0, 3, 4);
  PlacementTable placement = MaterializePlacement(layout, 6);

  // Subobject 4 starts one disk early: contiguity within the row still
  // holds, but the row-to-row progression is no longer stride k.
  for (auto& disk : placement[4]) disk = (disk + 19) % 20;
  const Status status = InvariantAuditor::AuditPlacement(placement, 20, 3);
  EXPECT_TRUE(status.IsInternal()) << status;
}

TEST(InvariantsPlacementTest, RejectsRaggedAndOutOfRangeTables) {
  const StaggeredLayout layout = MakeLayout(8, 1, 2, 3);
  PlacementTable ragged = MaterializePlacement(layout, 4);
  ragged[1].pop_back();
  EXPECT_TRUE(InvariantAuditor::AuditPlacement(ragged, 8, 2).IsInternal());

  PlacementTable out_of_range = MaterializePlacement(layout, 4);
  out_of_range[0][0] = 8;  // valid disks are [0, 8)
  EXPECT_TRUE(
      InvariantAuditor::AuditPlacement(out_of_range, 8, 2).IsInternal());
}

TEST(InvariantsSkewTest, RejectsOverloadedDisk) {
  // D=4, k=2 => g=2, period P=2.  Four subobjects of degree 2 must
  // alternate between {0,1} and {2,3}; piling every row onto disks
  // {0,1} quadruples the load on disk 0 and starves disks 2-3, outside
  // the paper's ceil/floor window bounds.
  const PlacementTable piled = {{0, 1}, {0, 1}, {0, 1}, {0, 1}};
  const Status status = InvariantAuditor::AuditSkew(piled, 4, 2);
  EXPECT_TRUE(status.IsInternal()) << status;
}

TEST(InvariantsSkewTest, RejectsStartDiskOutsideResidueClass) {
  // With g = gcd(6, 2) = 2 every subobject start must share the start
  // disk's residue mod 2; subobject 2 starting on an odd disk breaks
  // the reachable-residue-class invariant even though its row is
  // internally contiguous.
  const PlacementTable mixed_residues = {{0, 1}, {2, 3}, {5, 0}, {0, 1}};
  const Status status = InvariantAuditor::AuditSkew(mixed_residues, 6, 2);
  EXPECT_TRUE(status.IsInternal()) << status;
}

TEST(InvariantsCatalogTest, UniformCatalogPassesAndOversizedDegreeFails) {
  Catalog catalog = Catalog::Uniform(/*count=*/8, /*num_subobjects=*/100,
                                     /*display_bandwidth=*/Bandwidth::Mbps(60));
  // M_X = ceil(60/20) = 3 <= D.
  EXPECT_TRUE(
      InvariantAuditor::AuditCatalog(catalog, Bandwidth::Mbps(20), 10).ok());
  // Same database on a 2-disk array: M_X = 3 > D, undisplayable.
  EXPECT_TRUE(InvariantAuditor::AuditCatalog(catalog, Bandwidth::Mbps(20), 2)
                  .IsInternal());
}

// --- recorded schedule audits --------------------------------------------

class TraceAuditTest : public ::testing::Test {
 protected:
  TraceAuditTest() : layout_(MakeLayout(10, 2, 3, 2)) {
    layouts_.emplace(kObject, layout_);
  }

  /// Records the legal schedule: subobject i read whole in interval i.
  void RecordValidRun(ScheduleTracer* trace, int64_t num_subobjects) {
    for (int64_t i = 0; i < num_subobjects; ++i) {
      for (int32_t j = 0; j < layout_.degree(); ++j) {
        trace->Record(i, kObject, i, j, layout_.DiskFor(i, j));
      }
    }
  }

  static constexpr ObjectId kObject = 0;
  StaggeredLayout layout_;
  std::map<ObjectId, StaggeredLayout> layouts_;
};

TEST_F(TraceAuditTest, ValidTracePasses) {
  ScheduleTracer trace(10);
  RecordValidRun(&trace, 5);
  EXPECT_TRUE(InvariantAuditor::AuditTrace(trace, layouts_).ok());
}

TEST_F(TraceAuditTest, RejectsOverCommittedDisk) {
  ScheduleTracer trace(10);
  RecordValidRun(&trace, 3);
  // A second fragment lands on subobject 0's first disk in interval 0:
  // that disk is asked for two transfers in one time interval.
  trace.Record(0, kObject, 1, 0, layout_.DiskFor(0, 0));
  EXPECT_EQ(trace.num_collisions(), 1);
  const Status status = InvariantAuditor::AuditTrace(trace, layouts_);
  EXPECT_TRUE(status.IsInternal()) << status;
}

TEST_F(TraceAuditTest, RejectsPlacementMismatch) {
  ScheduleTracer trace(10);
  // Fragment 0.1 read from the wrong disk (one past its layout slot).
  trace.Record(0, kObject, 0, 0, layout_.DiskFor(0, 0));
  trace.Record(0, kObject, 0, 1, (layout_.DiskFor(0, 1) + 1) % 10);
  const Status status = InvariantAuditor::AuditTrace(trace, layouts_);
  EXPECT_TRUE(status.IsInternal()) << status;
}

TEST_F(TraceAuditTest, RejectsDuplicateFragmentRead) {
  ScheduleTracer trace(10);
  trace.Record(0, kObject, 0, 0, layout_.DiskFor(0, 0));
  trace.Record(0, kObject, 0, 1, layout_.DiskFor(0, 1));
  trace.Record(1, kObject, 0, 0, layout_.DiskFor(0, 0));  // read again
  const Status status =
      InvariantAuditor::AuditTrace(trace, layouts_, {.allow_time_fragmentation = true});
  EXPECT_TRUE(status.IsInternal()) << status;
}

TEST_F(TraceAuditTest, TimeSplitRequiresAlgorithmOneBuffering) {
  ScheduleTracer trace(10);
  // Subobject 0's two fragments arrive one interval apart — legal only
  // when Algorithm-1 buffering absorbs the stagger.
  trace.Record(0, kObject, 0, 0, layout_.DiskFor(0, 0));
  trace.Record(1, kObject, 0, 1, layout_.DiskFor(0, 1));
  EXPECT_TRUE(InvariantAuditor::AuditTrace(trace, layouts_).IsInternal());
  EXPECT_TRUE(InvariantAuditor::AuditTrace(trace, layouts_,
                                           {.allow_time_fragmentation = true})
                  .ok());
}

TEST_F(TraceAuditTest, RejectsIncompleteSubobjectOnUntruncatedTrace) {
  ScheduleTracer trace(10);
  trace.Record(0, kObject, 0, 0, layout_.DiskFor(0, 0));  // fragment 1 missing
  const Status status = InvariantAuditor::AuditTrace(trace, layouts_);
  EXPECT_TRUE(status.IsInternal()) << status;
}

TEST_F(TraceAuditTest, SkipsCompletenessOnTruncatedTrace) {
  ScheduleTracer trace(10, /*max_intervals=*/2);
  RecordValidRun(&trace, 5);  // intervals 2..4 dropped
  EXPECT_TRUE(trace.truncated());
  EXPECT_TRUE(InvariantAuditor::AuditTrace(trace, layouts_).ok());
}

// --- live scheduler audits ------------------------------------------------

class LiveSchedulerAuditTest : public ::testing::Test {
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
    auto sched = IntervalScheduler::Create(&sim_, disks_.get(), config);
    ASSERT_TRUE(sched.ok()) << sched.status();
    sched_ = *std::move(sched);
  }

  void Submit(ObjectId object, int32_t start_disk, int32_t degree,
              int64_t subobjects) {
    DisplayRequest req;
    req.object = object;
    req.start_disk = start_disk;
    req.degree = degree;
    req.num_subobjects = subobjects;
    auto id = sched_->Submit(std::move(req));
    ASSERT_TRUE(id.ok()) << id.status();
  }

  Simulator sim_;
  std::unique_ptr<DiskArray> disks_;
  std::unique_ptr<IntervalScheduler> sched_;
};

TEST_F(LiveSchedulerAuditTest, ContiguousRunStaysInvariant) {
  Init(10, 2);
  Submit(0, 0, 3, 12);
  Submit(1, 4, 2, 8);
  for (int step = 1; step <= 20; ++step) {
    sim_.RunUntil(kInterval * step);
    ASSERT_TRUE(InvariantAuditor::AuditScheduler(*sched_).ok())
        << "after interval " << step;
  }
}

TEST_F(LiveSchedulerAuditTest, FragmentedCoalescingRunStaysInvariant) {
  Init(10, 2, AdmissionPolicy::kFragmented, /*coalesce=*/true);
  Submit(0, 0, 3, 16);
  Submit(1, 5, 3, 16);
  Submit(2, 2, 2, 10);
  for (int step = 1; step <= 30; ++step) {
    sim_.RunUntil(kInterval * step);
    ASSERT_TRUE(InvariantAuditor::AuditScheduler(*sched_).ok())
        << "after interval " << step;
  }
}

TEST(LiveLogicalSchedulerAuditTest, LogicalRunStaysInvariant) {
  Simulator sim;
  LogicalSchedulerConfig config;
  config.num_disks = 6;
  config.logical_per_disk = 2;
  config.stride = 1;
  config.interval = kInterval;
  auto sched = LogicalDiskScheduler::Create(&sim, config);
  ASSERT_TRUE(sched.ok()) << sched.status();

  LogicalRequest req;
  req.object = 0;
  req.units = 3;
  req.start_disk = 0;
  req.num_subobjects = 10;
  ASSERT_TRUE((*sched)->Submit(req).ok());
  req.object = 1;
  req.units = 4;
  req.start_disk = 3;
  ASSERT_TRUE((*sched)->Submit(req).ok());

  for (int step = 1; step <= 15; ++step) {
    sim.RunUntil(kInterval * step);
    ASSERT_TRUE(InvariantAuditor::AuditLogicalScheduler(**sched).ok())
        << "after interval " << step;
  }
}

}  // namespace
}  // namespace stagger
