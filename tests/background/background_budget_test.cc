#include "background/background_budget.h"

#include <gtest/gtest.h>

#include <memory>

#include "disk/disk_array.h"

namespace stagger {
namespace {

DiskArray MakeArray(int32_t n) {
  auto array = DiskArray::Create(n, DiskParameters::Evaluation());
  STAGGER_CHECK(array.ok());
  return *std::move(array);
}

/// Reads every disk its grant allows, low slot first, until its work
/// counter runs out.
class GreedyConsumer : public BackgroundConsumer {
 public:
  GreedyConsumer(const char* name, DiskArray* disks)
      : name_(name), disks_(disks) {}

  const char* name() const override { return name_; }
  bool HasWork() const override { return work_ > 0; }
  int64_t RunIdle(int64_t /*interval*/, BackgroundGrant* grant) override {
    int64_t done = 0;
    for (int32_t d = 0; d < disks_->num_disks() && work_ > 0; ++d) {
      if (!grant->CanRead(d)) continue;
      grant->ReadSlot(d);
      --work_;
      ++done;
    }
    return done;
  }

  int64_t work_ = 0;

 private:
  const char* name_;
  DiskArray* disks_;
};

TEST(BackgroundGrantTest, EnforcesCapAvailabilityAndBusy) {
  DiskArray disks = MakeArray(4);
  disks.FailDisk(1);
  disks.ReserveSlot(2);  // foreground traffic pinned slot 2
  BackgroundGrant grant(&disks, /*max_reads=*/1);

  EXPECT_FALSE(grant.CanRead(1));  // unavailable
  EXPECT_FALSE(grant.CanRead(2));  // busy
  ASSERT_TRUE(grant.CanRead(0));
  grant.ReadSlot(0);
  EXPECT_EQ(grant.reads(), 1);
  EXPECT_EQ(grant.reads_remaining(), 0);
  EXPECT_FALSE(grant.CanRead(3));  // cap exhausted
  // The reservation went through the array's bitmap: a second grant
  // cannot take the same slot.
  BackgroundGrant other(&disks, /*max_reads=*/0);
  EXPECT_FALSE(other.CanRead(0));
  EXPECT_TRUE(other.CanRead(3));
}

TEST(BackgroundGrantTest, ZeroMeansUncapped) {
  DiskArray disks = MakeArray(3);
  BackgroundGrant grant(&disks, /*max_reads=*/0);
  for (int32_t d = 0; d < 3; ++d) {
    ASSERT_TRUE(grant.CanRead(d));
    grant.ReadSlot(d);
  }
  EXPECT_EQ(grant.reads(), 3);
}

class BackgroundBudgetTest : public ::testing::Test {
 protected:
  void Init(int32_t num_disks) {
    disks_ = std::make_unique<DiskArray>(MakeArray(num_disks));
    budget_ = std::make_unique<BackgroundBudget>(disks_.get());
  }

  void RunIntervals(int64_t n, int64_t start = 0) {
    for (int64_t t = start; t < start + n; ++t) {
      budget_->OnIdleInterval(t);
      disks_->EndInterval();
    }
  }

  std::unique_ptr<DiskArray> disks_;
  std::unique_ptr<BackgroundBudget> budget_;
};

TEST_F(BackgroundBudgetTest, HigherPriorityDrawsFirst) {
  Init(4);
  GreedyConsumer rebuild("rebuild", disks_.get());
  GreedyConsumer scrub("scrub", disks_.get());
  BackgroundConsumerConfig high;
  high.priority = 0;
  high.max_reads_per_interval = 3;
  BackgroundConsumerConfig low;
  low.priority = 1;
  budget_->Register(&scrub, low);  // registration order must not matter
  budget_->Register(&rebuild, high);
  rebuild.work_ = 3;
  scrub.work_ = 4;

  RunIntervals(1);
  // Rebuild took its capped 3 disks; scrub got the one left over.
  EXPECT_EQ(budget_->stats(&rebuild).reads, 3);
  EXPECT_EQ(budget_->stats(&scrub).reads, 1);
  EXPECT_EQ(budget_->metrics().reads_granted, 4);
  EXPECT_EQ(budget_->metrics().idle_capacity, 4);
  EXPECT_EQ(budget_->metrics().budget_violations, 0);
}

TEST_F(BackgroundBudgetTest, CombinedDrawNeverExceedsIdleBandwidth) {
  Init(4);
  GreedyConsumer a("a", disks_.get());
  GreedyConsumer b("b", disks_.get());
  budget_->Register(&a, BackgroundConsumerConfig{});
  BackgroundConsumerConfig second;
  second.priority = 1;
  budget_->Register(&b, second);
  a.work_ = 1000;
  b.work_ = 1000;
  // Foreground pins two disks every interval: only two are grantable.
  for (int64_t t = 0; t < 8; ++t) {
    disks_->ReserveSlot(0);
    disks_->ReserveSlot(1);
    budget_->OnIdleInterval(t);
    disks_->EndInterval();
  }
  EXPECT_EQ(budget_->metrics().idle_capacity, 16);
  EXPECT_EQ(budget_->metrics().reads_granted, 16);
  EXPECT_EQ(budget_->metrics().budget_violations, 0);
  EXPECT_TRUE(budget_->AuditState().ok());
}

TEST_F(BackgroundBudgetTest, StarvationFloorBoostsTheStarvedConsumer) {
  Init(2);
  GreedyConsumer hog("hog", disks_.get());
  GreedyConsumer meek("meek", disks_.get());
  BackgroundConsumerConfig first;
  first.priority = 0;
  budget_->Register(&hog, first);
  BackgroundConsumerConfig floored;
  floored.priority = 1;
  floored.starvation_floor_intervals = 3;
  budget_->Register(&meek, floored);
  hog.work_ = 1000000;
  meek.work_ = 1000000;

  RunIntervals(12);
  // The hog drains both disks every ordinary interval, so without the
  // floor the meek consumer would never progress.
  EXPECT_GT(budget_->stats(&meek).boosted_runs, 0);
  EXPECT_GT(budget_->stats(&meek).ops, 0);
  EXPECT_GT(budget_->stats(&meek).starved_intervals, 0);
  // The boost is one interval at a time, not a priority inversion.
  EXPECT_GT(budget_->stats(&hog).ops, budget_->stats(&meek).ops);
  EXPECT_EQ(budget_->metrics().budget_violations, 0);
}

TEST_F(BackgroundBudgetTest, IdleConsumerIsNeitherGrantedNorStarved) {
  Init(2);
  GreedyConsumer idle("idle", disks_.get());
  BackgroundConsumerConfig cfg;
  cfg.starvation_floor_intervals = 2;
  budget_->Register(&idle, cfg);
  idle.work_ = 0;

  RunIntervals(6);
  EXPECT_EQ(budget_->stats(&idle).granted_intervals, 0);
  EXPECT_EQ(budget_->stats(&idle).starved_intervals, 0);
  EXPECT_EQ(budget_->stats(&idle).boosted_runs, 0);
  EXPECT_EQ(budget_->metrics().intervals, 6);
}

TEST_F(BackgroundBudgetTest, PerConsumerCapIsEnforcedEveryInterval) {
  Init(4);
  GreedyConsumer capped("capped", disks_.get());
  BackgroundConsumerConfig cfg;
  cfg.max_reads_per_interval = 1;
  budget_->Register(&capped, cfg);
  capped.work_ = 100;

  RunIntervals(5);
  EXPECT_EQ(budget_->stats(&capped).reads, 5);
  EXPECT_EQ(budget_->stats(&capped).progress_intervals, 5);
}

TEST_F(BackgroundBudgetTest, GreedyDrawsAcrossPrioritiesSumToTheGlobalCount) {
  // A capped high-priority consumer and an uncapped low-priority one
  // draw greedily from 10 idle disks; the arbiter's global counter must
  // total both consumers' reads across intervals.
  Init(10);
  GreedyConsumer a("a", disks_.get());
  GreedyConsumer b("b", disks_.get());
  BackgroundConsumerConfig high;
  high.priority = 0;
  high.max_reads_per_interval = 4;
  budget_->Register(&a, high);
  BackgroundConsumerConfig low;
  low.priority = 1;
  budget_->Register(&b, low);
  a.work_ = 7;
  b.work_ = 8;

  RunIntervals(2);
  // Greedy low-slot-first draws: interval 0 grants a disks {0,1,2,3}
  // (its cap) and b disks {4..9}; interval 1 grants a disks {0,1,2}
  // (work exhausted) and b disks {3,4}: 7 + 8 = 15 reads.
  EXPECT_EQ(budget_->metrics().reads_granted, 15);
  EXPECT_TRUE(budget_->AuditState().ok());
}

}  // namespace
}  // namespace stagger
