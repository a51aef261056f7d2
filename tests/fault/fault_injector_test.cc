#include "fault/fault_injector.h"

#include <gtest/gtest.h>

#include <vector>

#include "disk/disk_array.h"
#include "sim/simulator.h"

namespace stagger {
namespace {

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto disks = DiskArray::Create(8, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    disks_ = std::make_unique<DiskArray>(*std::move(disks));
  }

  Simulator sim_;
  std::unique_ptr<DiskArray> disks_;
};

TEST_F(FaultInjectorTest, AppliesFailureAndRecovery) {
  FaultPlan plan;
  plan.FailAt(2, SimTime::Seconds(10)).RecoverAt(2, SimTime::Seconds(30));
  auto injector = FaultInjector::Create(&sim_, disks_.get(), plan);
  ASSERT_TRUE(injector.ok()) << injector.status();

  sim_.RunUntil(SimTime::Seconds(9));
  EXPECT_TRUE(disks_->IsAvailable(2));
  sim_.RunUntil(SimTime::Seconds(10));
  EXPECT_FALSE(disks_->IsAvailable(2));
  EXPECT_EQ(disks_->disk(2).health(), DiskHealth::kFailed);
  EXPECT_EQ((*injector)->unavailable_disks(), 1);
  sim_.RunUntil(SimTime::Seconds(30));
  EXPECT_TRUE(disks_->IsAvailable(2));
  EXPECT_EQ((*injector)->metrics().failures_injected, 1);
  EXPECT_EQ((*injector)->metrics().recoveries_injected, 1);
}

TEST_F(FaultInjectorTest, StallRecoversImplicitly) {
  FaultPlan plan;
  plan.StallAt(5, SimTime::Seconds(10), SimTime::Seconds(4));
  auto injector = FaultInjector::Create(&sim_, disks_.get(), plan);
  ASSERT_TRUE(injector.ok()) << injector.status();

  sim_.RunUntil(SimTime::Seconds(10));
  EXPECT_EQ(disks_->disk(5).health(), DiskHealth::kStalled);
  sim_.RunUntil(SimTime::Seconds(14));
  EXPECT_EQ(disks_->disk(5).health(), DiskHealth::kHealthy);
  EXPECT_EQ((*injector)->metrics().stalls_injected, 1);
  EXPECT_EQ((*injector)->metrics().recoveries_injected, 1);
}

TEST_F(FaultInjectorTest, ListenersFireWithEventTime) {
  FaultPlan plan;
  plan.FailAt(1, SimTime::Seconds(5)).RecoverAt(1, SimTime::Seconds(8));
  auto injector = FaultInjector::Create(&sim_, disks_.get(), plan);
  ASSERT_TRUE(injector.ok()) << injector.status();

  std::vector<std::pair<DiskId, SimTime>> downs;
  std::vector<std::pair<DiskId, SimTime>> ups;
  (*injector)->OnDown([&](DiskId d, SimTime t) { downs.emplace_back(d, t); });
  (*injector)->OnUp([&](DiskId d, SimTime t) { ups.emplace_back(d, t); });
  sim_.Run();

  ASSERT_EQ(downs.size(), 1u);
  EXPECT_EQ(downs[0].first, 1);
  EXPECT_EQ(downs[0].second, SimTime::Seconds(5));
  ASSERT_EQ(ups.size(), 1u);
  EXPECT_EQ(ups[0].first, 1);
  EXPECT_EQ(ups[0].second, SimTime::Seconds(8));
}

TEST_F(FaultInjectorTest, RejectsInvalidPlan) {
  FaultPlan plan;
  plan.FailAt(99, SimTime::Seconds(1));
  EXPECT_FALSE(FaultInjector::Create(&sim_, disks_.get(), plan).ok());
}

TEST_F(FaultInjectorTest, RejectsEventsInThePast) {
  sim_.ScheduleAt(SimTime::Seconds(10), [] {});
  sim_.Run();
  FaultPlan plan;
  plan.FailAt(0, SimTime::Seconds(5));
  auto injector = FaultInjector::Create(&sim_, disks_.get(), plan);
  EXPECT_TRUE(injector.status().IsFailedPrecondition());
}

}  // namespace
}  // namespace stagger
