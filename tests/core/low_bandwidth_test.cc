#include "core/low_bandwidth.h"

#include <gtest/gtest.h>

namespace stagger {
namespace {

TEST(LowBandwidthTest, IntegralWasteExamples) {
  const Bandwidth disk = Bandwidth::Mbps(20);
  // Paper: 30 mbps on 20 mbps disks wastes 25% of two disks.
  EXPECT_NEAR(IntegralDiskWaste(Bandwidth::Mbps(30), disk), 0.25, 1e-12);
  EXPECT_NEAR(IntegralDiskWaste(Bandwidth::Mbps(20), disk), 0.0, 1e-12);
  EXPECT_NEAR(IntegralDiskWaste(Bandwidth::Mbps(10), disk), 0.5, 1e-12);
  EXPECT_NEAR(IntegralDiskWaste(Bandwidth::Mbps(100), disk), 0.0, 1e-12);
  EXPECT_NEAR(IntegralDiskWaste(Bandwidth::Mbps(110), disk), 1.0 / 12.0, 1e-12);
}

TEST(LowBandwidthTest, LogicalAllocationExactFit) {
  // Paper: B_Display = 3/2 B_Disk fits exactly with L = 2.
  auto alloc = AllocateLogical(Bandwidth::Mbps(30), Bandwidth::Mbps(20), 2);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->units, 3);
  EXPECT_EQ(alloc->disks, 2);
  EXPECT_NEAR(alloc->wasted_fraction, 0.0, 1e-12);
}

TEST(LowBandwidthTest, HalfRateLaneBuffersHalfSubobject) {
  auto alloc = AllocateLogical(Bandwidth::Mbps(10), Bandwidth::Mbps(20), 2);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->units, 1);
  EXPECT_EQ(alloc->disks, 1);
  EXPECT_NEAR(alloc->buffer_subobject_fraction, 0.5, 1e-12);
}

TEST(LowBandwidthTest, WholeDiskLanesBufferNothing) {
  auto alloc = AllocateLogical(Bandwidth::Mbps(40), Bandwidth::Mbps(20), 2);
  ASSERT_TRUE(alloc.ok());
  EXPECT_EQ(alloc->units, 4);
  EXPECT_NEAR(alloc->buffer_subobject_fraction, 0.0, 1e-12);
}

TEST(LowBandwidthTest, LIsOneMatchesIntegralAllocation) {
  for (double mbps : {5.0, 15.0, 30.0, 45.0}) {
    auto alloc = AllocateLogical(Bandwidth::Mbps(mbps), Bandwidth::Mbps(20), 1);
    ASSERT_TRUE(alloc.ok());
    EXPECT_EQ(alloc->units, alloc->disks);
    EXPECT_NEAR(alloc->wasted_fraction,
                IntegralDiskWaste(Bandwidth::Mbps(mbps), Bandwidth::Mbps(20)),
                1e-12);
  }
}

TEST(LowBandwidthTest, FinerSplitsNeverIncreaseWaste) {
  for (double mbps : {3.0, 7.0, 13.0, 27.0, 55.0}) {
    double prev = 2.0;
    for (int32_t l : {1, 2, 4, 8}) {
      auto alloc = AllocateLogical(Bandwidth::Mbps(mbps), Bandwidth::Mbps(20), l);
      ASSERT_TRUE(alloc.ok());
      EXPECT_LE(alloc->wasted_fraction, prev + 1e-12);
      prev = alloc->wasted_fraction;
    }
  }
}

TEST(LowBandwidthTest, RejectsBadInput) {
  EXPECT_FALSE(AllocateLogical(Bandwidth::Mbps(0), Bandwidth::Mbps(20), 2).ok());
  EXPECT_FALSE(AllocateLogical(Bandwidth::Mbps(10), Bandwidth::Mbps(0), 2).ok());
  EXPECT_FALSE(AllocateLogical(Bandwidth::Mbps(10), Bandwidth::Mbps(20), 0).ok());
}

}  // namespace
}  // namespace stagger
