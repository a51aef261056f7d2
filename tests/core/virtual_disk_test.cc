#include "core/virtual_disk.h"

#include <gtest/gtest.h>

#include <numeric>

namespace stagger {
namespace {

TEST(ModMathTest, ExtendedGcd) {
  int64_t x, y;
  EXPECT_EQ(ExtendedGcd(240, 46, &x, &y), 2);
  EXPECT_EQ(240 * x + 46 * y, 2);
  EXPECT_EQ(ExtendedGcd(7, 0, &x, &y), 7);
}

TEST(ModMathTest, ModInverse) {
  auto inv = ModInverse(3, 10);
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ((3 * *inv) % 10, 1);
  EXPECT_EQ(*ModInverse(1, 7), 1);
  EXPECT_EQ(*ModInverse(-3, 10), *ModInverse(7, 10));
  EXPECT_TRUE(ModInverse(2, 10).status().IsNotFound());
  EXPECT_TRUE(ModInverse(5, 0).status().IsInvalidArgument());
  EXPECT_EQ(*ModInverse(4, 1), 0);
}

TEST(VirtualDiskFrameTest, CreateValidates) {
  EXPECT_FALSE(VirtualDiskFrame::Create(0, 1).ok());
  EXPECT_FALSE(VirtualDiskFrame::Create(10, 0).ok());
  EXPECT_FALSE(VirtualDiskFrame::Create(10, 11).ok());
  EXPECT_TRUE(VirtualDiskFrame::Create(10, 10).ok());
}

// The paper's definition: virtual disk i at time t is physical disk
// (i - kt) mod D — i.e. VirtualOf(p, t) recovers the virtual index.
TEST(VirtualDiskFrameTest, PaperDefinitionRoundTrip) {
  auto frame = VirtualDiskFrame::Create(8, 3);
  ASSERT_TRUE(frame.ok());
  for (int32_t v = 0; v < 8; ++v) {
    for (int64_t t = 0; t < 20; ++t) {
      const int32_t p = frame->PhysicalOf(v, t);
      EXPECT_EQ(frame->VirtualOf(p, t), v);
      EXPECT_EQ(p, static_cast<int32_t>(PositiveMod(v + 3 * t, 8)));
    }
  }
}

// "The virtual disk that reads the first fragment of a subobject at one
// time interval would read the first fragment of the next consecutive
// subobject in the next time interval."
TEST(VirtualDiskFrameTest, VirtualDiskTracksStride) {
  auto frame = VirtualDiskFrame::Create(12, 5);
  ASSERT_TRUE(frame.ok());
  // Layout: subobject s starts on disk (p0 + 5 s) mod 12.
  const int32_t p0 = 3;
  const int32_t v = frame->VirtualOf(p0, 0);
  for (int64_t s = 0; s < 30; ++s) {
    EXPECT_EQ(frame->PhysicalOf(v, s),
              static_cast<int32_t>(PositiveMod(p0 + 5 * s, 12)));
  }
}

TEST(VirtualDiskFrameTest, GcdAndPeriod) {
  EXPECT_EQ(VirtualDiskFrame::Create(1000, 5)->gcd(), 5);
  EXPECT_EQ(VirtualDiskFrame::Create(1000, 5)->period(), 200);
  EXPECT_EQ(VirtualDiskFrame::Create(10, 3)->gcd(), 1);
  EXPECT_EQ(VirtualDiskFrame::Create(10, 3)->period(), 10);
  EXPECT_EQ(VirtualDiskFrame::Create(10, 10)->period(), 1);
}

TEST(VirtualDiskFrameTest, AlignmentDelayIsMinimalAndCorrect) {
  for (int32_t d : {7, 8, 12}) {
    for (int32_t k = 1; k <= d; ++k) {
      auto frame = VirtualDiskFrame::Create(d, k);
      ASSERT_TRUE(frame.ok());
      for (int32_t v = 0; v < d; ++v) {
        for (int32_t p = 0; p < d; ++p) {
          auto delay = frame->AlignmentDelay(v, p, /*t=*/5);
          // Brute force the minimal delay.
          int64_t expected = -1;
          for (int64_t delta = 0; delta < d; ++delta) {
            if (frame->PhysicalOf(v, 5 + delta) == p) {
              expected = delta;
              break;
            }
          }
          if (expected < 0) {
            EXPECT_FALSE(delay.has_value()) << d << " " << k << " " << v;
          } else {
            ASSERT_TRUE(delay.has_value());
            EXPECT_EQ(*delay, expected) << d << " " << k << " " << v;
          }
        }
      }
    }
  }
}

TEST(VirtualDiskFrameTest, UnreachableResidueClass) {
  auto frame = VirtualDiskFrame::Create(10, 5);  // gcd 5
  ASSERT_TRUE(frame.ok());
  // Virtual disk 0 only ever visits physical disks 0 and 5.
  EXPECT_TRUE(frame->AlignmentDelay(0, 0, 0).has_value());
  EXPECT_TRUE(frame->AlignmentDelay(0, 5, 0).has_value());
  EXPECT_FALSE(frame->AlignmentDelay(0, 1, 0).has_value());
  EXPECT_FALSE(frame->AlignmentDelay(0, 7, 0).has_value());
}

// Ownership invariance: streams moving in lockstep never collide — if
// two virtual disks are distinct, their physical disks are distinct at
// every interval.
TEST(VirtualDiskFrameTest, FrameIsBijectiveAtEveryInterval) {
  auto frame = VirtualDiskFrame::Create(9, 4);
  ASSERT_TRUE(frame.ok());
  for (int64_t t = 0; t < 18; ++t) {
    std::vector<bool> seen(9, false);
    for (int32_t v = 0; v < 9; ++v) {
      const int32_t p = frame->PhysicalOf(v, t);
      EXPECT_FALSE(seen[static_cast<size_t>(p)]);
      seen[static_cast<size_t>(p)] = true;
    }
  }
}

// The free log answers "was a virtual disk of this window freed since
// count c?" exactly while it holds every free since c.
TEST(VdiskOccupancyFreeLogTest, ExactWindowHitOrMiss) {
  auto frame = VirtualDiskFrame::Create(100, 1);
  ASSERT_TRUE(frame.ok());
  VdiskOccupancy occupied(*frame);
  for (int32_t v = 30; v < 50; ++v) occupied.Set(v);
  const int64_t before = occupied.frees();
  occupied.Clear(40);
  EXPECT_EQ(occupied.frees(), before + 1);
  EXPECT_TRUE(occupied.FreedSince(before, 40, 1));
  EXPECT_TRUE(occupied.FreedSince(before, 36, 5));   // 36..40
  EXPECT_FALSE(occupied.FreedSince(before, 35, 5));  // 35..39
  EXPECT_FALSE(occupied.FreedSince(before, 41, 5));
  EXPECT_FALSE(occupied.FreedSince(before, 0, 0));
  EXPECT_TRUE(occupied.FreedSince(before, 0, 100));
  // Nothing was freed after the free itself.
  EXPECT_FALSE(occupied.FreedSince(occupied.frees(), 0, 100));
  // A disk taken again after its free still counts as freed.
  occupied.Set(40);
  EXPECT_TRUE(occupied.FreedSince(before, 40, 1));
}

// A window that wraps past the last virtual disk, asked of a log whose
// slots have wrapped past their 64th free.  With k = 2 the frame has two
// orbit blocks; the window is in vdisk order whatever the block.
TEST(VdiskOccupancyFreeLogTest, WindowWrapsTheDisksAndTheLog) {
  auto frame = VirtualDiskFrame::Create(64, 2);
  ASSERT_TRUE(frame.ok());
  VdiskOccupancy occupied(*frame);
  for (int32_t v = 0; v < 64; ++v) occupied.Set(v);
  // 70 frees of disk 20 fill the log and wrap it.
  for (int32_t i = 0; i < 70; ++i) {
    occupied.Clear(20);
    occupied.Set(20);
  }
  const int64_t since = occupied.frees();
  occupied.Clear(63);
  occupied.Clear(1);
  EXPECT_TRUE(occupied.FreedSince(since, 62, 4));   // 62, 63, 0, 1
  EXPECT_TRUE(occupied.FreedSince(since, 63, 1));
  EXPECT_TRUE(occupied.FreedSince(since, 60, 6));   // 60..63, 0, 1
  EXPECT_FALSE(occupied.FreedSince(since, 2, 60));  // 2..61
  EXPECT_FALSE(occupied.FreedSince(since, 60, 3));  // 60..62
  EXPECT_FALSE(occupied.FreedSince(since, 0, 1));
  // The frees of disk 20 before `since` are in the log, but not asked.
  EXPECT_FALSE(occupied.FreedSince(since, 20, 1));
  EXPECT_TRUE(occupied.FreedSince(since - 1, 20, 1));
}

// Once more than kFreeLog frees follow the count, the log cannot tell
// and reports the window freed.
TEST(VdiskOccupancyFreeLogTest, OverflowReportsFreed) {
  auto frame = VirtualDiskFrame::Create(1000, 1);
  ASSERT_TRUE(frame.ok());
  VdiskOccupancy occupied(*frame);
  occupied.Set(900);
  const int64_t since = occupied.frees();
  for (int32_t i = 0; i < VdiskOccupancy::kFreeLog; ++i) {
    occupied.Clear(900);
    occupied.Set(900);
  }
  EXPECT_FALSE(occupied.FreedSince(since, 0, 100));
  occupied.Clear(900);
  EXPECT_TRUE(occupied.FreedSince(since, 0, 100));
  EXPECT_FALSE(occupied.FreedSince(since + 1, 0, 100));
}

}  // namespace
}  // namespace stagger
