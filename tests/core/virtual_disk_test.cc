#include "core/virtual_disk.h"

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <vector>

#include "core/admission.h"
#include "disk/disk_array.h"

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

// The watches a free ends, as their client hears them.
struct WokenLog : FreeWatcher {
  void Woken(int32_t owner) override { woken.push_back(owner); }
  std::vector<int32_t> woken;
};

// A free ends exactly the watches whose window holds the disk, once: a
// disk taken and freed again wakes nothing more.
TEST(VdiskOccupancyWatchTest, ExactWindowHitOrMiss) {
  auto frame = VirtualDiskFrame::Create(100, 1);
  ASSERT_TRUE(frame.ok());
  VdiskOccupancy occupied(*frame);
  WokenLog log;
  for (int32_t v = 0; v < 100; ++v) occupied.Set(v);
  occupied.Add({&log, 7, 36, 5});   // 36..40
  occupied.Add({&log, 8, 35, 5});   // 35..39
  occupied.Add({&log, 9, 41, 5});   // 41..45
  occupied.Add({&log, 10, 40, 0});  // no disk
  occupied.Clear(40);
  EXPECT_EQ(log.woken, std::vector<int32_t>{7});
  occupied.Set(40);
  occupied.Clear(40);
  EXPECT_EQ(log.woken, std::vector<int32_t>{7});
  // A removed watch wakes nothing; its owner may watch anew.
  occupied.Remove({&log, 8, 35, 5});
  occupied.Add({&log, 8, 50, 1});
  occupied.Clear(39);
  occupied.Remove({&log, 9, 41, 5});
  occupied.Clear(41);
  EXPECT_EQ(log.woken, std::vector<int32_t>{7});
  occupied.Clear(50);
  EXPECT_EQ(log.woken, (std::vector<int32_t>{7, 8}));
}

// A window that wraps past the last virtual disk and covers two 64-disk
// words on each side of the wrap: a free in any piece ends it, one just
// outside does not.  With k = 2 the frame has two orbit blocks; the
// window is in vdisk order whatever the block.
TEST(VdiskOccupancyWatchTest, WindowWrapsTheDisksAndCrossesWords) {
  auto frame = VirtualDiskFrame::Create(200, 2);
  ASSERT_TRUE(frame.ok());
  VdiskOccupancy occupied(*frame);
  WokenLog log;
  for (int32_t v = 0; v < 200; ++v) occupied.Set(v);
  const VdiskOccupancy::Watch w{&log, 3, 190, 80};  // 190..199, 0..69
  occupied.Add(w);
  for (const int32_t v : {189, 70, 100, 127, 128}) occupied.Clear(v);
  EXPECT_TRUE(log.woken.empty());
  occupied.Clear(65);
  EXPECT_EQ(log.woken, std::vector<int32_t>{3});
  occupied.Add(w);
  occupied.Clear(195);
  EXPECT_EQ(log.woken, (std::vector<int32_t>{3, 3}));
  occupied.Add(w);
  occupied.Clear(0);
  EXPECT_EQ(log.woken, (std::vector<int32_t>{3, 3, 3}));
  // Ended by one free, it is off every word's list.
  occupied.Clear(191);
  occupied.Clear(66);
  EXPECT_EQ(log.woken.size(), 3u);
}

// At D = 64 a wrapping window starts and ends in the one word: listed
// there once, it ends once, and its client hears it once.
TEST(VdiskOccupancyWatchTest, WindowWrapsWithinOneWord) {
  auto frame = VirtualDiskFrame::Create(64, 1);
  ASSERT_TRUE(frame.ok());
  VdiskOccupancy occupied(*frame);
  WokenLog log;
  for (int32_t v = 0; v < 64; ++v) occupied.Set(v);
  occupied.Add({&log, 4, 60, 10});  // 60..63, 0..5
  occupied.Clear(6);
  occupied.Clear(59);
  EXPECT_TRUE(log.woken.empty());
  occupied.Clear(2);
  EXPECT_EQ(log.woken, std::vector<int32_t>{4});
  occupied.Clear(61);
  EXPECT_EQ(log.woken, std::vector<int32_t>{4});
}

// A window of all D disks ("no horizon fits") ends at the next free,
// wherever it lands.
TEST(VdiskOccupancyWatchTest, AllDiskWindowEndsAtAnyFree) {
  auto frame = VirtualDiskFrame::Create(1000, 5);
  ASSERT_TRUE(frame.ok());
  VdiskOccupancy occupied(*frame);
  WokenLog log;
  for (int32_t v = 0; v < 1000; ++v) occupied.Set(v);
  occupied.Add({&log, 1, 0, 1000});
  occupied.Add({&log, 2, 10, 3});
  occupied.Clear(977);
  EXPECT_EQ(log.woken, std::vector<int32_t>{1});
  occupied.Clear(976);
  occupied.Clear(13);
  EXPECT_EQ(log.woken, std::vector<int32_t>{1});
  occupied.Clear(12);
  EXPECT_EQ(log.woken, (std::vector<int32_t>{1, 2}));
}

// A failed plan's key waits on its window, and goes when its key's last
// entry leaves the queue: a free in the window then wakes nothing, not
// even the paused remainder that takes over its record, which stays in
// its backoff until its retry.
TEST(VdiskOccupancyWatchTest, WaiterDroppedWithItsKeysLastEntry) {
  auto frame = VirtualDiskFrame::Create(100, 1);
  ASSERT_TRUE(frame.ok());
  auto disks = DiskArray::Create(100, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  VdiskOccupancy occupied(*frame);
  for (int32_t v = 0; v < 100; ++v) occupied.Set(v);
  AdmissionQueue queue(*frame, occupied, *disks, AdmissionPolicy::kContiguous,
                       /*fragmented_lookahead=*/0,
                       DegradedPolicy::kRemapOrPause,
                       /*max_pause_intervals=*/4096);
  const DisplayRequest req{.object = 0, .start_disk = 10, .degree = 3,
                           .num_subobjects = 5};
  for (const RequestId id : {1, 2}) {
    queue.Push({.id = id, .req = req, .arrival = SimTime::Zero()});
  }
  std::optional<AdmitPlan> plan;
  queue.BeginPass(0);
  EXPECT_EQ(queue.Next(&plan), nullptr);
  EXPECT_TRUE(queue.Erase(1));
  EXPECT_TRUE(queue.Erase(2));
  EXPECT_TRUE(queue.empty());
  queue.PushPaused({.id = 3, .req = req, .arrival = SimTime::Zero()}, 0);
  for (int32_t v = 0; v < 100; ++v) occupied.Clear(v);
  queue.BeginPass(0);
  EXPECT_EQ(queue.Next(&plan), nullptr);
  queue.BeginPass(1);  // its retry
  const AdmissionQueue::Entry* resumed = queue.Next(&plan);
  ASSERT_NE(resumed, nullptr);
  EXPECT_EQ(resumed->id, 3);
  EXPECT_TRUE(plan.has_value());
}

}  // namespace
}  // namespace stagger
