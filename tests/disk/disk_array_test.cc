#include "disk/disk_array.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "disk/disk.h"
#include "util/bitmap.h"
#include "util/rng.h"

namespace stagger {
namespace {

DiskArray MakeArray(int32_t n) {
  auto array = DiskArray::Create(n, DiskParameters::Evaluation());
  STAGGER_CHECK(array.ok());
  return *std::move(array);
}

TEST(DiskTest, StorageAllocation) {
  Disk d(DiskParameters::Evaluation());
  EXPECT_EQ(d.total_cylinders(), 3000);
  EXPECT_EQ(d.free_cylinders(), 3000);
  EXPECT_TRUE(d.AllocateStorage(1000).ok());
  EXPECT_EQ(d.free_cylinders(), 2000);
  EXPECT_EQ(d.used_cylinders(), 1000);
  d.FreeStorage(500);
  EXPECT_EQ(d.free_cylinders(), 2500);
}

TEST(DiskTest, AllocationFailsWhenFull) {
  Disk d(DiskParameters::Evaluation());
  EXPECT_TRUE(d.AllocateStorage(3000).ok());
  Status st = d.AllocateStorage(1);
  EXPECT_TRUE(st.IsResourceExhausted());
  // Failed allocation does not change accounting.
  EXPECT_EQ(d.free_cylinders(), 0);
}

TEST(DiskDeathTest, OverFreeingAborts) {
  Disk d(DiskParameters::Evaluation());
  EXPECT_DEATH(d.FreeStorage(1), "freed more storage");
}

// Utilization is busy slot-intervals over all elapsed ones; the array
// keeps both counts.
TEST(DiskTest, UtilizationCountsBusyIntervals) {
  DiskArray array = MakeArray(2);
  EXPECT_EQ(array.MeanUtilization(), 0.0);
  array.ReserveSlot(0);
  array.EndInterval();  // busy
  array.EndInterval();  // idle
  array.ReserveSlot(0);
  array.EndInterval();  // busy
  array.EndInterval();  // idle
  EXPECT_EQ(array.intervals(), 4);
  EXPECT_EQ(array.MeanUtilization(), 2.0 / (2 * 4));
}

// A slot or drive reserved twice in one interval is a scheduler bug;
// debug builds abort on it (the check is compiled out of release).
TEST(DiskArrayDeathTest, DoubleReserveAborts) {
  auto created = DiskArray::Create(4, DiskParameters::Evaluation(),
                                   /*num_spares=*/1);
  ASSERT_TRUE(created.ok());
  DiskArray array = *std::move(created);
  array.ReserveSlot(1);
  EXPECT_DEBUG_DEATH(array.ReserveSlot(1), "reserved twice");
  array.ReserveDrive(4);  // the spare
  EXPECT_DEBUG_DEATH(array.ReserveDrive(4), "reserved twice");
}

TEST(DiskArrayTest, CreateValidates) {
  EXPECT_FALSE(DiskArray::Create(0, DiskParameters::Evaluation()).ok());
  DiskParameters bad = DiskParameters::Evaluation();
  bad.num_cylinders = -1;
  EXPECT_FALSE(DiskArray::Create(10, bad).ok());
}

TEST(DiskArrayTest, WrapIsModular) {
  DiskArray array = MakeArray(10);
  EXPECT_EQ(array.Wrap(3), 3);
  EXPECT_EQ(array.Wrap(13), 3);
  EXPECT_EQ(array.Wrap(-1), 9);
  EXPECT_EQ(array.Wrap(10), 0);
}

TEST(DiskArrayTest, ReserveRunMarksWrappedSlotsBusy) {
  DiskArray array = MakeArray(8);
  EXPECT_EQ(array.IdleAvailableCount(), 8);
  array.ReserveRun(6, 4);  // wraps over 6,7,0,1
  for (const DiskId slot : {6, 7, 0, 1}) EXPECT_TRUE(array.SlotBusy(slot));
  for (const DiskId slot : {2, 3, 4, 5}) EXPECT_FALSE(array.SlotBusy(slot));
  EXPECT_EQ(array.IdleAvailableCount(), 4);
  array.EndInterval();
  EXPECT_EQ(array.IdleAvailableCount(), 8);
}

TEST(DiskArrayTest, AggregateCapacity) {
  DiskArray array = MakeArray(4);
  EXPECT_EQ(array.TotalCylinders(), 12000);
  EXPECT_TRUE(array.disk(2).AllocateStorage(100).ok());
  EXPECT_EQ(array.FreeCylinders(), 11900);
  EXPECT_NEAR(array.TotalCapacity().gigabytes(), 4 * 4.536, 0.01);
}

TEST(DiskArrayTest, UtilizationSkewReporting) {
  DiskArray array = MakeArray(4);
  for (int t = 0; t < 10; ++t) {
    array.ReserveSlot(0);
    if (t < 5) array.ReserveSlot(1);
    array.EndInterval();
  }
  // An uneven load (one slot always busy, one half the time, two idle)
  // reports its mean.
  EXPECT_EQ(array.MeanUtilization(), (10.0 + 5.0) / (4 * 10));
}

TEST(DiskArrayTest, StorageSkewReporting) {
  DiskArray array = MakeArray(3);
  EXPECT_TRUE(array.disk(0).AllocateStorage(300).ok());
  EXPECT_TRUE(array.disk(1).AllocateStorage(100).ok());
  EXPECT_EQ(array.MaxUsedCylinders(), 300);
  EXPECT_EQ(array.MinUsedCylinders(), 0);
}

// ---------------------------------------------------------------------
// Hot-spare pool (online rebuild).
// ---------------------------------------------------------------------

DiskArray MakeArrayWithSpares(int32_t n, int32_t spares) {
  auto array = DiskArray::Create(n, DiskParameters::Evaluation(), spares);
  STAGGER_CHECK(array.ok());
  return *std::move(array);
}

TEST(DiskArraySpareTest, SparesAreInvisibleToSlotQueries) {
  DiskArray array = MakeArrayWithSpares(4, 2);
  EXPECT_EQ(array.num_disks(), 4);
  EXPECT_EQ(array.num_spares(), 2);
  EXPECT_EQ(array.FreeSpareCount(), 2);
  // Slot-space accounting ignores spares entirely.
  array.ReserveDrive(4);  // a spare write
  EXPECT_EQ(array.IdleAvailableCount(), 4);
  EXPECT_EQ(array.AvailableCount(), 4);
  EXPECT_EQ(array.TotalCylinders(), MakeArray(4).TotalCylinders());
}

TEST(DiskArraySpareTest, AcquireReturnCycle) {
  DiskArray array = MakeArrayWithSpares(4, 1);
  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  EXPECT_EQ(array.FreeSpareCount(), 0);
  EXPECT_TRUE(array.AcquireSpare().status().IsResourceExhausted());
  array.ReturnSpare(*drive);
  EXPECT_EQ(array.FreeSpareCount(), 1);
}

TEST(DiskArraySpareTest, PromotionRewiresSlotAndTransfersStorage) {
  DiskArray array = MakeArrayWithSpares(4, 1);
  EXPECT_TRUE(array.disk(2).AllocateStorage(700).ok());
  array.FailDisk(2);
  EXPECT_FALSE(array.IsAvailable(2));

  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  array.PromoteSpare(2, *drive);

  // The slot is healthy again, addressed identically, and carries the
  // failed drive's storage accounting — bit-identical in slot space.
  EXPECT_TRUE(array.IsAvailable(2));
  EXPECT_EQ(array.disk(2).used_cylinders(), 700);
  EXPECT_EQ(array.FreeCylinders(), array.TotalCylinders() - 700);
  EXPECT_EQ(array.FreeSpareCount(), 0);  // the dead drive is retired
}

TEST(DiskArraySpareTest, PromotedSlotServesReads) {
  DiskArray array = MakeArrayWithSpares(3, 1);
  array.FailDisk(1);
  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  array.PromoteSpare(1, *drive);
  EXPECT_EQ(array.IdleAvailableCount(), 3);
  array.ReserveRun(0, 3);
  for (const DiskId slot : {0, 1, 2}) EXPECT_TRUE(array.SlotBusy(slot));
  EXPECT_EQ(array.IdleAvailableCount(), 0);
  array.EndInterval();
  EXPECT_EQ(array.IdleAvailableCount(), 3);
}

// A rebuild writes its last fragment to the spare in the same idle pass
// that promotes it: the write's busy bit follows the spare into the
// slot, so the slot is busy for the rest of the interval and the write
// counts once toward utilization.  From the next interval on the
// word-wide reservations cover the slot like any other.
TEST(DiskArrayTest, SpareWrittenInItsPromotionIntervalStaysBusy) {
  DiskArray array = MakeArrayWithSpares(8, 1);
  array.EndInterval();
  array.FailDisk(3);
  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  array.ReserveDrive(*drive);
  array.PromoteSpare(3, *drive);
  EXPECT_TRUE(array.IsAvailable(3));
  EXPECT_TRUE(array.SlotBusy(3));
  Bitmap exclude(8);
  exclude.SetRange(0, 3);
  EXPECT_EQ(array.FirstIdleAvailableSlot(exclude), 4);
  EXPECT_EQ(array.IdleAvailableCount(), 7);
  array.EndInterval();
  EXPECT_EQ(array.MeanUtilization(), 1.0 / (8 * 2));

  Bitmap vdisks(8);
  vdisks.Set(7);
  vdisks.Set(0);
  array.ReserveRotated(vdisks, 3);  // virtual disks 7 and 0 -> slots 2, 3
  EXPECT_TRUE(array.SlotBusy(2));
  EXPECT_TRUE(array.SlotBusy(3));
  EXPECT_EQ(array.IdleAvailableCount(), 6);
  array.EndInterval();
  array.ReserveRun(1, 4);  // slots 1..4
  EXPECT_TRUE(array.SlotBusy(3));
  EXPECT_EQ(array.FirstIdleAvailableSlot(exclude), 5);
  array.EndInterval();
  EXPECT_EQ(array.MeanUtilization(), (1.0 + 2.0 + 4.0) / (8 * 4));
}

TEST(DiskArraySpareDeathTest, PromoteRequiresFailedSlot) {
  DiskArray array = MakeArrayWithSpares(2, 1);
  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  EXPECT_DEATH(array.PromoteSpare(0, *drive), "");
}

// ---------------------------------------------------------------------
// Degraded drives (stragglers): Bresenham duty cycle over intervals.
// ---------------------------------------------------------------------

TEST(DiskArrayDegradeTest, DutyCycleMatchesPercent) {
  DiskArray array = MakeArray(4);
  array.DegradeDisk(1, 50);
  EXPECT_EQ(array.disk(1).health(), DiskHealth::kDegraded);
  EXPECT_FALSE(array.IsAvailable(1));  // the credit counter starts empty
  int32_t serving = 0;
  for (int i = 0; i < 10; ++i) {
    array.EndInterval();
    if (array.IsAvailable(1)) ++serving;
  }
  EXPECT_EQ(serving, 5);  // exactly percent% of intervals, no drift
}

TEST(DiskArrayDegradeTest, LowPercentServesSparsely) {
  DiskArray array = MakeArray(4);
  array.DegradeDisk(0, 25);
  int32_t serving = 0;
  for (int i = 0; i < 100; ++i) {
    array.EndInterval();
    if (array.IsAvailable(0)) ++serving;
  }
  EXPECT_EQ(serving, 25);
}

TEST(DiskArrayDegradeTest, DegradedIntervalAccountingStopsAtRecover) {
  DiskArray array = MakeArray(4);
  array.DegradeDisk(2, 40);
  for (int i = 0; i < 8; ++i) array.EndInterval();
  EXPECT_EQ(array.degraded_disk_intervals(), 8);
  array.RecoverDisk(2);
  EXPECT_TRUE(array.IsAvailable(2));
  EXPECT_EQ(array.disk(2).health(), DiskHealth::kHealthy);
  for (int i = 0; i < 3; ++i) array.EndInterval();
  EXPECT_EQ(array.degraded_disk_intervals(), 8);
}

TEST(DiskArrayDegradeTest, NonServingStragglerIsNotIdleAvailable) {
  DiskArray array = MakeArray(4);
  array.DegradeDisk(3, 50);
  array.EndInterval();  // credit 50: not serving this interval
  EXPECT_EQ(array.IdleAvailableCount(), 3);
  array.EndInterval();  // credit 100: serving
  EXPECT_EQ(array.IdleAvailableCount(), 4);
}

TEST(DiskArrayDegradeTest, FailEscalatesAndClearsTheDutyCycle) {
  DiskArray array = MakeArray(4);
  array.DegradeDisk(1, 50);
  array.FailDisk(1);
  EXPECT_EQ(array.disk(1).health(), DiskHealth::kFailed);
  EXPECT_FALSE(array.IsAvailable(1));
  // The slot left the degraded walk list: intervals no longer accrue.
  const int64_t before = array.degraded_disk_intervals();
  array.EndInterval();
  EXPECT_EQ(array.degraded_disk_intervals(), before);
  array.RecoverDisk(1);
  EXPECT_TRUE(array.IsAvailable(1));
  EXPECT_EQ(array.disk(1).degraded_percent(), 0);
}

// ---------------------------------------------------------------------
// Latent sector errors: the array-owned media-cell registry.
// ---------------------------------------------------------------------

TEST(DiskArrayLatentTest, InjectDetectRepairLifecycle) {
  DiskArray array = MakeArray(4);
  LatentErrorMap& latent = array.latent_errors();
  EXPECT_FALSE(latent.active());
  EXPECT_EQ(latent.Inject(2, 10, 12), 3);
  EXPECT_TRUE(latent.active());
  EXPECT_EQ(latent.ActiveCells(), 3);
  EXPECT_TRUE(latent.IsCorrupt(2, 11));
  EXPECT_FALSE(latent.IsCorrupt(2, 13));
  EXPECT_FALSE(latent.IsCorrupt(1, 11));
  // Media-level: the disk keeps serving.
  EXPECT_TRUE(array.IsAvailable(2));

  EXPECT_TRUE(latent.MarkDetected(2, 11));
  EXPECT_FALSE(latent.MarkDetected(2, 11));  // only the first counts
  latent.Repair(2, 11);
  EXPECT_FALSE(latent.IsCorrupt(2, 11));
  EXPECT_EQ(latent.ActiveCells(), 2);
  EXPECT_EQ(latent.metrics().injected, 3);
  EXPECT_EQ(latent.metrics().detected, 1);
  EXPECT_EQ(latent.metrics().repaired, 1);
}

TEST(DiskArrayLatentTest, ReinjectionKeepsTheOriginalCell) {
  DiskArray array = MakeArray(2);
  LatentErrorMap& latent = array.latent_errors();
  EXPECT_EQ(latent.Inject(0, 5, 7), 3);
  EXPECT_EQ(latent.Inject(0, 6, 8), 1);  // rows 6 and 7 already corrupt
  EXPECT_EQ(latent.ActiveCells(), 4);
  EXPECT_EQ(latent.metrics().injected, 4);
}

TEST(DiskArrayLatentTest, TimeToRepairIsStampedInIntervals) {
  DiskArray array = MakeArray(2);
  LatentErrorMap& latent = array.latent_errors();
  latent.Inject(1, 3, 3);
  for (int i = 0; i < 7; ++i) array.EndInterval();
  latent.MarkDetected(1, 3);
  latent.Repair(1, 3);
  ASSERT_EQ(latent.metrics().time_to_repair_intervals.count(), 1);
  EXPECT_DOUBLE_EQ(latent.metrics().time_to_repair_intervals.mean(), 7.0);
}

TEST(DiskArrayLatentTest, CellsSurviveFailAndRecover) {
  DiskArray array = MakeArray(4);
  array.latent_errors().Inject(1, 0, 0);
  array.FailDisk(1);
  array.RecoverDisk(1);
  // The platters come back as they were: still corrupt.
  EXPECT_TRUE(array.latent_errors().IsCorrupt(1, 0));
}

TEST(DiskArrayLatentTest, SparePromotionDropsTheSlotsCells) {
  DiskArray array = MakeArrayWithSpares(4, 1);
  array.latent_errors().Inject(2, 4, 6);
  array.latent_errors().Inject(3, 9, 9);
  array.FailDisk(2);
  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  array.PromoteSpare(2, *drive);
  // The promoted slot got a fresh medium; other disks' cells stand.
  EXPECT_FALSE(array.latent_errors().IsCorrupt(2, 5));
  EXPECT_TRUE(array.latent_errors().IsCorrupt(3, 9));
  EXPECT_EQ(array.latent_errors().metrics().repaired_by_rebuild, 3);
  EXPECT_EQ(array.latent_errors().ActiveCells(), 1);
}

// ---------------------------------------------------------------------
// Word scans: the idle-and-available queries against a per-slot walk.
// ---------------------------------------------------------------------

int32_t NaiveFirstIdleAvailable(const DiskArray& array, const Bitmap& exclude) {
  for (int32_t slot = 0; slot < array.num_disks(); ++slot) {
    if (array.IsAvailable(slot) && !array.SlotBusy(slot) &&
        !exclude.Test(slot)) {
      return slot;
    }
  }
  return -1;
}

int32_t NaiveIdleAvailableCount(const DiskArray& array) {
  int32_t idle = 0;
  for (int32_t slot = 0; slot < array.num_disks(); ++slot) {
    if (array.IsAvailable(slot) && !array.SlotBusy(slot)) ++idle;
  }
  return idle;
}

// Random health, busy and exclusion states over several intervals, on
// array sizes around the 64-bit word boundaries, with spares written to
// (their busy bits sit past slot D - 1 in the same words) and spares
// promoted into failed slots.
TEST(DiskArrayScanTest, WordScansMatchPerSlotWalk) {
  for (const int32_t d : {1, 5, 63, 64, 65, 127, 130, 200}) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      DiskArray array = MakeArrayWithSpares(d, 3);
      Rng rng(seed * 7919 + static_cast<uint64_t>(d));
      Bitmap exclude(d);
      if (seed % 2 == 0) {
        // Start with a spare already promoted into a failed slot.
        const DiskId slot = static_cast<DiskId>(seed % static_cast<uint64_t>(d));
        array.FailDisk(slot);
        auto drive = array.AcquireSpare();
        ASSERT_TRUE(drive.ok());
        array.PromoteSpare(slot, *drive);
      }
      for (int round = 0; round < 60; ++round) {
        const DiskId slot = static_cast<DiskId>(rng.NextBounded(
            static_cast<uint64_t>(d)));
        switch (rng.NextBounded(6)) {
          case 0: {  // a health transition
            const DiskHealth health = array.disk(slot).health();
            if (health == DiskHealth::kHealthy) {
              const uint64_t kind = rng.NextBounded(3);
              if (kind == 0) array.FailDisk(slot);
              if (kind == 1) array.StallDisk(slot);
              if (kind == 2) {
                array.DegradeDisk(slot,
                                  static_cast<int32_t>(1 + rng.NextBounded(99)));
              }
            } else if (health == DiskHealth::kFailed &&
                       array.FreeSpareCount() > 0 && rng.NextBool(0.5)) {
              auto drive = array.AcquireSpare();
              ASSERT_TRUE(drive.ok());
              array.PromoteSpare(slot, *drive);
            } else {
              array.RecoverDisk(slot);
            }
            break;
          }
          case 1: {  // a spare write, as a rebuild makes
            if (array.FreeSpareCount() == 0) break;
            auto drive = array.AcquireSpare();
            ASSERT_TRUE(drive.ok());
            if (!array.DriveBusy(*drive)) array.ReserveDrive(*drive);
            array.ReturnSpare(*drive);
            break;
          }
          case 2:  // flip exclusion bits
            for (int i = 0; i < 4; ++i) {
              const int32_t bit = static_cast<int32_t>(
                  rng.NextBounded(static_cast<uint64_t>(d)));
              if (exclude.Test(bit)) {
                exclude.Clear(bit);
              } else {
                exclude.Set(bit);
              }
            }
            break;
          case 3:
            array.EndInterval();
            break;
          default:  // load: reserve a quarter of the slots at random
            for (int32_t i = 0; i < d / 4 + 1; ++i) {
              const DiskId s = static_cast<DiskId>(
                  rng.NextBounded(static_cast<uint64_t>(d)));
              if (array.IsAvailable(s) && !array.SlotBusy(s)) {
                array.ReserveSlot(s);
              }
            }
            break;
        }
        ASSERT_EQ(array.FirstIdleAvailableSlot(exclude),
                  NaiveFirstIdleAvailable(array, exclude))
            << "D=" << d << " seed=" << seed << " round=" << round;
        ASSERT_EQ(array.IdleAvailableCount(), NaiveIdleAvailableCount(array))
            << "D=" << d << " seed=" << seed << " round=" << round;
      }
    }
  }
}

// The running busy count is taken a word at a time at interval close;
// the mean utilization must still equal a plain per-interval tally of
// busy slots.  Each interval reserves through every path — single
// slots, runs that wrap at D, a rotated set of virtual disks, and writes
// on a spare, which the count leaves out — and halfway through the
// spare, written in that same interval, is swapped into a failed slot:
// that write counts once, as the slot's, and the slot's history runs on.
TEST(DiskArrayTest, RunningBusyCountMatchesNaiveTally) {
  constexpr int kIntervals = 5000;
  for (const int32_t d : {70, 1000}) {
    DiskArray array = MakeArrayWithSpares(d, 1);
    const int32_t spare = d;  // the spare's drive index
    const DiskId promoted = d / 3;
    int64_t tally = 0;
    std::vector<bool> busy(static_cast<size_t>(d + 1), false);
    Rng rng(static_cast<uint64_t>(d) * 7919);
    const auto idle = [&](DiskId slot) { return !busy[static_cast<size_t>(slot)]; };
    const auto mark = [&](DiskId slot) { busy[static_cast<size_t>(slot)] = true; };
    const auto random_slot = [&] {
      return static_cast<DiskId>(rng.NextBounded(static_cast<uint64_t>(d)));
    };
    Bitmap vdisks(d);
    for (int t = 1; t <= kIntervals; ++t) {
      if (t == kIntervals / 2) {
        array.FailDisk(promoted);
        auto drive = array.AcquireSpare();
        ASSERT_TRUE(drive.ok());
        ASSERT_EQ(*drive, spare);
        array.ReserveDrive(spare);
        array.PromoteSpare(promoted, spare);
        mark(promoted);
      }
      // A rebuild write on the spare before it is promoted.
      if (t < kIntervals / 2 && rng.NextBool(0.3)) {
        array.ReserveDrive(spare);
        mark(spare);
      }
      // Single slots.
      for (uint64_t i = rng.NextBounded(static_cast<uint64_t>(d / 8 + 1)); i > 0;
           --i) {
        const DiskId slot = random_slot();
        if (!idle(slot)) continue;
        array.ReserveSlot(slot);
        mark(slot);
      }
      // Runs, some of them wrapping at D.
      for (int i = 0; i < 3; ++i) {
        const DiskId start = random_slot();
        const auto len = static_cast<int32_t>(1 + rng.NextBounded(12));
        bool run_idle = true;
        for (int32_t f = 0; f < len; ++f) run_idle &= idle((start + f) % d);
        if (!run_idle) continue;
        array.ReserveRun(start, len);
        for (int32_t f = 0; f < len; ++f) mark((start + f) % d);
      }
      // A rotated set of virtual disks.
      const auto rot = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(d)));
      vdisks.ClearAll();
      for (int32_t v = 0; v < d; ++v) {
        const DiskId slot = (v + rot) % d;
        if (idle(slot) && rng.NextBool(0.25)) {
          vdisks.Set(v);
          mark(slot);
        }
      }
      array.ReserveRotated(vdisks, rot);
      for (int32_t drive = 0; drive <= d; ++drive) {
        ASSERT_EQ(array.DriveBusy(drive), busy[static_cast<size_t>(drive)])
            << "D=" << d << " interval " << t << " drive " << drive;
        if (drive < d && busy[static_cast<size_t>(drive)]) ++tally;
      }
      std::fill(busy.begin(), busy.end(), false);
      array.EndInterval();
      ASSERT_EQ(array.MeanUtilization(),
                static_cast<double>(tally) / static_cast<double>(int64_t{d} * t))
          << "D=" << d << " interval " << t;
    }
  }
}

TEST(DiskArrayScanTest, FullArrayHasNoIdleSlot) {
  DiskArray array = MakeArrayWithSpares(130, 1);
  Bitmap exclude(130);
  array.ReserveRun(0, 130);
  EXPECT_EQ(array.FirstIdleAvailableSlot(exclude), -1);
  EXPECT_EQ(array.IdleAvailableCount(), 0);
  array.EndInterval();
  exclude.SetRange(0, 129);
  EXPECT_EQ(array.FirstIdleAvailableSlot(exclude), 129);
  array.FailDisk(129);
  EXPECT_EQ(array.FirstIdleAvailableSlot(exclude), -1);
  EXPECT_EQ(array.IdleAvailableCount(), 129);
}

// The per-disk index behind IsCorrupt's O(1) clean-disk answer stays in
// step with the cell map through overlapping injections, repairs and
// rebuilt-slot drops.
TEST(DiskArrayLatentTest, PerDiskIndexMatchesCells) {
  constexpr int32_t kDisks = 70;
  DiskArray array = MakeArrayWithSpares(kDisks, 2);
  LatentErrorMap& latent = array.latent_errors();
  Rng rng(42);
  for (int step = 0; step < 500; ++step) {
    const DiskId disk = static_cast<DiskId>(rng.NextBounded(kDisks));
    const uint64_t op = rng.NextBounded(8);
    if (op < 4) {
      const int64_t lo = static_cast<int64_t>(rng.NextBounded(20));
      latent.Inject(disk, lo, lo + static_cast<int64_t>(rng.NextBounded(4)));
    } else if (op < 7) {
      // Repair one cell of a random disk that carries any.
      auto it = latent.cells().lower_bound({disk, 0});
      if (it == latent.cells().end()) it = latent.cells().begin();
      if (it != latent.cells().end()) {
        latent.Repair(it->first.first, it->first.second);
      }
    } else {
      latent.DropDiskRebuilt(disk);
    }
    for (DiskId d = 0; d < kDisks; ++d) {
      const auto it = latent.cells().lower_bound({d, 0});
      const bool has = it != latent.cells().end() && it->first.first == d;
      ASSERT_EQ(latent.corrupt_disks().Test(d), has) << "step " << step;
      for (int64_t row = 0; row < 25; ++row) {
        ASSERT_EQ(latent.IsCorrupt(d, row), latent.cells().count({d, row}) > 0)
            << "step " << step << " disk " << d << " row " << row;
      }
    }
    ASSERT_EQ(latent.ActiveCells(),
              static_cast<int64_t>(latent.cells().size()));
    ASSERT_TRUE(latent.AuditIndex().ok()) << latent.AuditIndex();
  }
  // A spare promotion drops the rebuilt slot's cells from the index.
  latent.Inject(5, 0, 2);
  array.FailDisk(5);
  auto drive = array.AcquireSpare();
  ASSERT_TRUE(drive.ok());
  array.PromoteSpare(5, *drive);
  EXPECT_FALSE(latent.corrupt_disks().Test(5));
  EXPECT_TRUE(latent.AuditIndex().ok());
}

}  // namespace
}  // namespace stagger
