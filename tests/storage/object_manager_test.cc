#include "storage/object_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

namespace stagger {
namespace {

class ObjectManagerTest : public ::testing::Test {
 protected:
  // 10 disks x 3000 cylinders; objects of 600 subobjects x degree 5 use
  // 3000 cylinders total = 300 per disk with stride 1, so ~10 objects
  // fill the farm.
  void SetUp() override {
    catalog_ = Catalog::Uniform(/*count=*/20, /*num_subobjects=*/600,
                                Bandwidth::Mbps(100));
    auto disks = DiskArray::Create(10, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    disks_ = std::make_unique<DiskArray>(*std::move(disks));
    manager_ = std::make_unique<ObjectManager>(&catalog_, disks_.get(),
                                               /*fragment_cylinders=*/1);
  }

  StaggeredLayout Layout(int32_t start) {
    auto layout = StaggeredLayout::Create(10, start, 1, 5);
    STAGGER_CHECK(layout.ok());
    return *std::move(layout);
  }

  Catalog catalog_;
  std::unique_ptr<DiskArray> disks_;
  std::unique_ptr<ObjectManager> manager_;
};

TEST_F(ObjectManagerTest, MakeResidentAllocatesStorage) {
  EXPECT_FALSE(manager_->IsResident(0));
  ASSERT_TRUE(manager_->MakeResident(0, Layout(0)).ok());
  EXPECT_TRUE(manager_->IsResident(0));
  EXPECT_EQ(manager_->ResidentCount(), 1);
  // 600 subobjects x 5 fragments spread evenly over 10 disks.
  EXPECT_EQ(disks_->FreeCylinders(), 30000 - 3000);
  EXPECT_EQ(disks_->disk(0).used_cylinders(), 300);
}

TEST_F(ObjectManagerTest, DoubleResidencyRejected) {
  ASSERT_TRUE(manager_->MakeResident(0, Layout(0)).ok());
  EXPECT_TRUE(manager_->MakeResident(0, Layout(1)).IsAlreadyExists());
}

TEST_F(ObjectManagerTest, UnknownObjectRejected) {
  EXPECT_TRUE(manager_->MakeResident(99, Layout(0)).IsNotFound());
}

TEST_F(ObjectManagerTest, EvictReleasesStorage) {
  ASSERT_TRUE(manager_->MakeResident(0, Layout(0)).ok());
  ASSERT_TRUE(manager_->Evict(0).ok());
  EXPECT_FALSE(manager_->IsResident(0));
  EXPECT_EQ(disks_->FreeCylinders(), 30000);
  EXPECT_EQ(manager_->evictions(), 1);
}

TEST_F(ObjectManagerTest, EvictNonResidentFails) {
  EXPECT_TRUE(manager_->Evict(0).IsFailedPrecondition());
}

TEST_F(ObjectManagerTest, PinnedObjectsCannotBeEvicted) {
  ASSERT_TRUE(manager_->MakeResident(0, Layout(0)).ok());
  manager_->Pin(0);
  EXPECT_TRUE(manager_->Evict(0).IsFailedPrecondition());
  manager_->Unpin(0);
  EXPECT_TRUE(manager_->Evict(0).ok());
}

TEST_F(ObjectManagerTest, LfuVictimSelection) {
  ASSERT_TRUE(manager_->MakeResident(0, Layout(0)).ok());
  ASSERT_TRUE(manager_->MakeResident(1, Layout(1)).ok());
  ASSERT_TRUE(manager_->MakeResident(2, Layout(2)).ok());
  manager_->RecordAccess(0);
  manager_->RecordAccess(0);
  manager_->RecordAccess(1);
  manager_->RecordAccess(2);
  manager_->RecordAccess(2);
  auto victim = manager_->PickVictim();
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(*victim, 1);  // least frequently accessed
}

TEST_F(ObjectManagerTest, PinnedObjectsSkippedAsVictims) {
  ASSERT_TRUE(manager_->MakeResident(0, Layout(0)).ok());
  ASSERT_TRUE(manager_->MakeResident(1, Layout(1)).ok());
  manager_->RecordAccess(1);  // 0 is LFU...
  manager_->Pin(0);           // ...but pinned
  auto victim = manager_->PickVictim();
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(*victim, 1);
}

TEST_F(ObjectManagerTest, NoVictimWhenAllPinned) {
  ASSERT_TRUE(manager_->MakeResident(0, Layout(0)).ok());
  manager_->Pin(0);
  EXPECT_TRUE(manager_->PickVictim().status().IsNotFound());
}

TEST_F(ObjectManagerTest, MakeResidentEvictsLfuUnderPressure) {
  // Fill the farm with 10 objects.
  for (ObjectId id = 0; id < 10; ++id) {
    ASSERT_TRUE(manager_->MakeResident(id, Layout(id)).ok());
    manager_->RecordAccess(id);
    if (id != 3) manager_->RecordAccess(id);  // object 3 is LFU
  }
  EXPECT_EQ(disks_->FreeCylinders(), 0);
  // Object 10 must displace object 3.
  ASSERT_TRUE(manager_->MakeResident(10, Layout(0)).ok());
  EXPECT_TRUE(manager_->IsResident(10));
  EXPECT_FALSE(manager_->IsResident(3));
  EXPECT_EQ(manager_->ResidentCount(), 10);
}

TEST_F(ObjectManagerTest, MakeResidentFailsWhenEverythingPinned) {
  for (ObjectId id = 0; id < 10; ++id) {
    ASSERT_TRUE(manager_->MakeResident(id, Layout(id)).ok());
    manager_->Pin(id);
  }
  Status st = manager_->MakeResident(10, Layout(0));
  EXPECT_TRUE(st.IsResourceExhausted());
  EXPECT_FALSE(manager_->IsResident(10));
  // The failed landing must not leak storage.
  EXPECT_EQ(disks_->FreeCylinders(), 0);
}

TEST_F(ObjectManagerTest, AccessCountsAccumulate) {
  manager_->RecordAccess(5);
  manager_->RecordAccess(5);
  EXPECT_EQ(manager_->AccessCount(5), 2);
  EXPECT_EQ(manager_->AccessCount(6), 0);
}

TEST_F(ObjectManagerTest, LayoutOfReturnsPlacement) {
  ASSERT_TRUE(manager_->MakeResident(0, Layout(7)).ok());
  EXPECT_EQ(manager_->LayoutOf(0).start_disk(), 7);
  EXPECT_EQ(manager_->LayoutOf(0).degree(), 5);
}

TEST_F(ObjectManagerTest, SkewedStrideConcentratesStorage) {
  // k = D pins every fragment of the object onto 5 disks.
  auto layout = StaggeredLayout::Create(10, 0, 10, 5);
  ASSERT_TRUE(layout.ok());
  ASSERT_TRUE(manager_->MakeResident(0, *layout).ok());
  EXPECT_EQ(disks_->disk(0).used_cylinders(), 600);
  EXPECT_EQ(disks_->disk(9).used_cylinders(), 0);
}

// The storage TryMakeResident charges from the layout's closed form
// equals FragmentsPerDisk on every disk, and Evict gives all of it back:
// D <= 40, every stride, M <= 8 with and without parity, three start
// disks, and objects shorter than the period P = D / gcd(D, k), of one
// period, of three, and of two and a half.
TEST(ObjectManagerChargeTest, ChargeMatchesFragmentsPerDisk) {
  int64_t cases = 0;
  for (int32_t d = 1; d <= 40; ++d) {
    auto disks = DiskArray::Create(d, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    for (int32_t k = 1; k <= d; ++k) {
      const int64_t period = d / std::gcd(d, k);
      const int64_t half = std::max<int64_t>(1, period / 2);
      Catalog catalog;
      for (int64_t n : {half, period, 3 * period, 2 * period + half}) {
        MediaObject obj;
        obj.display_bandwidth = Bandwidth::Mbps(100);
        obj.num_subobjects = n;
        catalog.Add(std::move(obj));
      }
      ObjectManager manager(&catalog, &*disks, /*fragment_cylinders=*/1);
      const auto walk = StaggeredLayout::MakeStrideWalk(d, k);
      for (int32_t m = 1; m <= std::min(d, 8); ++m) {
        for (bool parity : {false, true}) {
          if (parity && m + 1 > d) continue;
          for (int32_t start : {0, d / 2, d - 1}) {
            auto layout =
                StaggeredLayout::Create(d, start, k, m, parity, walk);
            ASSERT_TRUE(layout.ok());
            for (ObjectId id = 0; id < catalog.size(); ++id) {
              const std::vector<int64_t> expected =
                  layout->FragmentsPerDisk(catalog.Get(id).num_subobjects);
              ASSERT_TRUE(manager.TryMakeResident(id, *layout).ok());
              for (int32_t disk = 0; disk < d; ++disk) {
                ASSERT_EQ(disks->disk(disk).used_cylinders(),
                          expected[static_cast<size_t>(disk)])
                    << "D=" << d << " k=" << k << " M=" << m
                    << " parity=" << parity << " p=" << start
                    << " n=" << catalog.Get(id).num_subobjects
                    << " disk " << disk;
              }
              ASSERT_TRUE(manager.Evict(id).ok());
              for (int32_t disk = 0; disk < d; ++disk) {
                ASSERT_EQ(disks->disk(disk).used_cylinders(), 0)
                    << "D=" << d << " k=" << k << " M=" << m
                    << " parity=" << parity << " p=" << start
                    << " n=" << catalog.Get(id).num_subobjects
                    << " disk " << disk << " after Evict";
              }
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(cases, 100000);
}

// A charge that fails part-way gives back what it took.  D = 10, k = 1,
// M = 5, every object starting on disk 0.  Objects 0-2 (600 rows) are
// resident, 300 cylinders on each disk; object 3 has 605 rows: 60 full
// periods (300 cylinders per disk, disk 0 first) and then its first five
// rows fragment by fragment (disk t of 0-8 takes min(t + 1, 9 - t, 5)).
class ObjectManagerRollbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int64_t n : {600, 600, 600, 605}) {
      MediaObject obj;
      obj.display_bandwidth = Bandwidth::Mbps(100);
      obj.num_subobjects = n;
      catalog_.Add(std::move(obj));
    }
    auto disks = DiskArray::Create(10, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    disks_ = std::make_unique<DiskArray>(*std::move(disks));
    manager_ = std::make_unique<ObjectManager>(&catalog_, disks_.get(),
                                               /*fragment_cylinders=*/1);
    auto layout = StaggeredLayout::Create(10, 0, 1, 5);
    ASSERT_TRUE(layout.ok());
    layout_ = *layout;
    // LFU order 1, 2, 0; object 3 is the most popular.
    const int64_t accesses[] = {3, 1, 2, 9};
    for (ObjectId id = 0; id < 4; ++id) {
      for (int64_t a = 0; a < accesses[id]; ++a) manager_->RecordAccess(id);
    }
    for (ObjectId id = 0; id < 3; ++id) {
      ASSERT_TRUE(manager_->TryMakeResident(id, *layout_).ok());
    }
  }

  // Leaves `free` cylinders on `disk`.
  void FillTo(int32_t disk, int64_t free) {
    ASSERT_TRUE(disks_->disk(disk)
                    .AllocateStorage(disks_->disk(disk).free_cylinders() - free)
                    .ok());
  }

  std::vector<int64_t> FreePerDisk() const {
    std::vector<int64_t> free;
    for (int32_t d = 0; d < disks_->num_disks(); ++d) {
      free.push_back(disks_->disk(d).free_cylinders());
    }
    return free;
  }

  Catalog catalog_;
  std::unique_ptr<DiskArray> disks_;
  std::unique_ptr<ObjectManager> manager_;
  std::optional<StaggeredLayout> layout_;
};

// Disk 4 is full: the full-period pass charges disks 0-3 and fails on
// disk 4.  Object 3 needs 305 cylinders there, so MakeResident must
// evict the two least popular objects, 1 and then 2; each attempt
// before that fails on disk 4 again.
TEST_F(ObjectManagerRollbackTest, FullPeriodFailureRestoresEveryDisk) {
  FillTo(4, 0);
  const std::vector<int64_t> before = FreePerDisk();
  EXPECT_TRUE(manager_->TryMakeResident(3, *layout_).IsResourceExhausted());
  EXPECT_EQ(FreePerDisk(), before);
  EXPECT_FALSE(manager_->IsResident(3));

  ASSERT_TRUE(manager_->MakeResident(3, *layout_).ok());
  EXPECT_EQ(manager_->evictions(), 2);
  EXPECT_TRUE(manager_->IsResident(0));
  EXPECT_FALSE(manager_->IsResident(1));
  EXPECT_FALSE(manager_->IsResident(2));
  const std::vector<int64_t> charge = layout_->FragmentsPerDisk(605);
  for (int32_t d = 0; d < 10; ++d) {
    EXPECT_EQ(disks_->disk(d).free_cylinders(),
              before[static_cast<size_t>(d)] + 600 -
                  charge[static_cast<size_t>(d)])
        << "disk " << d;
  }
}

// Disk 2 has room for its 300 full-period cylinders and one more, but
// the first five rows put three fragments on it: the charge fails in
// the remainder, after every disk took its full-period share and row 0
// its five fragments.  Evicting the least popular object, 1, suffices.
TEST_F(ObjectManagerRollbackTest, RemainderFailureRestoresEveryDisk) {
  FillTo(2, 301);
  const std::vector<int64_t> before = FreePerDisk();
  EXPECT_TRUE(manager_->TryMakeResident(3, *layout_).IsResourceExhausted());
  EXPECT_EQ(FreePerDisk(), before);
  EXPECT_FALSE(manager_->IsResident(3));

  ASSERT_TRUE(manager_->MakeResident(3, *layout_).ok());
  EXPECT_EQ(manager_->evictions(), 1);
  EXPECT_TRUE(manager_->IsResident(0));
  EXPECT_FALSE(manager_->IsResident(1));
  EXPECT_TRUE(manager_->IsResident(2));
  const std::vector<int64_t> charge = layout_->FragmentsPerDisk(605);
  for (int32_t d = 0; d < 10; ++d) {
    EXPECT_EQ(disks_->disk(d).free_cylinders(),
              before[static_cast<size_t>(d)] + 300 -
                  charge[static_cast<size_t>(d)])
        << "disk " << d;
  }
  // Evicting object 3 again returns exactly its charge.
  ASSERT_TRUE(manager_->Evict(3).ok());
  for (int32_t d = 0; d < 10; ++d) {
    EXPECT_EQ(disks_->disk(d).free_cylinders(),
              before[static_cast<size_t>(d)] + 300)
        << "disk " << d;
  }
}

TEST_F(ObjectManagerTest, UnpinUnderflowDies) {
  ASSERT_TRUE(manager_->MakeResident(0, Layout(0)).ok());
  EXPECT_DEATH(manager_->Unpin(0), "unbalanced Unpin");
}

}  // namespace
}  // namespace stagger
