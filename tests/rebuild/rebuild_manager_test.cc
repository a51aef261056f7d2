#include "rebuild/rebuild_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "background/background_budget.h"
#include "disk/disk_array.h"
#include "storage/layout.h"

namespace stagger {
namespace {

TEST(FragmentWordTest, DeterministicAndDistinct) {
  EXPECT_EQ(FragmentWord(3, 7, 1), FragmentWord(3, 7, 1));
  EXPECT_NE(FragmentWord(3, 7, 1), FragmentWord(3, 7, 2));
  EXPECT_NE(FragmentWord(3, 7, 1), FragmentWord(3, 8, 1));
  EXPECT_NE(FragmentWord(3, 7, 1), FragmentWord(4, 7, 1));
}

TEST(FragmentWordTest, ParityIsStripeXor) {
  const ObjectId object = 11;
  const int64_t subobject = 5;
  const int32_t degree = 4;
  uint64_t x = 0;
  for (int32_t j = 0; j < degree; ++j) {
    x ^= FragmentWord(object, subobject, j);
  }
  EXPECT_EQ(ParityWord(object, subobject, degree), x);
  // XORing parity with all-but-one data word re-derives the missing one
  // — the identity the rebuild relies on.
  uint64_t rederived = ParityWord(object, subobject, degree);
  for (int32_t j = 0; j < degree; ++j) {
    if (j != 2) rederived ^= FragmentWord(object, subobject, j);
  }
  EXPECT_EQ(rederived, FragmentWord(object, subobject, 2));
}

class RebuildManagerTest : public ::testing::Test {
 protected:
  void Init(int32_t num_disks, int32_t num_spares,
            int64_t intervals_per_fragment = 1) {
    auto disks =
        DiskArray::Create(num_disks, DiskParameters::Evaluation(), num_spares);
    ASSERT_TRUE(disks.ok());
    disks_ = std::make_unique<DiskArray>(*std::move(disks));
    RebuildConfig config;
    config.rebuild_intervals_per_fragment = intervals_per_fragment;
    auto rebuild = RebuildManager::Create(disks_.get(), config);
    ASSERT_TRUE(rebuild.ok()) << rebuild.status();
    rebuild_ = *std::move(rebuild);
  }

  /// Every fragment of `layout` (data and parity) that lives on `slot`,
  /// for an object of `n` subobjects.
  std::vector<LostFragment> LostOn(const StaggeredLayout& layout,
                                   ObjectId object, int64_t n, DiskId slot) {
    std::vector<LostFragment> lost;
    for (int64_t i = 0; i < n; ++i) {
      for (int32_t j = 0; j < layout.degree(); ++j) {
        if (layout.DiskFor(i, j) == slot) {
          lost.push_back(LostFragment{object, i, j, layout.StripeOf(i)});
        }
      }
      if (layout.has_parity() && layout.ParityDiskFor(i) == slot) {
        lost.push_back(
            LostFragment{object, i, layout.degree(), layout.StripeOf(i)});
      }
    }
    return lost;
  }

  /// One idle interval with an uncapped grant.
  void RunIdle(int64_t t) {
    BackgroundGrant grant(disks_.get(), /*max_reads=*/0);
    rebuild_->RunIdle(t, &grant);
  }

  /// Runs `n` idle intervals, closing each like the scheduler would.
  void RunIdleIntervals(int64_t n, int64_t start = 0) {
    for (int64_t t = start; t < start + n; ++t) {
      RunIdle(t);
      disks_->EndInterval();
    }
  }

  /// Parity stripe of `degree` data slots from `first` on the test array.
  Stripe StripeFrom(int32_t first, int32_t degree) const {
    return Stripe::At(disks_->num_disks(), first, degree, /*has_parity=*/true);
  }

  std::unique_ptr<DiskArray> disks_;
  std::unique_ptr<RebuildManager> rebuild_;
};

TEST_F(RebuildManagerTest, StartValidates) {
  Init(6, 1);
  disks_->FailDisk(2);
  EXPECT_TRUE(rebuild_->StartRebuild(2, {}).ok());  // empty: instant promote
  EXPECT_FALSE(rebuild_->rebuilding(2));
  EXPECT_TRUE(disks_->IsAvailable(2));
  EXPECT_EQ(rebuild_->metrics().rebuilds_completed, 1);
}

TEST_F(RebuildManagerTest, NoFreeSpareIsResourceExhausted) {
  Init(6, 1);
  auto layout = StaggeredLayout::Create(6, 0, 1, 3, /*parity=*/true);
  ASSERT_TRUE(layout.ok());
  disks_->FailDisk(1);
  disks_->FailDisk(2);
  EXPECT_TRUE(rebuild_->StartRebuild(1, LostOn(*layout, 0, 12, 1)).ok());
  EXPECT_TRUE(rebuild_->StartRebuild(2, LostOn(*layout, 0, 12, 2))
                  .IsResourceExhausted());
  // Restarting an in-flight rebuild is a caller bug.
  EXPECT_TRUE(rebuild_->StartRebuild(1, {}).IsFailedPrecondition());
}

TEST_F(RebuildManagerTest, RebuildsAllFragmentsAndPromotes) {
  Init(6, 1);
  auto layout = StaggeredLayout::Create(6, 0, 1, 3, /*parity=*/true);
  ASSERT_TRUE(layout.ok());
  const int64_t n = 12;
  const DiskId slot = 2;
  const auto lost = LostOn(*layout, /*object=*/0, n, slot);
  // gcd(6,1)=1, window M+1=4: slot 2 carries 4 of every 6 stripes'
  // fragments -> 8 lost fragments over 12 stripes.
  ASSERT_EQ(lost.size(), 8u);

  disks_->FailDisk(slot);
  ASSERT_TRUE(rebuild_->StartRebuild(slot, lost).ok());
  EXPECT_TRUE(rebuild_->rebuilding(slot));
  EXPECT_EQ(rebuild_->EtaIntervals(slot), 8);
  EXPECT_DOUBLE_EQ(rebuild_->Progress(slot), 0.0);

  RunIdleIntervals(4);
  EXPECT_DOUBLE_EQ(rebuild_->Progress(slot), 0.5);
  EXPECT_EQ(rebuild_->EtaIntervals(slot), 4);
  EXPECT_FALSE(disks_->IsAvailable(slot));  // not promoted yet

  RunIdleIntervals(4, /*start=*/4);
  EXPECT_FALSE(rebuild_->rebuilding(slot));
  EXPECT_TRUE(disks_->IsAvailable(slot));  // spare promoted into the slot
  EXPECT_EQ(rebuild_->metrics().rebuilds_completed, 1);
  EXPECT_EQ(rebuild_->metrics().fragments_rebuilt, 8);
  // Each data rebuild reads M-1 survivors + parity; each parity rebuild
  // reads M data fragments — M reads either way.
  EXPECT_EQ(rebuild_->metrics().source_reads, 8 * 3);
  EXPECT_EQ(rebuild_->metrics().mismatches, 0);
  EXPECT_TRUE(rebuild_->AuditState().ok());
}

TEST_F(RebuildManagerTest, RateCapThrottlesProgress) {
  Init(6, 1, /*intervals_per_fragment=*/3);
  auto layout = StaggeredLayout::Create(6, 0, 1, 3, /*parity=*/true);
  ASSERT_TRUE(layout.ok());
  const DiskId slot = 0;
  disks_->FailDisk(slot);
  const auto lost = LostOn(*layout, 0, 6, slot);
  ASSERT_EQ(lost.size(), 4u);
  ASSERT_TRUE(rebuild_->StartRebuild(slot, lost).ok());
  EXPECT_EQ(rebuild_->EtaIntervals(slot), 12);

  RunIdleIntervals(7);
  // Fragments at intervals 0, 3, 6 — the cap holds even with slack
  // every interval (throttled waits are not stalls).
  EXPECT_EQ(rebuild_->metrics().fragments_rebuilt, 3);
  EXPECT_EQ(rebuild_->metrics().stalled_intervals, 0);

  RunIdleIntervals(3, /*start=*/7);
  EXPECT_FALSE(rebuild_->rebuilding(slot));
}

TEST_F(RebuildManagerTest, BusySourcesStallOrSkipWithoutStealing) {
  Init(6, 1);
  auto layout = StaggeredLayout::Create(6, 0, 1, 3, /*parity=*/true);
  ASSERT_TRUE(layout.ok());
  const DiskId slot = 2;
  disks_->FailDisk(slot);
  const auto lost = LostOn(*layout, 0, 6, slot);
  ASSERT_TRUE(rebuild_->StartRebuild(slot, lost).ok());

  // Display traffic owns every surviving disk: no stripe has slack, so
  // the rebuild yields the whole interval (idle bandwidth only).
  for (DiskId d = 0; d < 6; ++d) {
    if (d != slot) disks_->ReserveSlot(d);
  }
  RunIdle(0);
  EXPECT_EQ(rebuild_->metrics().fragments_rebuilt, 0);
  EXPECT_EQ(rebuild_->metrics().stalled_intervals, 1);
  disks_->EndInterval();

  // Traffic pinning only a source disk of the *first* lost stripe makes
  // the rebuild skip past it and spend the slack on a later stripe.
  const auto& f = lost.front();
  const DiskId busy = f.stripe.Slot(f.fragment == 0 ? 1 : 0);
  disks_->ReserveSlot(busy);
  RunIdle(1);
  EXPECT_EQ(rebuild_->metrics().fragments_rebuilt, 1);
  EXPECT_EQ(rebuild_->metrics().stalled_intervals, 1);
  disks_->EndInterval();

  // With all disks released, the skipped stripe rebuilds next.
  RunIdle(2);
  EXPECT_EQ(rebuild_->metrics().fragments_rebuilt, 2);
  disks_->EndInterval();
}

TEST_F(RebuildManagerTest, CancelReturnsSpare) {
  Init(6, 1);
  auto layout = StaggeredLayout::Create(6, 0, 1, 3, /*parity=*/true);
  ASSERT_TRUE(layout.ok());
  disks_->FailDisk(3);
  ASSERT_TRUE(rebuild_->StartRebuild(3, LostOn(*layout, 0, 6, 3)).ok());
  EXPECT_EQ(disks_->FreeSpareCount(), 0);

  // The original drive comes back: abandon the rebuild mid-flight.
  RunIdleIntervals(2);
  disks_->RecoverDisk(3);
  EXPECT_TRUE(rebuild_->CancelRebuild(3).ok());
  EXPECT_FALSE(rebuild_->rebuilding(3));
  EXPECT_EQ(disks_->FreeSpareCount(), 1);
  EXPECT_EQ(rebuild_->metrics().rebuilds_cancelled, 1);
  EXPECT_TRUE(rebuild_->AuditState().ok());
}

TEST_F(RebuildManagerTest, TwoConcurrentRebuilds) {
  Init(8, 2);
  auto layout = StaggeredLayout::Create(8, 0, 1, 3, /*parity=*/true);
  ASSERT_TRUE(layout.ok());
  disks_->FailDisk(1);
  disks_->FailDisk(5);
  const auto lost1 = LostOn(*layout, 0, 8, 1);
  const auto lost5 = LostOn(*layout, 0, 8, 5);
  ASSERT_TRUE(rebuild_->StartRebuild(1, lost1).ok());
  ASSERT_TRUE(rebuild_->StartRebuild(5, lost5).ok());
  EXPECT_EQ(rebuild_->active_jobs(), 2u);

  RunIdleIntervals(32);
  EXPECT_EQ(rebuild_->active_jobs(), 0u);
  EXPECT_TRUE(disks_->IsAvailable(1));
  EXPECT_TRUE(disks_->IsAvailable(5));
  EXPECT_EQ(rebuild_->metrics().rebuilds_completed, 2);
  EXPECT_EQ(rebuild_->metrics().mismatches, 0);
}

TEST_F(RebuildManagerTest, StalledSourcePausesAtTheCursor) {
  Init(6, 1);
  auto layout = StaggeredLayout::Create(6, 0, 1, 3, /*parity=*/true);
  ASSERT_TRUE(layout.ok());
  disks_->FailDisk(2);
  const auto lost = LostOn(*layout, /*object=*/0, 12, 2);
  ASSERT_TRUE(rebuild_->StartRebuild(2, lost).ok());

  RunIdleIntervals(2);  // one fragment per interval: cursor at 2
  const size_t cursor = rebuild_->NextFragmentIndex(2);
  ASSERT_GT(cursor, 0u);
  ASSERT_LT(cursor, lost.size());

  // A stalled source freezes the job: the cursor must hold still (no
  // re-scan churn) until the source comes back.
  disks_->StallDisk(0);
  rebuild_->OnSourceDown(0, disks_->disk(0).health());
  EXPECT_TRUE(rebuild_->paused(2));
  const int64_t stalled_before = rebuild_->metrics().stalled_intervals;
  RunIdleIntervals(5, /*start=*/2);
  EXPECT_EQ(rebuild_->NextFragmentIndex(2), cursor);
  EXPECT_GE(rebuild_->metrics().paused_intervals, 5);
  // Paused is not stalled: the job never scanned for sources.
  EXPECT_EQ(rebuild_->metrics().stalled_intervals, stalled_before);

  // Resume: same cursor, runs to completion.
  disks_->RecoverDisk(0);
  rebuild_->OnSourceUp(0);
  EXPECT_FALSE(rebuild_->paused(2));
  RunIdleIntervals(32, /*start=*/7);
  EXPECT_FALSE(rebuild_->rebuilding(2));
  EXPECT_TRUE(disks_->IsAvailable(2));
  EXPECT_EQ(rebuild_->metrics().rebuilds_completed, 1);
  EXPECT_EQ(rebuild_->metrics().mismatches, 0);
}

TEST_F(RebuildManagerTest, FailedSourceDoesNotPause) {
  // A FAILED source must not freeze the job — remaining stripes that
  // avoid it are still rebuildable, and the in-job scan skips the rest.
  Init(6, 1);
  auto layout = StaggeredLayout::Create(6, 0, 1, 3, /*parity=*/true);
  ASSERT_TRUE(layout.ok());
  disks_->FailDisk(2);
  ASSERT_TRUE(rebuild_->StartRebuild(2, LostOn(*layout, 0, 12, 2)).ok());
  disks_->FailDisk(4);
  rebuild_->OnSourceDown(4, disks_->disk(4).health());
  EXPECT_FALSE(rebuild_->paused(2));
}

TEST_F(RebuildManagerTest, CorruptSourceIsSurfacedAndSkipped) {
  Init(6, 1);
  auto layout = StaggeredLayout::Create(6, 0, 1, 3, /*parity=*/true);
  ASSERT_TRUE(layout.ok());
  // One lost fragment: stripe 0's data on disk 2; sources 0, 1, parity 3.
  disks_->FailDisk(2);
  const auto lost = LostOn(*layout, /*object=*/0, /*n=*/1, 2);
  ASSERT_EQ(lost.size(), 1u);
  disks_->latent_errors().Inject(0, 0, 0);  // corrupt a source cell
  ASSERT_TRUE(rebuild_->StartRebuild(2, lost).ok());

  RunIdleIntervals(3);
  // XORing a corrupt word onto the spare would propagate garbage: the
  // rebuild surfaces the cell and leaves the stripe alone.
  EXPECT_TRUE(rebuild_->rebuilding(2));
  EXPECT_GE(rebuild_->metrics().corrupt_source_skips, 1);
  EXPECT_EQ(disks_->latent_errors().metrics().detected, 1);
  EXPECT_EQ(rebuild_->metrics().fragments_rebuilt, 0);

  // Once the cell is repaired the rebuild goes through clean.
  disks_->latent_errors().Repair(0, 0);
  RunIdleIntervals(4, /*start=*/3);
  EXPECT_FALSE(rebuild_->rebuilding(2));
  EXPECT_EQ(rebuild_->metrics().mismatches, 0);
}

TEST_F(RebuildManagerTest, CapBelowFirstStripeDegreeEndsTheInterval) {
  // Slot 2 lost a degree-5 stripe (sources 3..7) ahead of a degree-3
  // stripe (sources 3..5).  A grant with 4 reads left cannot take the
  // first stripe whole, and the pick never reaches past it, free or
  // not: the interval ends with nothing rebuilt.
  Init(12, 1);
  disks_->FailDisk(2);
  const std::vector<LostFragment> lost = {
      {/*object=*/0, /*subobject=*/0, /*fragment=*/0, StripeFrom(2, 5)},
      {/*object=*/1, /*subobject=*/0, /*fragment=*/0, StripeFrom(2, 3)}};
  ASSERT_TRUE(rebuild_->StartRebuild(2, lost).ok());

  BackgroundGrant grant(disks_.get(), /*max_reads=*/4);
  EXPECT_EQ(rebuild_->RunIdle(0, &grant), 0);
  EXPECT_EQ(grant.reads(), 0);
  disks_->EndInterval();

  // Still false with the first stripe's window blocked by traffic.
  disks_->ReserveSlot(7);
  BackgroundGrant blocked(disks_.get(), /*max_reads=*/4);
  EXPECT_EQ(rebuild_->RunIdle(1, &blocked), 0);
  disks_->EndInterval();
  EXPECT_EQ(rebuild_->metrics().fragments_rebuilt, 0);
  EXPECT_EQ(rebuild_->metrics().stalled_intervals, 2);
  EXPECT_EQ(rebuild_->NextFragmentIndex(2), 0u);
  EXPECT_TRUE(rebuild_->LostList(2) == lost);

  // A grant with the stripe's 5 reads takes the first stripe.
  BackgroundGrant enough(disks_.get(), /*max_reads=*/5);
  EXPECT_EQ(rebuild_->RunIdle(2, &enough), 1);
  EXPECT_EQ(enough.reads(), 5);
  EXPECT_EQ(rebuild_->NextFragmentIndex(2), 1u);
  EXPECT_TRUE(rebuild_->AuditState().ok()) << rebuild_->AuditState();
}

TEST_F(RebuildManagerTest, CorruptSkipHandsThePickToAnotherWindow) {
  // Slot 2's list: X and Z read sources 3, 4, 5 (fragment 0 of stripes
  // starting at 2); Y reads 1, 3, 4 (fragment 1 of a stripe starting at
  // 1).  X's source cell on disk 5 is corrupt.  The pick skips X,
  // surfacing the cell, and takes Y — the lowest clean position, in
  // another window — ahead of Z in X's own window.
  Init(12, 1);
  disks_->FailDisk(2);
  const LostFragment x{/*object=*/0, /*subobject=*/0, 0, StripeFrom(2, 3)};
  const LostFragment y{/*object=*/0, /*subobject=*/1, 1, StripeFrom(1, 3)};
  const LostFragment z{/*object=*/0, /*subobject=*/2, 0, StripeFrom(2, 3)};
  disks_->latent_errors().Inject(5, 0, 0);
  ASSERT_TRUE(rebuild_->StartRebuild(2, {x, y, z}).ok());

  RunIdleIntervals(1);
  EXPECT_EQ(rebuild_->metrics().corrupt_source_skips, 1);
  EXPECT_EQ(disks_->latent_errors().metrics().detected, 1);
  EXPECT_EQ(rebuild_->metrics().fragments_rebuilt, 1);
  EXPECT_EQ(rebuild_->NextFragmentIndex(2), 1u);
  EXPECT_TRUE(rebuild_->LostList(2) == (std::vector<LostFragment>{y, x, z}));
  EXPECT_TRUE(rebuild_->AuditState().ok()) << rebuild_->AuditState();

  // Next interval X is skipped again and the pick moves on to Z, in
  // X's window.
  RunIdleIntervals(1, /*start=*/1);
  EXPECT_EQ(rebuild_->metrics().corrupt_source_skips, 2);
  EXPECT_EQ(disks_->latent_errors().metrics().detected, 1);
  EXPECT_EQ(rebuild_->NextFragmentIndex(2), 2u);
  EXPECT_TRUE(rebuild_->LostList(2) == (std::vector<LostFragment>{y, z, x}));
  EXPECT_TRUE(rebuild_->AuditState().ok()) << rebuild_->AuditState();
}

TEST_F(RebuildManagerTest, StartRejectsStripesWithoutParity) {
  // A parity-less stripe has nothing to rebuild from; a fragment index
  // past the stripe's width names no member.  Both are refused before
  // a spare is claimed.
  Init(6, 1);
  disks_->FailDisk(2);
  const Stripe bare = Stripe::At(6, 0, 3, /*has_parity=*/false);
  EXPECT_TRUE(rebuild_->StartRebuild(2, {LostFragment{0, 0, 2, bare}})
                  .IsInvalidArgument());
  EXPECT_TRUE(
      rebuild_->StartRebuild(2, {LostFragment{0, 0, 4, StripeFrom(0, 3)}})
          .IsInvalidArgument());
  EXPECT_EQ(disks_->FreeSpareCount(), 1);
  EXPECT_FALSE(rebuild_->rebuilding(2));
  EXPECT_EQ(rebuild_->metrics().rebuilds_started, 0);
}

TEST_F(RebuildManagerTest, SourcesFollowTheStripesParitySlot) {
  // Stripes whose parity is not on first + M: data on 0, 1, 2, parity
  // on 7.  Rebuilding a data fragment on slot 1 reads exactly the
  // stripe's other members 0, 2 and 7 — not slot 3, where a re-derived
  // "first + M" would look.
  Init(10, 1);
  disks_->FailDisk(1);
  const Stripe skewed{/*num_disks=*/10, /*first=*/0, /*degree=*/3,
                      /*parity=*/7};
  ASSERT_TRUE(rebuild_
                  ->StartRebuild(1, {LostFragment{0, 0, 1, skewed},
                                     LostFragment{0, 1, 1, skewed}})
                  .ok());

  // A stall on slot 3 does not touch the job; one on slot 7 pauses it.
  disks_->StallDisk(3);
  rebuild_->OnSourceDown(3, disks_->disk(3).health());
  EXPECT_FALSE(rebuild_->paused(1));
  disks_->RecoverDisk(3);
  rebuild_->OnSourceUp(3);
  disks_->StallDisk(7);
  rebuild_->OnSourceDown(7, disks_->disk(7).health());
  EXPECT_TRUE(rebuild_->paused(1));
  disks_->RecoverDisk(7);
  rebuild_->OnSourceUp(7);

  RunIdle(0);
  for (DiskId d = 0; d < 10; ++d) {
    EXPECT_EQ(disks_->SlotBusy(d), d == 0 || d == 2 || d == 7) << "slot " << d;
  }
  disks_->EndInterval();
  EXPECT_EQ(rebuild_->metrics().fragments_rebuilt, 1);
  EXPECT_EQ(rebuild_->metrics().source_reads, 3);

  RunIdleIntervals(1, /*start=*/1);
  EXPECT_FALSE(rebuild_->rebuilding(1));
  EXPECT_TRUE(disks_->IsAvailable(1));
  EXPECT_EQ(rebuild_->metrics().mismatches, 0);
}

}  // namespace
}  // namespace stagger
