#include "scrub/scrubber.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "disk/disk_array.h"
#include "storage/layout.h"
#include "util/check.h"

namespace stagger {
namespace {

class ScrubberTest : public ::testing::Test {
 protected:
  void Init(int32_t num_disks, std::vector<ScrubTarget> targets,
            int64_t intervals_per_stripe = 1) {
    auto disks = DiskArray::Create(num_disks, DiskParameters::Evaluation());
    ASSERT_TRUE(disks.ok());
    disks_ = std::make_unique<DiskArray>(*std::move(disks));
    targets_ = std::move(targets);
    ScrubConfig config;
    config.intervals_per_stripe = intervals_per_stripe;
    auto scrubber = Scrubber::Create(disks_.get(), config,
                                     [this] { return targets_; });
    ASSERT_TRUE(scrubber.ok()) << scrubber.status();
    scrubber_ = *std::move(scrubber);
  }

  /// One resident object striped over all 6 disks of the test arrays:
  /// row s's data fragment j on (s + j) mod 6, parity on
  /// (s + degree) mod 6.
  static ScrubTarget Target(ObjectId object, int64_t n, int32_t degree,
                            bool parity) {
    auto layout = StaggeredLayout::Create(6, 0, 1, degree, parity);
    STAGGER_CHECK(layout.ok()) << layout.status();
    return ScrubTarget{object, n, *std::move(layout)};
  }

  /// Runs `n` idle intervals with an uncapped grant, closing each like
  /// the scheduler would.
  void RunIdleIntervals(int64_t n, int64_t start = 0) {
    for (int64_t t = start; t < start + n; ++t) {
      BackgroundGrant grant(disks_.get(), /*max_reads=*/0);
      scrubber_->RunIdle(t, &grant);
      disks_->EndInterval();
    }
  }

  std::unique_ptr<DiskArray> disks_;
  std::unique_ptr<Scrubber> scrubber_;
  std::vector<ScrubTarget> targets_;
};

TEST(ScrubberCreateTest, Validates) {
  auto disks = DiskArray::Create(4, DiskParameters::Evaluation());
  ASSERT_TRUE(disks.ok());
  ScrubConfig bad_rate;
  bad_rate.intervals_per_stripe = 0;
  EXPECT_TRUE(Scrubber::Create(&*disks, bad_rate,
                               [] { return std::vector<ScrubTarget>{}; })
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(Scrubber::Create(&*disks, ScrubConfig{}, nullptr)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ScrubberTest, CleanPassVerifiesEveryStripe) {
  Init(6, {Target(1, 12, 3, /*parity=*/true)});
  RunIdleIntervals(20);
  EXPECT_GE(scrubber_->metrics().passes_completed, 1);
  EXPECT_GE(scrubber_->metrics().stripes_scrubbed, 12);
  // 4 members per stripe, all verified.
  EXPECT_EQ(scrubber_->metrics().verify_reads,
            scrubber_->metrics().stripes_scrubbed * 4);
  EXPECT_EQ(scrubber_->metrics().mismatches, 0);
  EXPECT_EQ(scrubber_->metrics().latent_errors_found, 0);
  EXPECT_TRUE(scrubber_->AuditState().ok());
}

TEST_F(ScrubberTest, SingleCorruptFragmentIsParityRepaired) {
  Init(6, {Target(1, 12, 3, /*parity=*/true)});
  // Stripe 4's data fragment j=1 lives on disk (4+1) mod 6 = 5.
  disks_->latent_errors().Inject(5, 4, 4);
  RunIdleIntervals(20);
  EXPECT_FALSE(disks_->latent_errors().IsCorrupt(5, 4));
  EXPECT_EQ(scrubber_->metrics().latent_errors_found, 1);
  EXPECT_EQ(scrubber_->metrics().parity_repairs, 1);
  EXPECT_EQ(scrubber_->metrics().latent_errors_repaired, 1);
  EXPECT_EQ(scrubber_->metrics().archive_restores, 0);
  EXPECT_EQ(disks_->latent_errors().metrics().repaired, 1);
}

TEST_F(ScrubberTest, DoubleCorruptionEscalatesToArchiveRestore) {
  Init(6, {Target(1, 12, 3, /*parity=*/true)});
  // Stripe 0's data fragments j=0 and j=1: disks 0 and 1, row 0 —
  // single parity cannot reconstruct two losses.
  disks_->latent_errors().Inject(0, 0, 0);
  disks_->latent_errors().Inject(1, 0, 0);
  RunIdleIntervals(20);
  EXPECT_FALSE(disks_->latent_errors().active());
  EXPECT_EQ(scrubber_->metrics().archive_restores, 1);
  EXPECT_EQ(scrubber_->metrics().parity_repairs, 0);
  EXPECT_EQ(scrubber_->metrics().latent_errors_repaired, 2);
}

TEST_F(ScrubberTest, NoParityStripeRestoresFromArchive) {
  Init(6, {Target(1, 8, 3, /*parity=*/false)});
  disks_->latent_errors().Inject(2, 2, 2);  // stripe 2, fragment j=0
  RunIdleIntervals(16);
  EXPECT_FALSE(disks_->latent_errors().active());
  EXPECT_EQ(scrubber_->metrics().archive_restores, 1);
  EXPECT_EQ(scrubber_->metrics().parity_repairs, 0);
}

TEST_F(ScrubberTest, OrphanCellsAreSweptWithoutTargets) {
  Init(6, {});
  disks_->latent_errors().Inject(3, 50, 51);
  EXPECT_TRUE(scrubber_->HasWork());
  RunIdleIntervals(4);
  EXPECT_FALSE(disks_->latent_errors().active());
  EXPECT_EQ(scrubber_->metrics().orphans_repaired, 2);
  EXPECT_EQ(scrubber_->metrics().latent_errors_found, 2);
  EXPECT_FALSE(scrubber_->HasWork());
}

TEST_F(ScrubberTest, DetectedCellIsRepairedOutOfCursorOrder) {
  // A huge rate floor freezes the background cursor, so only the
  // targeted path can reach the cell within the test window.
  Init(6, {Target(1, 200, 3, /*parity=*/true)}, /*intervals_per_stripe=*/1000);
  disks_->latent_errors().Inject(4, 100, 100);  // stripe 100, j=?, disk 4
  // A display read's checksum surfaces the cell.
  disks_->latent_errors().MarkDetected(4, 100);
  RunIdleIntervals(3);
  EXPECT_FALSE(disks_->latent_errors().IsCorrupt(4, 100));
  EXPECT_GE(scrubber_->metrics().targeted_repairs, 1);
  EXPECT_EQ(scrubber_->metrics().parity_repairs, 1);
  // The cursor barely moved: the repair did not ride a full pass.
  EXPECT_LE(scrubber_->metrics().passes_completed, 0);
}

TEST_F(ScrubberTest, UndetectedCellWaitsForTheCursor) {
  // Same setup, but nobody detected the cell: the rate floor paces the
  // cursor, so the cell stays corrupt within the short window.
  Init(6, {Target(1, 200, 3, /*parity=*/true)}, /*intervals_per_stripe=*/1000);
  disks_->latent_errors().Inject(4, 100, 100);
  RunIdleIntervals(3);
  EXPECT_TRUE(disks_->latent_errors().IsCorrupt(4, 100));
  EXPECT_EQ(scrubber_->metrics().targeted_repairs, 0);
}

TEST_F(ScrubberTest, RateFloorPacesTheCursor) {
  Init(6, {Target(1, 100, 3, /*parity=*/true)}, /*intervals_per_stripe=*/4);
  RunIdleIntervals(9);
  // One stripe at interval 0, then every 4th interval: 0, 4, 8 -> 3.
  EXPECT_EQ(scrubber_->metrics().stripes_scrubbed, 3);
}

TEST_F(ScrubberTest, UnavailableMemberDefersTheStripeNotThePass) {
  Init(6, {Target(1, 6, 3, /*parity=*/true)});
  disks_->FailDisk(0);
  // Disk 0 carries stripe 0's j=0, stripe 5's j=1, stripe 4's j=2, and
  // stripe 3's parity; stripes 1 and 2 avoid it and must still verify.
  RunIdleIntervals(4);
  EXPECT_GT(scrubber_->metrics().skipped_unavailable, 0);
  EXPECT_GE(scrubber_->metrics().stripes_scrubbed, 2);
  EXPECT_GE(scrubber_->metrics().passes_completed, 1);
  EXPECT_TRUE(scrubber_->AuditState().ok());

  // Once the disk is back the deferred stripes verify on the next pass.
  disks_->RecoverDisk(0);
  const int64_t skipped = scrubber_->metrics().skipped_unavailable;
  RunIdleIntervals(6, /*start=*/4);
  EXPECT_EQ(scrubber_->metrics().skipped_unavailable, skipped);
  EXPECT_GE(scrubber_->metrics().stripes_scrubbed, 6);
}

TEST_F(ScrubberTest, InvalidateRequeriesTheWorkSource) {
  Init(6, {Target(1, 4, 3, /*parity=*/true)});
  RunIdleIntervals(2);
  // The catalog churned: object 1 evicted, object 2 landed.
  targets_ = {Target(2, 4, 3, /*parity=*/true)};
  scrubber_->Invalidate();
  EXPECT_TRUE(scrubber_->HasWork());
  RunIdleIntervals(8, /*start=*/2);
  EXPECT_GE(scrubber_->metrics().passes_completed, 2);
  EXPECT_EQ(scrubber_->metrics().mismatches, 0);
}

TEST_F(ScrubberTest, BlockedGrantHoldsTheCursorStill) {
  Init(6, {Target(1, 8, 3, /*parity=*/true)});
  // A grant too small for one stripe (4 members) cannot scrub at all.
  for (int64_t t = 0; t < 3; ++t) {
    BackgroundGrant grant(disks_.get(), /*max_reads=*/2);
    scrubber_->RunIdle(t, &grant);
    disks_->EndInterval();
  }
  EXPECT_EQ(scrubber_->metrics().stripes_scrubbed, 0);
  EXPECT_EQ(scrubber_->metrics().stalled_intervals, 3);
  // With a full grant the pass proceeds from stripe 0.
  RunIdleIntervals(12, /*start=*/3);
  EXPECT_GE(scrubber_->metrics().passes_completed, 1);
  EXPECT_EQ(scrubber_->metrics().mismatches, 0);
}

}  // namespace
}  // namespace stagger
