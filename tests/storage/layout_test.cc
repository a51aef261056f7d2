#include "storage/layout.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>

namespace stagger {
namespace {

TEST(StaggeredLayoutTest, CreateValidates) {
  EXPECT_FALSE(StaggeredLayout::Create(0, 0, 1, 1).ok());
  EXPECT_FALSE(StaggeredLayout::Create(10, -1, 1, 1).ok());
  EXPECT_FALSE(StaggeredLayout::Create(10, 10, 1, 1).ok());
  EXPECT_FALSE(StaggeredLayout::Create(10, 0, 0, 1).ok());
  EXPECT_FALSE(StaggeredLayout::Create(10, 0, 11, 1).ok());
  EXPECT_FALSE(StaggeredLayout::Create(10, 0, 1, 0).ok());
  EXPECT_FALSE(StaggeredLayout::Create(10, 0, 1, 11).ok());
  EXPECT_TRUE(StaggeredLayout::Create(10, 9, 10, 10).ok());
}

// Figure 1: simple striping on 9 disks, M = 3 — subobject i goes to
// cluster (i mod 3), fragment j to the cluster's j-th disk.  Simple
// striping is staggered striping with k = M.
TEST(StaggeredLayoutTest, Figure1SimpleStriping) {
  auto layout = StaggeredLayout::Create(9, 0, 3, 3);
  ASSERT_TRUE(layout.ok());
  for (int64_t i = 0; i < 12; ++i) {
    for (int32_t j = 0; j < 3; ++j) {
      EXPECT_EQ(layout->DiskFor(i, j), 3 * (i % 3) + j)
          << "X_{" << i << "." << j << "}";
    }
  }
}

// Figure 5: 12 disks, stride 1; Y (M=4) starts on disk 0, X (M=3) on
// disk 4, Z (M=2) on disk 7.  Spot-check the figure's cells.
TEST(StaggeredLayoutTest, Figure5MixedMedia) {
  auto y = StaggeredLayout::Create(12, 0, 1, 4);
  auto x = StaggeredLayout::Create(12, 4, 1, 3);
  auto z = StaggeredLayout::Create(12, 7, 1, 2);
  ASSERT_TRUE(y.ok() && x.ok() && z.ok());

  // Row 0 of the figure.
  EXPECT_EQ(y->DiskFor(0, 0), 0);
  EXPECT_EQ(y->DiskFor(0, 3), 3);
  EXPECT_EQ(x->DiskFor(0, 0), 4);
  EXPECT_EQ(x->DiskFor(0, 2), 6);
  EXPECT_EQ(z->DiskFor(0, 0), 7);
  EXPECT_EQ(z->DiskFor(0, 1), 8);
  // Row 4: Z4.1 wraps to disk 0; X4 occupies 8..10; Z4.0 on disk 11.
  EXPECT_EQ(z->DiskFor(4, 1), 0);
  EXPECT_EQ(z->DiskFor(4, 0), 11);
  EXPECT_EQ(x->DiskFor(4, 0), 8);
  EXPECT_EQ(x->DiskFor(4, 2), 10);
  EXPECT_EQ(y->DiskFor(4, 2), 6);
  // Row 8: X8.0 back on disk 0 (figure bottom half).
  EXPECT_EQ(x->DiskFor(8, 0), 0);
  EXPECT_EQ(y->DiskFor(8, 1), 9);
  // Row 12 is row 0 shifted full circle: Y12.0 on disk 0.
  EXPECT_EQ(y->DiskFor(12, 0), 0);
}

TEST(StaggeredLayoutTest, StrideShiftsFirstFragment) {
  // Table 2: stride = distance between X_{i.0} and X_{i+1.0}.
  for (int32_t k = 1; k <= 5; ++k) {
    auto layout = StaggeredLayout::Create(10, 3, k, 2);
    ASSERT_TRUE(layout.ok());
    for (int64_t i = 0; i < 20; ++i) {
      EXPECT_EQ(layout->StripeOf(i + 1).first,
                (layout->StripeOf(i).first + k) % 10);
    }
  }
}

TEST(StaggeredLayoutTest, FragmentsAreAdjacent) {
  auto layout = StaggeredLayout::Create(7, 5, 3, 4);
  ASSERT_TRUE(layout.ok());
  for (int64_t i = 0; i < 14; ++i) {
    for (int32_t j = 1; j < 4; ++j) {
      EXPECT_EQ(layout->DiskFor(i, j), (layout->DiskFor(i, j - 1) + 1) % 7);
    }
  }
}

// Section 3.2.2: k = D places every subobject on the same M disks.
TEST(StaggeredLayoutTest, StrideDPinsObjectToMDisks) {
  auto layout = StaggeredLayout::Create(10, 2, 10, 4);
  ASSERT_TRUE(layout.ok());
  EXPECT_EQ(layout->UniqueDisksUsed(500), 4);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(layout->StripeOf(i).first, 2);
  }
}

// Section 3.2.2: D=100, 100-cylinder object (M=4 -> 25 subobjects):
// k=1 touches 28 disks, k=M touches all 100.
TEST(StaggeredLayoutTest, PaperSpreadExample) {
  EXPECT_EQ(StaggeredLayout::Create(100, 0, 1, 4)->UniqueDisksUsed(25), 28);
  EXPECT_EQ(StaggeredLayout::Create(100, 0, 4, 4)->UniqueDisksUsed(25), 100);
}

TEST(StaggeredLayoutTest, FragmentsPerDiskConservesTotal) {
  for (int32_t k : {1, 2, 3, 5, 7, 10}) {
    auto layout = StaggeredLayout::Create(10, 4, k, 3);
    ASSERT_TRUE(layout.ok());
    auto counts = layout->FragmentsPerDisk(137);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), int64_t{0}),
              137 * 3)
        << "k=" << k;
  }
}

TEST(StaggeredLayoutTest, FragmentsPerDiskMatchesBruteForce) {
  auto layout = StaggeredLayout::Create(12, 5, 8, 3);
  ASSERT_TRUE(layout.ok());
  std::vector<int64_t> brute(12, 0);
  const int64_t n = 100;
  for (int64_t i = 0; i < n; ++i) {
    for (int32_t j = 0; j < 3; ++j) {
      ++brute[static_cast<size_t>(layout->DiskFor(i, j))];
    }
  }
  EXPECT_EQ(layout->FragmentsPerDisk(n), brute);
}

// Layouts of one (D, k) read one stride walk; each adds its own start
// disk, so a shared walk places every fragment where a layout's own
// walk does.  A walk of another (D, k) is refused.
TEST(StaggeredLayoutTest, SharedStrideWalkMatchesOwnWalk) {
  for (int32_t k : {1, 4, 6, 12}) {
    const auto walk = StaggeredLayout::MakeStrideWalk(12, k);
    for (int32_t start : {0, 5, 11}) {
      auto shared = StaggeredLayout::Create(12, start, k, 3, true, walk);
      auto own = StaggeredLayout::Create(12, start, k, 3, true);
      ASSERT_TRUE(shared.ok() && own.ok());
      for (int64_t i = 0; i < 30; ++i) {
        EXPECT_EQ(shared->StripeOf(i), own->StripeOf(i))
            << "k=" << k << " p=" << start << " row " << i;
      }
    }
  }
  const auto walk = StaggeredLayout::MakeStrideWalk(12, 4);
  EXPECT_FALSE(StaggeredLayout::Create(12, 0, 5, 3, false, walk).ok());
  EXPECT_FALSE(StaggeredLayout::Create(10, 0, 4, 3, false, walk).ok());
  EXPECT_FALSE(StaggeredLayout::Create(12, 0, 12, 3, false, walk).ok());
}

// The paper's GCD rule: gcd(D, k) == 1 guarantees no data skew; with
// gcd > 1 the subobject count must be a multiple of D/gcd.
TEST(StaggeredLayoutTest, GcdSkewRule) {
  // gcd(10, 3) = 1: any length is balanced.
  auto coprime = StaggeredLayout::Create(10, 0, 3, 2);
  for (int64_t n : {7, 23, 100, 101}) {
    EXPECT_TRUE(coprime->IsSkewFree(n)) << n;
  }
  // gcd(10, 5) = 5: only disks in one residue class get data unless n
  // is a multiple of D/gcd = 2 ... but period-2 walks still skip 8 of
  // 10 disks, concentrating load.
  auto skewed = StaggeredLayout::Create(10, 0, 5, 2);
  EXPECT_FALSE(skewed->IsSkewFree(101));
  // gcd(10, 2) = 2, period 5: balanced when n is a multiple of 5.
  auto even = StaggeredLayout::Create(10, 0, 2, 2);
  EXPECT_TRUE(even->IsSkewFree(100));
}

// ---------------------------------------------------------------------
// Parity extension: one parity fragment per subobject stripe on the
// disk after the last data fragment.
// ---------------------------------------------------------------------

TEST(StaggeredLayoutTest, ParityCreateValidates) {
  // M + 1 must fit in D so the parity disk never co-resides with the
  // stripe; a full-width layout can only carry parity on a wider array.
  EXPECT_FALSE(StaggeredLayout::Create(10, 0, 1, 10, /*parity=*/true).ok());
  EXPECT_TRUE(StaggeredLayout::Create(10, 0, 1, 9, /*parity=*/true).ok());
  EXPECT_TRUE(StaggeredLayout::Create(10, 0, 1, 10, /*parity=*/false).ok());
}

TEST(StaggeredLayoutTest, ParityDiskFollowsStripe) {
  auto layout = StaggeredLayout::Create(12, 4, 1, 3, /*parity=*/true);
  ASSERT_TRUE(layout.ok());
  EXPECT_TRUE(layout->has_parity());
  EXPECT_EQ(layout->StripeOf(0).width(), 4);
  for (int64_t i = 0; i < 30; ++i) {
    // (p + i*k + M) mod D: the disk right after the last data fragment.
    EXPECT_EQ(layout->ParityDiskFor(i),
              (layout->DiskFor(i, 2) + 1) % 12);
    // Disjoint from every data fragment of the same stripe.
    for (int32_t j = 0; j < 3; ++j) {
      EXPECT_NE(layout->ParityDiskFor(i), layout->DiskFor(i, j))
          << "stripe " << i << " fragment " << j;
    }
  }
}

// StripeOf(i) is the one answer to "where does row i live": its slots
// match DiskFor / ParityDiskFor and the placement formula, FragmentOn
// inverts Slot on every slot, across (D, k, M, parity) and start disks
// whose rows wrap past slot D - 1.
TEST(StaggeredLayoutTest, StripeOfMatchesDiskForAndInvertsOnEverySlot) {
  int64_t wrapped_rows = 0;
  for (int32_t d = 1; d <= 11; ++d) {
    for (int32_t k = 1; k <= d; ++k) {
      for (int32_t m = 1; m <= d; ++m) {
        for (const bool parity : {false, true}) {
          if (parity && m + 1 > d) continue;
          for (const int32_t p : {0, d / 2, d - 1}) {
            auto layout = StaggeredLayout::Create(d, p, k, m, parity);
            ASSERT_TRUE(layout.ok()) << layout.status();
            for (int64_t i = 0; i < 2 * d + 1; ++i) {
              SCOPED_TRACE("D=" + std::to_string(d) + " k=" +
                           std::to_string(k) + " M=" + std::to_string(m) +
                           " parity=" + std::to_string(parity) + " p=" +
                           std::to_string(p) + " row=" + std::to_string(i));
              const Stripe s = layout->StripeOf(i);
              const int64_t first = (p + i * k) % d;
              ASSERT_EQ(s.num_disks, d);
              ASSERT_EQ(s.first, first);
              ASSERT_EQ(s.degree, m);
              ASSERT_EQ(s.width(), m + (parity ? 1 : 0));
              if (first + s.width() > d) ++wrapped_rows;
              for (int32_t j = 0; j < m; ++j) {
                ASSERT_EQ(s.Slot(j), layout->DiskFor(i, j));
                ASSERT_EQ(s.Slot(j), (first + j) % d);
              }
              if (parity) {
                ASSERT_EQ(s.parity, layout->ParityDiskFor(i));
                ASSERT_EQ(s.Slot(m), (first + m) % d);
              } else {
                ASSERT_EQ(s.parity, -1);
              }
              int32_t members = 0;
              for (int32_t slot = 0; slot < d; ++slot) {
                const int32_t j = s.FragmentOn(slot);
                if (j < 0) continue;
                ++members;
                ASSERT_LT(j, s.width());
                ASSERT_EQ(s.Slot(j), slot);
              }
              ASSERT_EQ(members, s.width());
              for (int32_t j = 0; j < s.width(); ++j) {
                ASSERT_EQ(s.FragmentOn(s.Slot(j)), j);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(wrapped_rows, 0);
}

TEST(StaggeredLayoutTest, StripeKeepsAnExplicitParitySlot) {
  // A stripe built with parity elsewhere than first + M answers with
  // that slot; the slot right after the data is then not a member.
  const Stripe s{/*num_disks=*/10, /*first=*/8, /*degree=*/3, /*parity=*/4};
  EXPECT_EQ(s.width(), 4);
  EXPECT_EQ(s.Slot(0), 8);
  EXPECT_EQ(s.Slot(2), 0);
  EXPECT_EQ(s.Slot(3), 4);
  EXPECT_EQ(s.FragmentOn(4), 3);
  EXPECT_EQ(s.FragmentOn(1), -1);
  EXPECT_EQ(Stripe::At(10, 8, 3, /*has_parity=*/true).parity, 1);
  EXPECT_EQ(Stripe::At(10, 8, 3, /*has_parity=*/false).width(), 3);
}

TEST(StaggeredLayoutTest, ParityCountsInStorageAccounting) {
  // Same object with and without parity: the parity layout stores one
  // extra fragment per stripe, spread by the same gcd-governed walk.
  auto plain = StaggeredLayout::Create(10, 0, 1, 3, /*parity=*/false);
  auto parity = StaggeredLayout::Create(10, 0, 1, 3, /*parity=*/true);
  ASSERT_TRUE(plain.ok() && parity.ok());
  const int64_t n = 40;
  const auto plain_counts = plain->FragmentsPerDisk(n);
  const auto parity_counts = parity->FragmentsPerDisk(n);
  int64_t plain_total = 0, parity_total = 0;
  for (int64_t c : plain_counts) plain_total += c;
  for (int64_t c : parity_counts) parity_total += c;
  EXPECT_EQ(plain_total, n * 3);
  EXPECT_EQ(parity_total, n * 4);
  // The augmented placement is a staggered layout of window M + 1, so
  // with gcd(D, k) = 1 and n a multiple of the period it stays
  // perfectly balanced.
  for (int64_t c : parity_counts) EXPECT_EQ(c, n * 4 / 10);
  EXPECT_TRUE(parity->IsSkewFree(n));
}

TEST(StaggeredLayoutTest, ParityWidensUniqueDiskFootprint) {
  // Section 3.2.2's gcd walk with window M + 1: a narrow object that
  // touches a strict subset of disks gains the parity column.
  auto plain = StaggeredLayout::Create(10, 0, 2, 2, /*parity=*/false);
  auto parity = StaggeredLayout::Create(10, 0, 2, 2, /*parity=*/true);
  ASSERT_TRUE(plain.ok() && parity.ok());
  EXPECT_EQ(plain->UniqueDisksUsed(1), 2);
  EXPECT_EQ(parity->UniqueDisksUsed(1), 3);
  EXPECT_GE(parity->UniqueDisksUsed(5), plain->UniqueDisksUsed(5));
}

}  // namespace
}  // namespace stagger
