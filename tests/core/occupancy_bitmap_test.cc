// Property tests for the O(active-work) occupancy machinery: the
// word-masked Bitmap window queries and ring scans, the orbit-order
// permutation, and the virtual-disk searches (one masked scan of the
// orbit-order occupancy each) must agree exactly with brute-force O(D)
// references, across many seeds and (D, M, k) shapes — including
// wrap-around windows and non-coprime strides (gcd(D, k) > 1).

#include "util/bitmap.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/virtual_disk.h"
#include "util/rng.h"

namespace stagger {
namespace {

// ---------------------------------------------------------------------
// Bitmap unit tests.

TEST(BitmapTest, SetTestClear) {
  Bitmap b(130);  // spans three words
  EXPECT_EQ(b.size(), 130);
  EXPECT_EQ(b.CountSet(), 0);
  for (int32_t i : {0, 63, 64, 127, 128, 129}) {
    EXPECT_FALSE(b.Test(i));
    b.Set(i);
    EXPECT_TRUE(b.Test(i));
  }
  EXPECT_EQ(b.CountSet(), 6);
  b.Clear(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.CountSet(), 5);
  b.ClearAll();
  EXPECT_EQ(b.CountSet(), 0);
  EXPECT_FALSE(b.Test(0));
}

TEST(BitmapTest, ResizeClears) {
  Bitmap b(64);
  b.Set(10);
  b.Resize(100);
  EXPECT_EQ(b.size(), 100);
  EXPECT_EQ(b.CountSet(), 0);
}

TEST(BitmapTest, ForEachSetVisitsAscending) {
  Bitmap b(200);
  const std::vector<int32_t> bits = {0, 1, 63, 64, 65, 126, 128, 199};
  // Insert in scrambled order; iteration must still ascend.
  for (int32_t i : {128, 0, 65, 199, 63, 1, 126, 64}) b.Set(i);
  std::vector<int32_t> seen;
  b.ForEachSet([&](int32_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits);
}

TEST(BitmapTest, WindowClearBasics) {
  Bitmap b(100);
  EXPECT_TRUE(b.WindowClear(0, 100));  // empty map: everything clear
  EXPECT_TRUE(b.WindowClear(42, 0));   // zero-length window
  b.Set(70);
  EXPECT_FALSE(b.WindowClear(0, 100));
  EXPECT_TRUE(b.WindowClear(0, 70));
  EXPECT_FALSE(b.WindowClear(0, 71));
  EXPECT_TRUE(b.WindowClear(71, 29));
  // Wrap-around: [95, 5) crosses the boundary but misses bit 70...
  EXPECT_TRUE(b.WindowClear(95, 10));
  // ...while [60, 15) covers it.
  EXPECT_FALSE(b.WindowClear(60, 15));
  b.Clear(70);
  b.Set(2);
  EXPECT_FALSE(b.WindowClear(95, 10));  // wrap catches the low bit
}

TEST(BitmapTest, SetRangeAndSetWindow) {
  Bitmap b(100);
  b.SetRange(10, 10);  // empty range is a no-op
  EXPECT_EQ(b.CountSet(), 0);
  b.SetRange(60, 70);  // straddles the word boundary
  EXPECT_EQ(b.CountSet(), 10);
  EXPECT_FALSE(b.Test(59));
  EXPECT_TRUE(b.Test(60));
  EXPECT_TRUE(b.Test(69));
  EXPECT_FALSE(b.Test(70));
  b.ClearAll();
  b.SetWindow(95, 10);  // wraps: bits 95..99 and 0..4
  EXPECT_EQ(b.CountSet(), 10);
  EXPECT_TRUE(b.Test(99));
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(4));
  EXPECT_FALSE(b.Test(5));
  EXPECT_FALSE(b.Test(94));
}

TEST(BitmapPropertyTest, SetWindowMatchesNaive) {
  const int32_t sizes[] = {1, 7, 63, 64, 65, 100, 128, 200, 1000};
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed + 1);
    for (int32_t size : sizes) {
      const int32_t start =
          static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(size)));
      const int32_t len = static_cast<int32_t>(
          rng.NextBounded(static_cast<uint64_t>(size) + 1));
      Bitmap fast(size);
      fast.SetWindow(start, len);
      Bitmap naive(size);
      for (int32_t i = 0; i < len; ++i) naive.Set((start + i) % size);
      EXPECT_EQ(fast.CountSet(), naive.CountSet())
          << "seed=" << seed << " size=" << size << " start=" << start
          << " len=" << len;
      for (int32_t i = 0; i < size; ++i) {
        ASSERT_EQ(fast.Test(i), naive.Test(i))
            << "seed=" << seed << " size=" << size << " start=" << start
            << " len=" << len << " bit=" << i;
      }
    }
  }
}

// Reference for WindowClear: test bits one by one.
bool WindowClearNaive(const Bitmap& b, int32_t start, int32_t len) {
  for (int32_t i = 0; i < len; ++i) {
    if (b.Test((start + i) % b.size())) return false;
  }
  return true;
}

TEST(BitmapPropertyTest, WindowClearMatchesNaive) {
  const int32_t sizes[] = {1, 7, 63, 64, 65, 100, 128, 200, 1000};
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed + 1);
    for (int32_t size : sizes) {
      Bitmap b(size);
      // Sparse to mid-density occupancy, like a partly loaded farm.
      const double density = rng.NextDouble() * 0.5;
      for (int32_t i = 0; i < size; ++i) {
        if (rng.NextBool(density)) b.Set(i);
      }
      for (int32_t probe = 0; probe < 20; ++probe) {
        const int32_t start =
            static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(size)));
        const int32_t len = static_cast<int32_t>(
            rng.NextBounded(static_cast<uint64_t>(size) + 1));
        EXPECT_EQ(b.WindowClear(start, len), WindowClearNaive(b, start, len))
            << "seed=" << seed << " size=" << size << " start=" << start
            << " len=" << len;
      }
    }
  }
}

// Reference for the ring scans: offsets 0, 1, ..., len - 1 in order,
// testing both bitmaps bit by bit.
int32_t FirstClearInRingNaive(const Bitmap& a, const Bitmap& b, int32_t base,
                              int32_t n, int32_t start, int32_t len) {
  for (int32_t i = 0; i < len; ++i) {
    const int32_t bit = base + (start + i) % n;
    if (!a.Test(bit) && !b.Test(bit)) return i;
  }
  return -1;
}

int32_t LastClearInRingNaive(const Bitmap& a, const Bitmap& b, int32_t base,
                             int32_t n, int32_t start, int32_t len) {
  for (int32_t i = len - 1; i >= 0; --i) {
    const int32_t bit = base + (start + i) % n;
    if (!a.Test(bit) && !b.Test(bit)) return i;
  }
  return -1;
}

TEST(BitmapTest, RingScanEdgeCases) {
  Bitmap a(200);
  Bitmap b(200);
  // Empty range: nothing to find, even over an all-clear ring.
  EXPECT_EQ(a.FirstClearInRing(b, 10, 100, 5, 0), -1);
  EXPECT_EQ(a.LastClearInRing(b, 10, 100, 5, 0), -1);
  // Ranges inside a ring [50, 150) that straddles words; bits 60..67
  // are set in `a` and bit 68 in `b`.
  a.SetRange(60, 68);
  b.Set(68);
  EXPECT_EQ(a.FirstClearInRing(b, 50, 100, 10, 20), 9);   // bit 69
  EXPECT_EQ(a.LastClearInRing(b, 50, 100, 10, 20), 19);   // bit 79
  EXPECT_EQ(a.FirstClearInRing(b, 50, 100, 14, 5), -1);   // 64..68, one word
  EXPECT_EQ(a.LastClearInRing(b, 50, 100, 14, 5), -1);
  EXPECT_EQ(a.LastClearInRing(b, 50, 100, 0, 15), 9);     // bit 59
  EXPECT_EQ(a.FirstClearInRing(a, 50, 100, 10, 9), 8);    // `a` alone: 68
  // Wrap-around: start at ring offset 95 of [50, 150), wrapping to 50.
  a.ClearAll();
  b.ClearAll();
  a.SetRange(145, 150);
  b.SetRange(50, 52);
  EXPECT_EQ(a.FirstClearInRing(b, 50, 100, 95, 10), 7);  // bit 52
  EXPECT_EQ(a.LastClearInRing(b, 50, 100, 95, 10), 9);   // bit 54
  EXPECT_EQ(a.LastClearInRing(b, 50, 100, 95, 7), -1);   // 145..149, 50..51
  // Full ring of one bit.
  Bitmap one(1);
  EXPECT_EQ(one.FirstClearInRing(one, 0, 1, 0, 1), 0);
  one.Set(0);
  EXPECT_EQ(one.LastClearInRing(one, 0, 1, 0, 1), -1);
}

TEST(BitmapPropertyTest, RingScansMatchNaive) {
  const int32_t sizes[] = {1, 7, 63, 64, 65, 100, 128, 200, 1000};
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 31 + 5);
    for (int32_t size : sizes) {
      Bitmap a(size);
      Bitmap b(size);
      // From empty to nearly full, so both the hit and the -1 paths run.
      const double density = rng.NextDouble() * 0.99;
      for (int32_t i = 0; i < size; ++i) {
        if (rng.NextBool(density)) a.Set(i);
        if (rng.NextBool(density / 4)) b.Set(i);
      }
      for (int32_t probe = 0; probe < 20; ++probe) {
        // A random ring [base, base + n) inside the bitmap; every fourth
        // probe is the whole bitmap, and short lengths keep single-word
        // and empty ranges common.
        const int32_t n =
            probe % 4 == 0 ? size
                           : static_cast<int32_t>(1 + rng.NextBounded(
                                                          static_cast<uint64_t>(size)));
        const int32_t base = static_cast<int32_t>(
            rng.NextBounded(static_cast<uint64_t>(size - n) + 1));
        const int32_t start =
            static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(n)));
        const int32_t len =
            probe % 2 == 0
                ? static_cast<int32_t>(rng.NextBounded(
                      static_cast<uint64_t>(std::min(n, 17)) + 1))
                : static_cast<int32_t>(
                      rng.NextBounded(static_cast<uint64_t>(n) + 1));
        ASSERT_EQ(a.FirstClearInRing(b, base, n, start, len),
                  FirstClearInRingNaive(a, b, base, n, start, len))
            << "seed=" << seed << " size=" << size << " base=" << base
            << " n=" << n << " start=" << start << " len=" << len;
        ASSERT_EQ(a.LastClearInRing(b, base, n, start, len),
                  LastClearInRingNaive(a, b, base, n, start, len))
            << "seed=" << seed << " size=" << size << " base=" << base
            << " n=" << n << " start=" << start << " len=" << len;
        ASSERT_EQ(a.FirstClearInRing(a, base, n, start, len),
                  FirstClearInRingNaive(a, a, base, n, start, len))
            << "seed=" << seed << " size=" << size << " base=" << base
            << " n=" << n << " start=" << start << " len=" << len;
      }
    }
  }
}

// ---------------------------------------------------------------------
// Virtual-disk search property tests.  The searches scan the orbit-order
// occupancy with one masked word scan each; the references below
// minimize/maximize over all D virtual disks with AlignmentDelay, the
// way the pre-optimization scheduler did.

struct Shape {
  int32_t d;  ///< disks
  int32_t k;  ///< stride
};

// Mixes coprime, divisor, and shared-factor strides (P = D/gcd varies);
// {1000, 1} is the coalescing benchmark's shape, and {720, 84} packs
// g = 12 residue blocks of P = 60 disks.
constexpr Shape kShapes[] = {{10, 1},    {10, 4},    {12, 8},     {13, 5},
                             {64, 16},   {100, 7},   {100, 30},   {101, 101},
                             {128, 6},   {1000, 5},  {1000, 48},  {1000, 999},
                             {1000, 1},  {720, 84}};

// The scheduler's view of a vdisk-order set: both occupancy views, or
// the orbit-order copy fragmented admission keeps for its taken set.
VdiskOccupancy OccupancyOf(const VirtualDiskFrame& frame, const Bitmap& set) {
  VdiskOccupancy occupancy(frame);
  set.ForEachSet([&](int32_t v) { occupancy.Set(v); });
  return occupancy;
}

Bitmap OrbitOrderOf(const VirtualDiskFrame& frame, const Bitmap& set) {
  Bitmap orbit(set.size());
  set.ForEachSet([&](int32_t v) { orbit.Set(frame.OrbitPos(v)); });
  return orbit;
}

TEST(OrbitOrderTest, PermutationTurnsStrideStepsIntoUnitSteps) {
  for (const Shape& shape : kShapes) {
    auto frame = VirtualDiskFrame::Create(shape.d, shape.k);
    ASSERT_TRUE(frame.ok());
    const int32_t p = frame->period();
    std::vector<bool> hit(static_cast<size_t>(shape.d), false);
    for (int32_t v = 0; v < shape.d; ++v) {
      const int32_t pos = frame->OrbitPos(v);
      ASSERT_GE(pos, 0);
      ASSERT_LT(pos, shape.d);
      ASSERT_FALSE(hit[static_cast<size_t>(pos)])
          << "D=" << shape.d << " k=" << shape.k << " v=" << v;
      hit[static_cast<size_t>(pos)] = true;
      ASSERT_EQ(frame->VdiskAtOrbit(pos), v);
      // v + k stays in v's residue block, one position further (mod P).
      const int32_t next = frame->OrbitPos((v + shape.k) % shape.d);
      ASSERT_EQ(next / p, pos / p);
      ASSERT_EQ(next % p, (pos % p + 1) % p)
          << "D=" << shape.d << " k=" << shape.k << " v=" << v;
    }
    if (shape.k == 1) {
      for (int32_t v = 0; v < shape.d; ++v) ASSERT_EQ(frame->OrbitPos(v), v);
    }
  }
}

TEST(VdiskOccupancyTest, ViewsAgreeThroughSetAndClear) {
  auto frame = VirtualDiskFrame::Create(720, 84);
  ASSERT_TRUE(frame.ok());
  VdiskOccupancy occupancy(*frame);
  Rng rng(3);
  for (int step = 0; step < 2000; ++step) {
    const int32_t v = static_cast<int32_t>(rng.NextBounded(720));
    if (rng.NextBool(0.6)) {
      occupancy.Set(v);
    } else {
      occupancy.Clear(v);
    }
  }
  EXPECT_GT(occupancy.CountSet(), 0);
  EXPECT_EQ(occupancy.by_orbit().CountSet(), occupancy.CountSet());
  for (int32_t v = 0; v < 720; ++v) {
    ASSERT_EQ(occupancy.by_orbit().Test(frame->OrbitPos(v)), occupancy.Test(v));
  }
  EXPECT_EQ(occupancy.WindowClear(0, 720), occupancy.CountSet() == 0);
}

std::optional<std::pair<int32_t, int64_t>> EarliestFreeNaive(
    const VirtualDiskFrame& frame, const Bitmap& occupied, const Bitmap& taken,
    int64_t t, int32_t target, int64_t max_delay, bool skip_zero) {
  std::optional<std::pair<int32_t, int64_t>> best;
  for (int32_t v = 0; v < frame.num_disks(); ++v) {
    if (occupied.Test(v) || taken.Test(v)) continue;
    const auto delay = frame.AlignmentDelay(v, target, t);
    if (!delay.has_value()) continue;
    const int64_t d = *delay;
    // skip_zero excludes the currently-aligned virtual disk outright:
    // the search never revisits it one period later.
    if (skip_zero && d == 0) continue;
    if (d > max_delay) continue;
    if (!best.has_value() || d < best->second) best = {v, d};
  }
  return best;
}

std::optional<std::pair<int32_t, int64_t>> LatestFreeNaive(
    const VirtualDiskFrame& frame, const Bitmap& occupied, int64_t t,
    int32_t target, int64_t tau, int64_t max_resume) {
  std::optional<std::pair<int32_t, int64_t>> best;
  for (int32_t v = 0; v < frame.num_disks(); ++v) {
    if (occupied.Test(v)) continue;
    const auto delay = frame.AlignmentDelay(v, target, t);
    if (!delay.has_value()) continue;
    int64_t resume = tau + *delay;
    if (resume > max_resume) continue;
    // Later alignments of the same virtual disk, in whole periods.
    resume += ((max_resume - resume) / frame.period()) * frame.period();
    if (!best.has_value() || resume > best->second) best = {v, resume};
  }
  return best;
}

TEST(VirtualDiskSearchPropertyTest, EarliestFreeMatchesNaive) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 977 + 13);
    for (const Shape& shape : kShapes) {
      auto frame = VirtualDiskFrame::Create(shape.d, shape.k);
      ASSERT_TRUE(frame.ok());
      Bitmap occupied(shape.d);
      Bitmap taken(shape.d);
      const double density = rng.NextDouble() * 0.9;
      for (int32_t v = 0; v < shape.d; ++v) {
        if (rng.NextBool(density)) occupied.Set(v);
        if (rng.NextBool(0.1)) taken.Set(v);
      }
      const int64_t t = rng.NextInRange(0, 10000);
      const int32_t target =
          static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(shape.d)));
      const int64_t max_delay = rng.NextInRange(0, 2 * frame->period());
      const bool skip_zero = rng.NextBool(0.5);

      const auto got = frame->FindEarliestFreeVdisk(
          OccupancyOf(*frame, occupied), OrbitOrderOf(*frame, taken), t,
          target, max_delay, skip_zero);
      const auto want = EarliestFreeNaive(*frame, occupied, taken, t, target,
                                          max_delay, skip_zero);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "seed=" << seed << " D=" << shape.d << " k=" << shape.k;
      if (got.has_value()) {
        EXPECT_EQ(got->first, want->first);
        EXPECT_EQ(got->second, want->second);
      }
    }
  }
}

TEST(VirtualDiskSearchPropertyTest, LatestFreeMatchesNaive) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 131 + 7);
    for (const Shape& shape : kShapes) {
      auto frame = VirtualDiskFrame::Create(shape.d, shape.k);
      ASSERT_TRUE(frame.ok());
      Bitmap occupied(shape.d);
      const double density = rng.NextDouble() * 0.9;
      for (int32_t v = 0; v < shape.d; ++v) {
        if (rng.NextBool(density)) occupied.Set(v);
      }
      const int64_t t = rng.NextInRange(0, 10000);
      const int32_t target =
          static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(shape.d)));
      const int64_t tau = rng.NextInRange(0, 500);
      // Below, at, and beyond tau + P, to cover the overshoot-reject arm.
      const int64_t max_resume = tau + rng.NextInRange(-2, 3 * frame->period());

      const auto got = frame->FindLatestFreeVdisk(
          OccupancyOf(*frame, occupied), t, target, tau, max_resume);
      const auto want =
          LatestFreeNaive(*frame, occupied, t, target, tau, max_resume);
      ASSERT_EQ(got.has_value(), want.has_value())
          << "seed=" << seed << " D=" << shape.d << " k=" << shape.k
          << " tau=" << tau << " max_resume=" << max_resume;
      if (got.has_value()) {
        EXPECT_EQ(got->first, want->first);
        EXPECT_EQ(got->second, want->second);
      }
    }
  }
}

// The scheduler's regime: occupancy up to 99% and search windows no
// wider than the 16-interval fragmented lookahead, so most windows hold
// no free candidate and the searches' exhausted-window nullopt path is
// checked against the references as often as the hit path.
TEST(VirtualDiskSearchPropertyTest, DenseLookaheadWindowsMatchNaive) {
  constexpr int64_t kLookahead = 16;
  int64_t earliest_misses = 0;
  int64_t latest_misses = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed * 613 + 29);
    for (const Shape& shape : kShapes) {
      auto frame = VirtualDiskFrame::Create(shape.d, shape.k);
      ASSERT_TRUE(frame.ok());
      Bitmap occupied(shape.d);
      Bitmap taken(shape.d);
      const double density = 0.8 + rng.NextDouble() * 0.19;
      for (int32_t v = 0; v < shape.d; ++v) {
        if (rng.NextBool(density)) occupied.Set(v);
        if (rng.NextBool(0.05)) taken.Set(v);
      }
      const VdiskOccupancy occupancy = OccupancyOf(*frame, occupied);
      const Bitmap taken_orbit = OrbitOrderOf(*frame, taken);
      for (int probe = 0; probe < 8; ++probe) {
        const int64_t t = rng.NextInRange(0, 10000);
        const int32_t target = static_cast<int32_t>(
            rng.NextBounded(static_cast<uint64_t>(shape.d)));

        const int64_t max_delay = rng.NextInRange(0, kLookahead);
        const bool skip_zero = rng.NextBool(0.5);
        const auto got_e = frame->FindEarliestFreeVdisk(
            occupancy, taken_orbit, t, target, max_delay, skip_zero);
        const auto want_e = EarliestFreeNaive(*frame, occupied, taken, t,
                                              target, max_delay, skip_zero);
        ASSERT_EQ(got_e, want_e)
            << "seed=" << seed << " D=" << shape.d << " k=" << shape.k
            << " t=" << t << " target=" << target
            << " max_delay=" << max_delay << " skip_zero=" << skip_zero;
        if (!want_e.has_value()) ++earliest_misses;

        const int64_t tau = rng.NextInRange(0, 500);
        const int64_t max_resume = tau + rng.NextInRange(-1, kLookahead);
        const auto got_l =
            frame->FindLatestFreeVdisk(occupancy, t, target, tau, max_resume);
        const auto want_l =
            LatestFreeNaive(*frame, occupied, t, target, tau, max_resume);
        ASSERT_EQ(got_l, want_l)
            << "seed=" << seed << " D=" << shape.d << " k=" << shape.k
            << " t=" << t << " target=" << target << " tau=" << tau
            << " max_resume=" << max_resume;
        if (!want_l.has_value()) ++latest_misses;
      }
    }
  }
  EXPECT_GT(earliest_misses, 100);
  EXPECT_GT(latest_misses, 100);
}

// Full-occupancy and empty-occupancy edges for both searches.
TEST(VirtualDiskSearchTest, DegenerateOccupancies) {
  auto frame = VirtualDiskFrame::Create(100, 7);
  ASSERT_TRUE(frame.ok());
  const VdiskOccupancy none(*frame);
  VdiskOccupancy all(*frame);
  for (int32_t v = 0; v < 100; ++v) all.Set(v);
  const Bitmap no_taken(100);

  EXPECT_FALSE(
      frame->FindEarliestFreeVdisk(all, no_taken, 3, 42, 1000, false).has_value());
  EXPECT_FALSE(frame->FindLatestFreeVdisk(all, 3, 42, 0, 1000).has_value());

  // Empty map, delta 0 allowed: the aligned disk itself wins.
  const auto earliest =
      frame->FindEarliestFreeVdisk(none, no_taken, 3, 42, 1000, false);
  ASSERT_TRUE(earliest.has_value());
  EXPECT_EQ(earliest->second, 0);
  EXPECT_EQ(frame->PhysicalOf(earliest->first, 3), 42);

  // Empty map: the latest resume is exactly max_resume.
  const auto latest = frame->FindLatestFreeVdisk(none, 3, 42, 5, 500);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->second, 500);
}

}  // namespace
}  // namespace stagger
