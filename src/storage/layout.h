// Placement layouts: where each fragment of an object lives.
//
// Staggered striping (Section 3.2): fragment X_{i.j} of an object whose
// first fragment starts on disk p is placed on disk (p + i*k + j) mod D,
// where k is the system-wide stride.  Setting k = M_X yields simple
// striping (Section 3.1); assigning whole objects to one physical
// cluster yields the virtual-data-replication layout of [GS93]
// (equivalently k = D), which VdrServer addresses by cluster index.
//
// This header also carries the Section 3.2.2 skew analysis: the number
// of distinct disks an object touches and the per-disk fragment-count
// balance, both governed by gcd(D, k).
//
// Parity extension (fault-tolerance layer, src/rebuild/): each
// subobject stripe may carry one parity fragment on the next
// consecutive disk after its data fragments, (p + i*k + M) mod D.
// Stripe::At is the only code that places it (the reference audits in
// core/invariants.cc restate the rule to check it); the scheduler,
// rebuild, scrubber and server ask a Stripe for member slots.  The
// parity disk is disjoint from the stripe whenever M + 1 <= D, and the
// augmented placement is exactly a staggered layout of window M + 1 —
// so mod-D contiguity, stride progression, and the gcd skew bounds all
// carry over unchanged with the wider window.
//
// Storage per disk in closed form (Section 3.2.2).  Let g = gcd(D, k),
// P = D / g and w = M (+1 with parity).  Over one period of P rows the
// window starts are exactly the disks p + m*g, m in [0, P), so disk d
// holds c_u = #{j in [0, w) : j = u mod g} fragments per period, where
// u = (d - p) mod g:
//
//   c_u = (w - 1 - u) / g + 1   for u < min(w, g),   0 otherwise,
//
// i.e. w / g + 1 for u < w % g and w / g for the rest.  An object of
// n = full*P + rest rows stores full*c_u fragments on each disk plus one
// per fragment of its first `rest` rows.  With parity at k = M and M
// dividing D (w = M+1, g = M), residue u = 0 receives 2 fragments per
// period and every other residue 1: the parity skew onto the disks
// d = p (mod M), which therefore fill twice as fast.  ForEachCharge
// enumerates this form; FragmentsPerDisk counts row by row and stays the
// reference the audits and tests compare it with.

#ifndef STAGGER_STORAGE_LAYOUT_H_
#define STAGGER_STORAGE_LAYOUT_H_

#include <algorithm>
#include <compare>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "storage/media_object.h"
#include "util/hot_path.h"
#include "util/result.h"
#include "util/units.h"

namespace stagger {

/// \brief The slots of one subobject's stripe: `degree` data fragments
/// on consecutive slots (mod D) from `first`, plus an optional parity
/// fragment.  Fragment index `degree` denotes parity.
struct Stripe {
  int32_t num_disks = 0;  ///< D
  int32_t first = 0;      ///< slot of data fragment 0
  int32_t degree = 0;     ///< M: data fragments
  int32_t parity = -1;    ///< parity slot, or -1 when the stripe stores none

  /// The stripe of `degree` data fragments from slot `first`, with its
  /// parity on the slot after the last one when `has_parity` (which
  /// requires degree + 1 <= D).
  STAGGER_HOT_PATH static Stripe At(int32_t num_disks, int32_t first,
                                    int32_t degree, bool has_parity) {
    STAGGER_DCHECK(first >= 0 && first < num_disks);
    STAGGER_DCHECK(degree >= 1 && degree + (has_parity ? 1 : 0) <= num_disks);
    int32_t parity = -1;
    if (has_parity) {
      parity = first + degree;
      if (parity >= num_disks) parity -= num_disks;
    }
    return Stripe{num_disks, first, degree, parity};
  }

  /// Fragments stored: M data plus the optional parity.
  int32_t width() const { return degree + (parity >= 0 ? 1 : 0); }

  /// Slot of fragment `j` in [0, width()); j == degree is parity.
  STAGGER_HOT_PATH int32_t Slot(int32_t j) const {
    STAGGER_DCHECK(j >= 0 && j < width());
    if (j == degree) return parity;
    const int32_t slot = first + j;
    return slot >= num_disks ? slot - num_disks : slot;
  }

  /// Inverse of Slot: the fragment stored on `slot`, or -1 when the slot
  /// is not a member.
  int32_t FragmentOn(int32_t slot) const {
    int32_t j = slot - first;
    if (j < 0) j += num_disks;
    if (j < degree) return j;
    return slot == parity ? degree : -1;
  }

  auto operator<=>(const Stripe&) const = default;
};

/// \brief The start-disk walk of stride k over D disks, which every
/// layout of one (D, k) can share; StaggeredLayout::MakeStrideWalk makes
/// it.  With g = gcd(D, k) and P = D / g, the walk from disk 0 visits
/// exactly the P multiples of g.  A layout whose start disk is
/// p = q + starts_[s], q = p mod g, starts row r on disk
/// q + starts_[s + (r mod P)]: no wrap is needed, since every entry is a
/// multiple of g no larger than D - g.
class StrideWalk {
  friend class StaggeredLayout;

  int32_t num_disks_ = 0;
  int32_t stride_ = 0;
  /// (r*k) mod D for r in [0, 2P): the walk twice, so P consecutive
  /// rows read from any offset s < P without wrapping the index.
  std::vector<int32_t> starts_;
  /// row_of_[d / g] is the r in [0, P) with starts_[r] == d, for every
  /// multiple d of g.
  std::vector<int32_t> row_of_;
};

/// \brief Placement of one object under staggered striping.
class StaggeredLayout {
 public:
  /// \param num_disks   D, total disks; >= 1.
  /// \param start_disk  p, the disk holding fragment X_{0.0}.
  /// \param stride      k in [1, D].
  /// \param degree      M_X in [1, D]; with parity, M_X + 1 <= D so the
  ///                    parity disk never co-resides with the stripe.
  /// \param parity      each subobject carries a parity fragment on the
  ///                    disk after its last data fragment.
  /// \param walk        MakeStrideWalk(D, k) to share; null builds the
  ///                    layout its own.
  static Result<StaggeredLayout> Create(
      int32_t num_disks, int32_t start_disk, int32_t stride, int32_t degree,
      bool parity = false, std::shared_ptr<const StrideWalk> walk = nullptr);

  /// The walk of (D, k) for Create to share.  Requires D >= 1 and k in
  /// [1, D].
  static std::shared_ptr<const StrideWalk> MakeStrideWalk(int32_t num_disks,
                                                          int32_t stride);

  int32_t num_disks() const { return num_disks_; }
  int32_t start_disk() const { return start_disk_; }
  int32_t stride() const { return stride_; }
  int32_t degree() const { return degree_; }
  bool has_parity() const { return parity_; }
  /// P = D / gcd(D, k): rows i and i + P share a stripe.
  int32_t period() const { return period_; }

  /// Stripe of subobject i: its data slots from (p + i*k) mod D on,
  /// plus parity when the layout carries it.  The stride walk repeats
  /// with period P = D/gcd(D, k), so the first slot of every subobject
  /// is one load from the shared StrideWalk; the residue i mod P is
  /// taken with a Lemire multiply-shift instead of hardware division.
  STAGGER_HOT_PATH Stripe StripeOf(int64_t subobject) const {
    return Stripe::At(num_disks_, RowStart(subobject), degree_, parity_);
  }

  /// Physical disk holding fragment X_{i.j}.
  STAGGER_HOT_PATH int32_t DiskFor(int64_t subobject, int32_t fragment) const {
    STAGGER_DCHECK(fragment >= 0 && fragment < degree_);
    return StripeOf(subobject).Slot(fragment);
  }

  /// Physical disk holding subobject i's parity fragment.
  /// Precondition: has_parity().
  STAGGER_HOT_PATH int32_t ParityDiskFor(int64_t subobject) const {
    STAGGER_DCHECK(parity_);
    return StripeOf(subobject).parity;
  }

  /// Number of distinct disks touched by an object of `num_subobjects`
  /// stripes (the Section 3.2.2 "28 disks" example).  Includes parity
  /// disks when the layout carries parity.
  int32_t UniqueDisksUsed(int64_t num_subobjects) const;

  /// Fragments stored per disk for an object of `num_subobjects` stripes
  /// (index = physical disk).  Uneven counts == data skew.  Parity
  /// fragments are counted when the layout carries them, so storage
  /// accounting charges the parity overhead automatically.
  std::vector<int64_t> FragmentsPerDisk(int64_t num_subobjects) const;

  /// Calls fn(disk, fragments) for the storage an object of
  /// `num_subobjects` stripes takes, without a per-disk table: the
  /// calls' sums per disk equal FragmentsPerDisk.  Full periods come
  /// first by the closed form in the header comment, one call per disk
  /// they touch, in order from p; then one call per fragment of the
  /// first `rest` rows, so a disk may recur.  The order is fixed, and
  /// the enumeration stops at the first call for which fn returns
  /// false.  Returns the number of calls fn accepted, so a failed
  /// charge can replay exactly that many to undo itself.
  template <typename Fn>
  int64_t ForEachCharge(int64_t num_subobjects, Fn&& fn) const;

  /// True when this (D, k) pair guarantees no data skew for objects that
  /// wrap the array: requires the walk {p + i*k mod D} to visit every
  /// residue class, i.e. gcd(D, k) == 1 — or the subobject count to be a
  /// multiple of D/gcd so the imbalance closes (the paper's GCD rule).
  bool IsSkewFree(int64_t num_subobjects) const;

 private:
  StaggeredLayout(int32_t num_disks, int32_t start_disk, int32_t stride,
                  int32_t degree, bool parity,
                  std::shared_ptr<const StrideWalk> walk);

  /// subobject mod period_, by Lemire's multiply-shift when the value
  /// fits 32 bits (always, in practice).  Requires subobject >= 0.
  STAGGER_HOT_PATH uint32_t ResidueOf(uint64_t subobject) const {
#if defined(__SIZEOF_INT128__)
    __extension__ typedef unsigned __int128 Uint128;
    const uint64_t low = period_magic_ * subobject;
    return static_cast<uint32_t>(
        (static_cast<Uint128>(low) * static_cast<uint64_t>(period_)) >> 64);
#else
    return static_cast<uint32_t>(subobject % static_cast<uint64_t>(period_));
#endif
  }

  /// Disk of X_{i.0}: walk load on the hot path, closed form for
  /// out-of-range subobject indices (negative or >= 2^32).
  STAGGER_HOT_PATH int32_t RowStart(int64_t subobject) const {
    if ((static_cast<uint64_t>(subobject) >> 32) == 0) {
      return start_residue_ +
             row_first_[ResidueOf(static_cast<uint64_t>(subobject))];
    }
    return static_cast<int32_t>(
        PositiveMod(start_disk_ + subobject * stride_, num_disks_));
  }

  int32_t num_disks_;
  int32_t start_disk_;
  int32_t stride_;
  int32_t degree_;
  bool parity_;
  /// D / gcd(D, k): distinct start disks of the stride walk.
  int32_t period_ = 1;
  /// ceil(2^64 / period_), the Lemire fastmod constant (0 when
  /// period_ == 1, which makes every residue 0).
  uint64_t period_magic_ = 0;
  /// p mod gcd(D, k): row r starts on start_residue_ + row_first_[r mod P].
  int32_t start_residue_ = 0;
  /// walk_->starts_ from the row of p - start_residue_ on; walk_ keeps
  /// it alive.
  const int32_t* row_first_ = nullptr;
  /// The (D, k) walk, shared by copies and by the layouts made from one
  /// MakeStrideWalk.
  std::shared_ptr<const StrideWalk> walk_;
};

template <typename Fn>
int64_t StaggeredLayout::ForEachCharge(int64_t num_subobjects, Fn&& fn) const {
  const int32_t width = degree_ + (parity_ ? 1 : 0);
  const int32_t g = num_disks_ / period_;
  const int64_t full = num_subobjects / period_;
  const int64_t rest = num_subobjects % period_;
  int64_t done = 0;
  if (full > 0) {
    // Residues u < width % g take `high`, the others `low` (c_u scaled
    // by full); residues >= width take nothing when width < g.
    const int32_t residues = std::min(width, g);
    const int32_t split = width % g;
    const int64_t low = full * (width / g);
    const int64_t high = low + full;
    int32_t base = start_disk_;  // p + m*g, mod D
    for (int32_t m = 0; m < period_; ++m) {
      for (int32_t u = 0; u < residues; ++u) {
        const int32_t disk =
            base + u >= num_disks_ ? base + u - num_disks_ : base + u;
        if (!fn(disk, u < split ? high : low)) return done;
        ++done;
      }
      base += g;
      if (base >= num_disks_) base -= num_disks_;
    }
  }
  for (int64_t i = 0; i < rest; ++i) {
    const Stripe stripe = StripeOf(i);
    for (int32_t j = 0; j < stripe.width(); ++j) {
      if (!fn(stripe.Slot(j), int64_t{1})) return done;
      ++done;
    }
  }
  return done;
}

}  // namespace stagger

#endif  // STAGGER_STORAGE_LAYOUT_H_
