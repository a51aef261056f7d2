// Virtual disks (Section 3.2.1).  "A virtual disk i at time interval t
// is defined as physical disk (i - kt) mod D ... a virtual disk reads
// the same fragment of each subobject and shifts in time with the
// stride of the staggering."
//
// We model occupancy in virtual-disk space: because every stream shifts
// by the same stride k per interval, ownership of a virtual disk is
// time-invariant — two streams that do not collide at admission never
// collide later.  This file provides the frame mapping between virtual
// and physical indices, the modular alignment solver used by admission
// (the earliest interval at which a virtual disk passes over a given
// physical disk), and the occupancy set with its orbit-order mirror, on
// which the admission and coalescing searches are masked word scans.

#ifndef STAGGER_CORE_VIRTUAL_DISK_H_
#define STAGGER_CORE_VIRTUAL_DISK_H_

#include <array>
#include <cstdint>
#include <optional>
#include <utility>

#include "util/bitmap.h"
#include "util/result.h"
#include "util/units.h"

namespace stagger {

/// Extended Euclid: returns g = gcd(a, b) and x, y with a*x + b*y = g.
int64_t ExtendedGcd(int64_t a, int64_t b, int64_t* x, int64_t* y);

/// Modular inverse of a modulo m (m >= 1); NotFound when gcd(a, m) != 1.
Result<int64_t> ModInverse(int64_t a, int64_t m);

class VdiskOccupancy;

/// \brief The rotating frame relating virtual and physical disk indices
/// for a system of `D` disks with stride `k`.
class VirtualDiskFrame {
 public:
  /// \param num_disks  D >= 1.
  /// \param stride     k in [1, D].
  static Result<VirtualDiskFrame> Create(int32_t num_disks, int32_t stride);

  int32_t num_disks() const { return num_disks_; }
  int32_t stride() const { return stride_; }
  /// gcd(D, k); virtual disk v only ever visits physical disks congruent
  /// to v modulo this value.
  int32_t gcd() const { return gcd_; }
  /// Number of intervals after which a virtual disk revisits the same
  /// physical disk: D / gcd(D, k).
  int32_t period() const { return num_disks_ / gcd_; }

  /// Physical disk under virtual disk `v` at interval `t`.
  int32_t PhysicalOf(int32_t v, int64_t t) const {
    return static_cast<int32_t>(
        PositiveMod(static_cast<int64_t>(v) + static_cast<int64_t>(stride_) * t,
                    num_disks_));
  }

  /// Virtual disk over physical disk `p` at interval `t` (the paper's
  /// (i - kt) mod D).
  int32_t VirtualOf(int32_t p, int64_t t) const {
    return static_cast<int32_t>(
        PositiveMod(static_cast<int64_t>(p) - static_cast<int64_t>(stride_) * t,
                    num_disks_));
  }

  /// Smallest delta >= 0 such that virtual disk `v` sits over physical
  /// disk `p` at interval `t + delta`; nullopt when unreachable (p and v
  /// in different residue classes modulo gcd(D, k)).
  std::optional<int64_t> AlignmentDelay(int32_t v, int32_t p, int64_t t) const;

  /// Frame rotation at interval `t`: PhysicalOf(v, t) == v + RotationAt(t)
  /// reduced mod D.  The scheduler hoists this out of its per-lane loop so
  /// the hot path is an add and a compare instead of 64-bit div/mod.
  int32_t RotationAt(int64_t t) const {
    return static_cast<int32_t>(
        PositiveMod(static_cast<int64_t>(stride_) * t, num_disks_));
  }

  // --- orbit order ------------------------------------------------------
  //
  // Write g = gcd(D, k), P = D/g and v = r + g*q with r = v mod g.  The
  // orbit position of v is
  //
  //   OrbitPos(v) = r*P + (q * (k/g)^-1 mod P),
  //
  // a permutation of [0, D) under which a step of +k in virtual-disk
  // space (v + k mod D) is a step of +1 (mod P) inside v's residue
  // block [r*P, r*P + P).  For k = 1 it is the identity, and both
  // directions skip their divisions.

  int32_t OrbitPos(int32_t v) const {
    const auto [block, offset] = OrbitBlockAndOffset(v);
    return block + offset;
  }

  /// {r*P, OrbitPos(v) - r*P}: the first orbit position of v's residue
  /// block and v's offset inside it.
  std::pair<int32_t, int32_t> OrbitBlockAndOffset(int32_t v) const {
    if (stride_ == 1) return {0, v};
    const int32_t p = period();
    const int64_t q = v / gcd_;
    return {v % gcd_ * p, static_cast<int32_t>(q * stride_inverse_ % p)};
  }

  /// Inverse of OrbitPos.
  int32_t VdiskAtOrbit(int32_t pos) const {
    if (stride_ == 1) return pos;
    const int32_t p = period();
    const int32_t r = pos / p;
    const int64_t i = pos - r * p;
    return r + gcd_ * static_cast<int32_t>(i * (stride_ / gcd_) % p);
  }

  // --- occupancy searches (O(active work) scheduler tick) ---------------
  //
  // Exactly one virtual disk aligns with a given physical disk at each
  // delay: v_delta = (target - k*(t + delta)) mod D, and v_delta repeats
  // with period P.  Successive delays step v by -k, i.e. by -1 in orbit
  // order, so the candidates for a range of delays are one modular range
  // of a residue block: each search is a single masked find-first- or
  // find-last-clear over O(range/64) words of the orbit-order bitmap,
  // instead of solving AlignmentDelay for all D virtual disks.

  /// Free (not occupied, not in `taken`) virtual disk with the smallest
  /// alignment delay onto physical disk `target` at/after interval `t`,
  /// considering delays in [skip_zero ? 1 : 0, max_delay].  `taken` is
  /// in orbit order.  Returns {vdisk, delay} or nullopt.  Equivalent to
  /// minimizing AlignmentDelay over all free virtual disks (Algorithm-1
  /// fragmented admission).
  std::optional<std::pair<int32_t, int64_t>> FindEarliestFreeVdisk(
      const VdiskOccupancy& occupied, const Bitmap& taken, int64_t t,
      int32_t target, int64_t max_delay, bool skip_zero) const;

  /// Free virtual disk whose latest alignment onto `target` no later
  /// than stream-local interval `max_resume` is largest: resume = tau +
  /// AlignmentDelay + c*period maximized subject to resume <= max_resume.
  /// Returns {vdisk, resume} or nullopt (Algorithm-2 coalescing search).
  std::optional<std::pair<int32_t, int64_t>> FindLatestFreeVdisk(
      const VdiskOccupancy& occupied, int64_t t, int32_t target, int64_t tau,
      int64_t max_resume) const;

 private:
  VirtualDiskFrame(int32_t num_disks, int32_t stride, int32_t gcd,
                   int64_t stride_inverse)
      : num_disks_(num_disks), stride_(stride), gcd_(gcd),
        stride_inverse_(stride_inverse) {}

  int32_t num_disks_;
  int32_t stride_;
  int32_t gcd_;
  /// Inverse of (k / g) modulo (D / g), precomputed.
  int64_t stride_inverse_;
};

/// \brief The scheduler's set of occupied virtual disks, held in two
/// views that always agree bit for bit: vdisk order, for contiguous
/// admission's window test, and orbit order (VirtualDiskFrame::OrbitPos),
/// for the Algorithm 1-2 searches.
///
/// It also logs the frees.  A search that failed can succeed later only
/// once a virtual disk it looked at is freed (taking a disk only removes
/// candidates), so a failed search records the free count and the
/// window of virtual disks it depends on, and asks FreedSince before it
/// runs again.
class VdiskOccupancy {
 public:
  /// Frees remembered by the log; an older one reads as "freed".
  static constexpr int32_t kFreeLog = 64;

  explicit VdiskOccupancy(const VirtualDiskFrame& frame)
      : frame_(frame), by_vdisk_(frame.num_disks()),
        by_orbit_(frame.num_disks()) {}

  bool Test(int32_t v) const { return by_vdisk_.Test(v); }
  void Set(int32_t v) {
    by_vdisk_.Set(v);
    by_orbit_.Set(frame_.OrbitPos(v));
  }
  void Clear(int32_t v) {
    by_vdisk_.Clear(v);
    by_orbit_.Clear(frame_.OrbitPos(v));
    freed_[static_cast<uint64_t>(frees_) % kFreeLog] = v;
    ++frees_;
  }

  /// True when no virtual disk in [start, start + len) (mod D) is
  /// occupied.
  bool WindowClear(int32_t start, int32_t len) const {
    return by_vdisk_.WindowClear(start, len);
  }
  int32_t CountSet() const { return by_vdisk_.CountSet(); }

  const VirtualDiskFrame& frame() const { return frame_; }
  const Bitmap& by_vdisk() const { return by_vdisk_; }
  const Bitmap& by_orbit() const { return by_orbit_; }

  /// Virtual disks freed so far.
  int64_t frees() const { return frees_; }
  /// True when a virtual disk of the window [first, first + len)
  /// (mod D, vdisk order; len >= D is every disk) was freed after the
  /// free count read `since`, or when more than kFreeLog frees followed
  /// it and the log no longer tells.
  bool FreedSince(int64_t since, int32_t first, int32_t len) const {
    if (frees_ - since > kFreeLog) return true;
    const int32_t d = frame_.num_disks();
    for (int64_t i = since; i < frees_; ++i) {
      int32_t offset = freed_[static_cast<uint64_t>(i) % kFreeLog] - first;
      if (offset < 0) offset += d;
      if (offset < len) return true;
    }
    return false;
  }

 private:
  VirtualDiskFrame frame_;
  Bitmap by_vdisk_;
  Bitmap by_orbit_;
  int64_t frees_ = 0;
  /// The last kFreeLog frees: free i is freed_[i % kFreeLog].
  std::array<int32_t, kFreeLog> freed_{};
};

}  // namespace stagger

#endif  // STAGGER_CORE_VIRTUAL_DISK_H_
