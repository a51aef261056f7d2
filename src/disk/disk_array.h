// The farm of D disks.  Provides modular-adjacent idle-run queries used
// by staggered-striping admission, aggregate capacity accounting, and
// utilization reporting.
//
// Hot spares (fault-tolerance layer, src/rebuild/): the array may be
// created with S spare drives beyond the D addressable slots.  Layouts
// and schedulers address *slots*, and slot i is always drive index i.
// Promoting a spare swaps it into the failed slot's index — the drive
// object and its busy bit — so the dead drive moves to the spare's
// index, which no slot reaches.  No fragment is renamed, so a rebuilt
// array is bit-identical to the pre-failure placement in slot space —
// the invariant the rebuild subsystem audits.
//
// Per-interval cost: busy state is a drive-indexed bitmap owned by the
// array.  Its first D bits are the slots' busy bits, so reserving a
// slot is one L1-resident bitmap store with no division (ReserveSlot),
// a run of adjacent slots a couple of masked word-ORs (ReserveRun), and
// a whole rotated set of virtual disks one word pass (ReserveRotated).
// Closing an interval adds the popcount of the slot words to one running
// count of busy slot-intervals and clears the bitmap, O((D + S)/64)
// words.  Slot availability is mirrored in a bitmap so
// AvailableCount()/UnavailableCount() are O(1) — the scheduler's
// healthy-path test per tick — and the idle-and-available queries
// (FirstIdleAvailableSlot, IdleAvailableCount) are word scans over
// unavailable | busy, O(D/64).
//
// Utilization is one figure, the mean over the D slots
// (MeanUtilization): the running count of busy slot-intervals over
// D x intervals().  Spare bits (index >= D) are never counted, so a
// spare's writes before its promotion leave the count alone; a write
// made in the promoting interval counts once, as the slot's.

#ifndef STAGGER_DISK_DISK_ARRAY_H_
#define STAGGER_DISK_DISK_ARRAY_H_

#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "disk/disk.h"
#include "disk/disk_parameters.h"
#include "disk/latent_errors.h"
#include "util/bitmap.h"
#include "util/hot_path.h"
#include "util/result.h"

namespace stagger {

/// \brief A homogeneous array of `D` simulated disks plus an optional
/// pool of hot-spare drives.
class DiskArray {
 public:
  /// \param num_disks  D; must be >= 1.
  /// \param params     drive model shared by all disks (and spares).
  /// \param num_spares hot spares beyond the D slots; >= 0.
  static Result<DiskArray> Create(int32_t num_disks, const DiskParameters& params,
                                  int32_t num_spares = 0);

  int32_t num_disks() const { return num_slots_; }
  const DiskParameters& params() const { return params_; }

  Disk& disk(DiskId id) { return drives_[static_cast<size_t>(Wrap(id))]; }
  const Disk& disk(DiskId id) const {
    return drives_[static_cast<size_t>(Wrap(id))];
  }

  /// Maps any integer onto a valid disk id (modulo D).
  DiskId Wrap(int64_t id) const {
    return static_cast<DiskId>(PositiveMod(id, num_disks()));
  }

  // --- per-interval bandwidth (scheduler hot path) ----------------------
  //
  // Slot-addressed: `slot` must already be in [0, D) — the scheduler
  // computes physical disks with a conditional subtract, so no modulo
  // runs here.  Drive-addressed variants serve the spare pool (rebuild
  // writes), whose drive indices come from AcquireSpare; a slot's drive
  // index is the slot itself.

  /// True when `slot`'s drive is transferring this interval.
  STAGGER_HOT_PATH bool SlotBusy(DiskId slot) const {
    STAGGER_DCHECK(slot >= 0 && slot < num_slots_);
    return busy_drives_.Test(slot);
  }

  /// Marks `slot`'s drive busy for the current interval.
  /// Preconditions: currently idle, and IsAvailable(slot) — the
  /// scheduler must never place load on a failed or stalled disk.
  STAGGER_HOT_PATH void ReserveSlot(DiskId slot) {
    STAGGER_DCHECK(slot >= 0 && slot < num_slots_);
    ReserveDrive(slot);
  }

  /// True when physical drive `drive` is transferring this interval.
  STAGGER_HOT_PATH bool DriveBusy(int32_t drive) const { return busy_drives_.Test(drive); }

  /// Marks physical drive `drive` busy for the current interval; same
  /// preconditions as ReserveSlot.  The busy count is taken at
  /// EndInterval, so the hot path is a single bitmap store.
  STAGGER_HOT_PATH void ReserveDrive(int32_t drive) {
    STAGGER_DCHECK(!busy_drives_.Test(drive))
        << "drive " << drive << " reserved twice in one interval";
    STAGGER_DCHECK(drives_[static_cast<size_t>(drive)].available())
        << "drive " << drive << " reserved while failed or stalled";
    busy_drives_.Set(drive);
  }

  /// Intervals closed so far.
  int64_t intervals() const { return clock_->intervals; }

  /// Reserves the adjacent run [start, start+len) (mod D).
  /// Precondition: every slot of the run idle and available.
  ///
  /// The run is a contiguous bit range in the busy bitmap (split at the
  /// wrap), so the whole reservation is a couple of masked word-ORs —
  /// the scheduler reserves the run of adjacent disks of each lane it
  /// visits this way.
  STAGGER_HOT_PATH void ReserveRun(DiskId start, int32_t len) {
    STAGGER_DCHECK(start >= 0 && start < num_slots_);
    STAGGER_DCHECK(len >= 0 && len <= num_slots_);
#ifndef NDEBUG
    for (int32_t i = 0; i < len; ++i) {
      const DiskId slot = Wrap(static_cast<int64_t>(start) + i);
      STAGGER_DCHECK(!busy_drives_.Test(slot))
          << "slot " << slot << " reserved twice in one interval";
      STAGGER_DCHECK(drives_[static_cast<size_t>(slot)].available())
          << "slot " << slot << " reserved while failed or stalled";
    }
#endif
    // The busy bitmap covers drives [0, D + S); slot runs wrap at D,
    // so split the wrap here instead of using Bitmap::SetWindow.  A
    // one-slot run (a fragmented stream's lane) is a single bit set.
    const int32_t tail = num_slots_ - start;
    if (len == 1) {
      busy_drives_.Set(start);
    } else if (len <= tail) {
      busy_drives_.SetRange(start, start + len);
    } else {
      busy_drives_.SetRange(start, num_slots_);
      busy_drives_.SetRange(0, len - tail);
    }
  }

  /// Reserves, for every virtual disk v set in `vdisks` (a D-bit
  /// bitmap), slot (v + rot) mod D.  Same preconditions per slot as
  /// ReserveSlot; rot in [0, D).  One rotated word-OR into the busy
  /// bitmap, O(D/64).
  STAGGER_HOT_PATH void ReserveRotated(const Bitmap& vdisks, int32_t rot);

  /// Reserves every slot set in `slots` (a D-bit slot bitmap) outside
  /// the faulty set, whose word w is `faulty_word(w)`, and calls
  /// `on_faulty(slot)`, in ascending slot order, for each one inside it,
  /// leaving that slot unreserved.  One word pass, O(D/64): the
  /// scheduler's reservation of its steady reads on a faulty array.
  template <typename WordFn, typename Fn>
  STAGGER_HOT_PATH void ReserveUnlessFaulty(const Bitmap& slots,
                                            WordFn&& faulty_word,
                                            Fn&& on_faulty) {
    STAGGER_DCHECK(slots.size() == num_slots_);
    for (int32_t w = 0; w < slots.num_words(); ++w) {
      const uint64_t want = slots.word(w);
      if (want == 0) continue;
      const uint64_t faulty = faulty_word(w);
      const uint64_t healthy = want & ~faulty;
#ifndef NDEBUG
      for (uint64_t bits = healthy; bits != 0; bits &= bits - 1) {
        const int32_t slot = (w << 6) + std::countr_zero(bits);
        STAGGER_DCHECK(!busy_drives_.Test(slot))
            << "slot " << slot << " reserved twice in one interval";
        STAGGER_DCHECK(drives_[static_cast<size_t>(slot)].available())
            << "slot " << slot << " reserved while failed or stalled";
      }
#endif
      busy_drives_.OrWord(w, healthy);
      for (uint64_t bits = want & faulty; bits != 0; bits &= bits - 1) {
        on_faulty((w << 6) + std::countr_zero(bits));
      }
    }
  }

  /// Takes back this interval's reservation of `slot`: a read reserved
  /// ahead that will not be issued after all.
  STAGGER_HOT_PATH void UnreserveSlot(DiskId slot) {
    STAGGER_DCHECK(slot >= 0 && slot < num_slots_ && busy_drives_.Test(slot))
        << "slot " << slot << " unreserved while idle";
    busy_drives_.Clear(slot);
  }

  // --- health (fault injection, src/fault/) -----------------------------
  //
  // Health transitions must go through these slot-level methods (not
  // Disk::Fail etc. directly) so the availability bitmap stays in sync.
  /// True when `slot` (in [0, D)) can serve reads this interval: one
  /// test of the availability bitmap.
  STAGGER_HOT_PATH bool IsAvailable(DiskId slot) const {
    STAGGER_DCHECK(slot >= 0 && slot < num_slots_);
    return !unavailable_slots_.Test(slot);
  }
  void FailDisk(DiskId id);
  void StallDisk(DiskId id);
  /// Degrades `id`'s drive to `percent`% of B_Disk (see Disk::Degrade):
  /// from the next interval on it serves reads only on its duty-cycle
  /// intervals, and the availability bitmap tracks the cycle.
  void DegradeDisk(DiskId id, int32_t percent);
  void RecoverDisk(DiskId id);
  /// Disks currently able to serve reads.  O(1).
  int32_t AvailableCount() const { return num_slots_ - unavailable_count_; }
  /// Disks currently failed, stalled, or on a degraded drive's
  /// non-serving interval.  O(1).
  int32_t UnavailableCount() const { return unavailable_count_; }
  /// Slot-space availability bitmap: bit set == slot unavailable.
  const Bitmap& unavailable_slots() const { return unavailable_slots_; }
  /// Slots currently available AND idle this interval — the measured
  /// idle bandwidth the background budget (src/background/) may grant.
  /// One masked popcount per word, O(D/64).
  STAGGER_HOT_PATH int32_t IdleAvailableCount() const;
  /// Lowest slot that is available, idle this interval and clear in
  /// `exclude` (a D-bit slot bitmap), or -1.  The same slot a linear
  /// scan of 0..D-1 finds, in O(D/64) words.
  STAGGER_HOT_PATH int32_t FirstIdleAvailableSlot(const Bitmap& exclude) const;
  /// Total slot-intervals spent in the degraded state (serving or not),
  /// across all disks and the whole run.
  int64_t degraded_disk_intervals() const { return degraded_disk_intervals_; }
  /// True when every slot is available and no drive is degraded or
  /// carries a corrupt cell: an interval close then only counts.
  bool Healthy() const {
    return unavailable_count_ == 0 && degraded_slots_.empty() &&
           !latent_errors_->active();
  }
  /// Installs the one listener told of every health change: fail, stall,
  /// degrade, recover, spare promotion, and latent-error injection.
  /// Returns false, installing nothing, while another is installed; a
  /// null `fn` uninstalls.
  bool SetHealthListener(std::function<void()> fn);

  /// Registry of latent sector errors on this array's media, shared by
  /// the fault injector (writes), the scrubber, the rebuild, and the
  /// scheduler's checksum path (reads).
  LatentErrorMap& latent_errors() { return *latent_errors_; }
  const LatentErrorMap& latent_errors() const { return *latent_errors_; }

  // --- hot spares (online rebuild, src/rebuild/) ------------------------
  /// Spare drives configured at creation.
  int32_t num_spares() const { return num_spares_; }
  /// Spare drives not currently claimed by a rebuild.
  int32_t FreeSpareCount() const {
    return static_cast<int32_t>(free_spares_.size());
  }
  /// Claims a spare drive for a rebuild; returns its drive index (only
  /// meaningful to ReserveDrive / ReturnSpare / PromoteSpare).  Fails
  /// with ResourceExhausted when the pool is empty.
  Result<int32_t> AcquireSpare();
  /// Returns an unused spare to the pool (rebuild cancelled because the
  /// original drive recovered naturally).
  void ReturnSpare(int32_t drive);
  /// Swaps the claimed spare `drive` into `slot` and marks the slot
  /// healthy.  The failed drive's storage accounting transfers to the
  /// spare so later frees balance.  The spare's busy bit moves with it
  /// (a rebuild write may already have reserved it this interval, and
  /// SlotBusy must see it); the dead drive is retired at index `drive`,
  /// which no slot reaches.
  /// Preconditions: the slot's current drive is failed; `drive` was
  /// returned by AcquireSpare and not yet promoted or returned.
  void PromoteSpare(DiskId slot, int32_t drive);

  /// Ends the current interval: adds the busy slots (bits at or past D,
  /// the spares, are masked out) to the running busy count, clears the
  /// busy bitmap, and advances the shared interval counter.
  /// O((D + S)/64) words.
  STAGGER_HOT_PATH void EndInterval();

  /// Closes `n` intervals in which exactly `busy` slots were reserved,
  /// without reserving them: what `n` rounds of reservations and
  /// EndInterval() would count.  Preconditions: nothing reserved in the
  /// open interval, and no degraded drive (its duty cycle would move).
  void SkipIntervals(int64_t n, int64_t busy);

  // --- aggregate storage ------------------------------------------------
  int64_t TotalCylinders() const;
  int64_t FreeCylinders() const;
  DataSize TotalCapacity() const {
    return params_.cylinder_capacity * TotalCylinders();
  }

  /// Mean per-slot utilization over all elapsed intervals: busy
  /// slot-intervals over D x intervals().  Reservations are counted at
  /// interval close, so the current open interval is not yet included.
  double MeanUtilization() const;

  /// Largest and smallest per-disk used storage, for skew analysis.
  int64_t MaxUsedCylinders() const;
  int64_t MinUsedCylinders() const;

 private:
  DiskArray(std::vector<Disk> drives, DiskParameters params, int32_t num_slots,
            int32_t num_spares);

  /// Records an availability flip of `slot` in the bitmap; `was` is the
  /// slot's availability before the health transition.
  void NoteAvailabilityChange(DiskId slot, bool was);

  /// Removes `slot` from the degraded-slot walk list.
  void DropDegradedSlot(DiskId slot);

  void NotifyHealthChange() {
    if (health_listener_) health_listener_();
  }

  /// The slot bits of word `w`: all ones, except that the last slot
  /// word clears its bits at or past D (in the busy bitmap those belong
  /// to spares).
  STAGGER_HOT_PATH uint64_t SlotMask(int32_t w) const {
    return w == unavailable_slots_.num_words() - 1 && (num_slots_ & 63) != 0
               ? ~uint64_t{0} >> (64 - (num_slots_ & 63))
               : ~uint64_t{0};
  }

  /// Word `w` of the slots idle AND available this interval.  Slot i is
  /// drive i, so the busy bitmap's word is the slots' busy word.
  STAGGER_HOT_PATH uint64_t IdleAvailableWord(int32_t w) const {
    return ~(unavailable_slots_.word(w) | busy_drives_.word(w)) & SlotMask(w);
  }

  /// All physical drives: index i < D is slot i's drive, [D, D + S)
  /// the spares.  Promotion swaps a spare into its slot's index.
  std::vector<Disk> drives_;
  DiskParameters params_;
  int32_t num_slots_;
  int32_t num_spares_;
  /// Spare drive indices not yet claimed.
  std::vector<int32_t> free_spares_;
  /// Spare drive indices claimed by AcquireSpare, pending promotion.
  std::vector<int32_t> claimed_spares_;
  /// Shared interval clock; heap-allocated so the latent-error map's
  /// back-pointer (it stamps detection and repair intervals) survives
  /// moves of the array.
  std::unique_ptr<IntervalClock> clock_;
  /// Bit set == drive is transferring this interval, indexed like
  /// drives_ (PromoteSpare swaps the bits along with the drives).
  Bitmap busy_drives_;
  /// Slot-intervals spent transferring, summed over the D slots and every
  /// closed interval.
  int64_t busy_slot_intervals_ = 0;
  /// Bit set == slot's drive is failed, stalled, or degraded-and-not-
  /// serving this interval.
  Bitmap unavailable_slots_;
  int32_t unavailable_count_ = 0;
  /// Slots whose drives are currently degraded, sorted ascending; the
  /// interval close advances only these drives' duty cycles, so arrays
  /// with no stragglers pay nothing.
  std::vector<DiskId> degraded_slots_;
  int64_t degraded_disk_intervals_ = 0;
  /// Heap-allocated like clock_ so reader-held pointers survive moves.
  std::unique_ptr<LatentErrorMap> latent_errors_;
  std::function<void()> health_listener_;
};

}  // namespace stagger

#endif  // STAGGER_DISK_DISK_ARRAY_H_
