// A single simulated disk drive: storage accounting in cylinders plus
// health state (failed, stalled, degraded) for fault injection.

#ifndef STAGGER_DISK_DISK_H_
#define STAGGER_DISK_DISK_H_

#include <cstdint>

#include "disk/disk_parameters.h"
#include "util/check.h"
#include "util/status.h"
#include "util/units.h"

namespace stagger {

/// Index of a physical disk in the array, 0-based.
using DiskId = int32_t;

/// \brief Health of one drive (fault-injection subsystem, src/fault/).
///
/// A failed disk has lost its media: reads are rejected until an
/// operator-level Recover() (replacement + rebuild).  A stalled disk
/// keeps its data but blows its T_switch budget — any read issued
/// during the stall misses its interval deadline, so the scheduler must
/// treat it exactly like a failure for the stall's duration.  A
/// degraded disk (straggler) still has its data but sustains only a
/// fraction of B_Disk: it can complete a fragment read in some
/// intervals and not others, which the drive models as a deterministic
/// duty cycle over intervals (see Degrade()).
enum class DiskHealth {
  kHealthy,
  kFailed,
  kStalled,
  kDegraded,
};

/// \brief Interval clock of one DiskArray.
///
/// The array advances this single counter at interval close; the
/// array's latent-error map reads it to stamp detection and repair
/// intervals.  The struct lives on the heap (owned by the array through
/// a unique_ptr) so the map's pointer survives moves of the DiskArray.
struct IntervalClock {
  /// Intervals closed so far.
  int64_t intervals = 0;
};

/// \brief One simulated drive.
///
/// Storage is allocated in whole cylinders (the fragment granularity of
/// the paper).  A drive keeps no busy state: per-interval busy/idle
/// bookkeeping lives in its DiskArray's dense bitmap
/// (DiskArray::ReserveSlot et al.), so the scheduler's reservation hot
/// path touches one cache-resident array instead of D scattered
/// objects.
class Disk {
 public:
  explicit Disk(const DiskParameters& params)
      : free_cylinders_(params.num_cylinders),
        total_cylinders_(params.num_cylinders) {}

  // --- storage ---------------------------------------------------------
  int64_t total_cylinders() const { return total_cylinders_; }
  int64_t free_cylinders() const { return free_cylinders_; }
  int64_t used_cylinders() const { return total_cylinders_ - free_cylinders_; }

  /// Reserves `cylinders` of storage; fails with ResourceExhausted when
  /// the drive is full.  Inline: placing an object charges every disk
  /// its layout touches.
  Status AllocateStorage(int64_t cylinders) {
    STAGGER_CHECK(cylinders >= 0);
    if (cylinders > free_cylinders_) return StorageShortfall(cylinders);
    free_cylinders_ -= cylinders;
    return Status::OK();
  }
  /// Returns previously allocated storage.
  void FreeStorage(int64_t cylinders) {
    STAGGER_CHECK(cylinders >= 0);
    free_cylinders_ += cylinders;
    STAGGER_CHECK(free_cylinders_ <= total_cylinders_)
        << "drive freed more storage than allocated";
  }

  // --- health (fault injection) ----------------------------------------
  DiskHealth health() const { return health_; }
  /// True when the drive can serve reads this interval.  A degraded
  /// drive is available only on its serving intervals (see Degrade()).
  bool available() const {
    return health_ == DiskHealth::kHealthy ||
           (health_ == DiskHealth::kDegraded && degraded_serving_);
  }
  /// Media loss: the drive rejects reads until Recover().  Idempotent;
  /// failing a stalled or degraded disk escalates to a failure.
  void Fail();
  /// Transient stall (thermal recalibration, firmware hiccup): reads
  /// miss their deadline until Recover().  A no-op on a failed disk —
  /// a stall cannot downgrade a failure.
  void Stall();
  /// Bandwidth degradation (straggler): the drive sustains only
  /// `percent`% of B_Disk until Recover().  A fragment read occupies a
  /// whole interval, so fractional bandwidth is modeled as a duty
  /// cycle: the drive accumulates `percent` units of credit per
  /// interval and serves exactly those intervals where the credit
  /// reaches 100 — over any long window the fraction of serving
  /// intervals converges to percent/100 with no drift and no
  /// randomness.  The first interval of a degrade window never serves
  /// (the slowdown is felt immediately).  Legal only while healthy;
  /// `percent` must be in [1, 99].
  void Degrade(int32_t percent);
  /// Advances the duty cycle of a degraded drive by one interval;
  /// called by DiskArray::EndInterval at interval close.
  /// Precondition: health() == kDegraded.
  void AdvanceDegradedInterval();
  /// True when a degraded drive serves reads this interval.
  bool degraded_serving() const { return degraded_serving_; }
  /// The configured bandwidth percentage of a degraded drive; 0 when
  /// the drive is not degraded.
  int32_t degraded_percent() const { return degraded_percent_; }
  /// Restores the drive to healthy from any degraded state.
  void Recover();

 private:
  /// AllocateStorage's failure: ResourceExhausted naming both amounts.
  Status StorageShortfall(int64_t cylinders) const;

  int64_t free_cylinders_;
  int64_t total_cylinders_;
  DiskHealth health_ = DiskHealth::kHealthy;
  /// Degrade duty cycle (health_ == kDegraded only): serving intervals
  /// are paced by an integer error accumulator, Bresenham-style.
  int32_t degraded_percent_ = 0;
  int32_t degraded_credit_ = 0;
  bool degraded_serving_ = false;
};

}  // namespace stagger

#endif  // STAGGER_DISK_DISK_H_
