// Latent sector errors: media regions that silently return corrupt
// content, discovered only when somebody actually reads (or scrubs)
// them.
//
// A *cell* is one (disk, subobject-row) media region of the staggered
// layout: the fragment a stripe at row `subobject` stores on `disk`
// lives there, whatever object owns the stripe.  Injecting a latent
// error marks a run of cells corrupt; the disk keeps serving reads —
// availability is untouched — but any fragment read out of a corrupt
// cell carries a wrong content word until the cell is repaired.
//
// Detection and repair are the readers' job (checksums on the display
// path, the scrubber's verify pass, the rebuild's source reads); this
// registry only keeps the authoritative cell state and the
// injected/detected/repaired accounting, stamped in interval counts of
// the owning array's IntervalClock so mean-time-to-repair is computable
// without threading simulation time through every caller.
//
// Media-level semantics: cells survive fail -> recover (the platters
// come back as they were) and object churn (a new object inherits the
// region), and are cleared only by an explicit Repair (a verified
// rewrite) or by DropDiskRebuilt (a spare promotion replaces the whole
// medium).
//
// Per-disk index: a slot bitmap marks the disks that carry at least one
// cell, so IsCorrupt on a clean disk is one bit test and the scheduler
// can ask whether a whole stripe's disks are clean with one window
// test.  Only the few disks with cells reach the cell map, one ordered
// map keyed by (disk, row).

#ifndef STAGGER_DISK_LATENT_ERRORS_H_
#define STAGGER_DISK_LATENT_ERRORS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "disk/disk.h"
#include "util/bitmap.h"
#include "util/hot_path.h"
#include "util/stats.h"
#include "util/status.h"

namespace stagger {

/// \brief Counters reported by the latent-error registry.
struct LatentErrorMetrics {
  int64_t injected = 0;            ///< cells ever marked corrupt
  int64_t detected = 0;            ///< cells found by some read path
  int64_t repaired = 0;            ///< cells repaired by a verified rewrite
  int64_t repaired_by_rebuild = 0; ///< cells cleared with a rebuilt slot
  /// Injection-to-repair spans, in intervals (both repair flavors).
  StreamingStats time_to_repair_intervals;
};

/// \brief Authoritative map of corrupt media cells of one disk array.
class LatentErrorMap {
 public:
  struct Cell {
    int64_t injected_interval = 0;
    int64_t detected_interval = -1;  ///< -1 until some reader notices
  };

  /// \param num_disks  D: cells live on disks [0, D).
  explicit LatentErrorMap(int32_t num_disks) : corrupt_disks_(num_disks) {}

  /// Binds the registry to the array's shared interval clock; all
  /// timestamps below are that clock's interval count.
  void AttachClock(const IntervalClock* clock) { clock_ = clock; }

  /// Invoked after every Inject (the owning array's health listener).
  void SetInjectListener(std::function<void()> fn) {
    inject_listener_ = std::move(fn);
  }

  /// Marks cells [sub_lo, sub_hi] of `disk` corrupt; already-corrupt
  /// cells are left as they are (their original injection stands).
  /// Returns the number of newly corrupt cells.
  int64_t Inject(DiskId disk, int64_t sub_lo, int64_t sub_hi);

  /// True when any cell is corrupt.  O(1): the read paths gate their
  /// per-read IsCorrupt lookups on this.
  bool active() const { return active_cells_ > 0; }
  int64_t ActiveCells() const { return active_cells_; }

  /// True when the fragment at row `subobject` of `disk` would read
  /// back corrupt.  O(1) for a disk without cells.
  STAGGER_HOT_PATH bool IsCorrupt(DiskId disk, int64_t subobject) const {
    return corrupt_disks_.Test(disk) && CellCorrupt(disk, subobject);
  }

  /// Slot bitmap: bit set == the disk carries at least one corrupt cell.
  const Bitmap& corrupt_disks() const { return corrupt_disks_; }

  /// Records that a reader noticed the corruption (checksum mismatch).
  /// Returns true when this is the first detection of the cell.
  /// Precondition: IsCorrupt(disk, subobject).
  bool MarkDetected(DiskId disk, int64_t subobject);

  /// Clears a corrupt cell after a verified rewrite (scrub repair).
  /// Precondition: IsCorrupt(disk, subobject).
  void Repair(DiskId disk, int64_t subobject);

  /// Drops every cell of `disk`: a freshly rebuilt spare was promoted
  /// into its slot, so the corrupt medium is gone.  Returns the number
  /// of cells dropped (counted as repaired_by_rebuild).
  int64_t DropDiskRebuilt(DiskId disk);

  /// (disk, row) of one cell.
  using CellKey = std::pair<DiskId, int64_t>;

  /// Full cell map, for the scrubber's orphan sweep.  Deterministic
  /// iteration order (ordered by disk, then row).
  const std::map<CellKey, Cell>& cells() const { return cells_; }

  const LatentErrorMetrics& metrics() const { return metrics_; }

  /// Cross-checks the per-disk index and the cell count against the
  /// cell map (audit builds run it every interval).
  Status AuditIndex() const;

 private:
  int64_t now() const { return clock_ ? clock_->intervals : 0; }
  /// Cell-map lookup behind IsCorrupt's index test.
  bool CellCorrupt(DiskId disk, int64_t subobject) const;

  const IntervalClock* clock_ = nullptr;
  std::map<CellKey, Cell> cells_;
  /// Bit d set == cells_ holds at least one cell of disk d.
  Bitmap corrupt_disks_;
  int64_t active_cells_ = 0;
  LatentErrorMetrics metrics_;
  std::function<void()> inject_listener_;
};

}  // namespace stagger

#endif  // STAGGER_DISK_LATENT_ERRORS_H_
