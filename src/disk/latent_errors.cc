#include "disk/latent_errors.h"

#include <iterator>
#include <limits>

#include "util/check.h"

namespace stagger {

int64_t LatentErrorMap::Inject(DiskId disk, int64_t sub_lo, int64_t sub_hi) {
  STAGGER_CHECK(sub_lo >= 0 && sub_hi >= sub_lo)
      << "latent error range [" << sub_lo << ", " << sub_hi << "] is invalid";
  STAGGER_CHECK(disk >= 0 && disk < corrupt_disks_.size())
      << "latent error on disk " << disk << " outside [0, "
      << corrupt_disks_.size() << ")";
  corrupt_disks_.Set(disk);
  int64_t fresh = 0;
  for (int64_t sub = sub_lo; sub <= sub_hi; ++sub) {
    if (cells_.emplace(CellKey{disk, sub}, Cell{now(), -1}).second) ++fresh;
  }
  active_cells_ += fresh;
  metrics_.injected += fresh;
  if (inject_listener_) inject_listener_();
  return fresh;
}

bool LatentErrorMap::CellCorrupt(DiskId disk, int64_t subobject) const {
  return cells_.count(CellKey{disk, subobject}) > 0;
}

bool LatentErrorMap::MarkDetected(DiskId disk, int64_t subobject) {
  const auto it = cells_.find(CellKey{disk, subobject});
  STAGGER_CHECK(it != cells_.end())
      << "cell (" << disk << ", " << subobject << ") is not corrupt";
  if (it->second.detected_interval >= 0) return false;
  it->second.detected_interval = now();
  ++metrics_.detected;
  return true;
}

void LatentErrorMap::Repair(DiskId disk, int64_t subobject) {
  const auto it = cells_.find(CellKey{disk, subobject});
  STAGGER_CHECK(it != cells_.end())
      << "cell (" << disk << ", " << subobject << ") is not corrupt";
  metrics_.time_to_repair_intervals.Add(
      static_cast<double>(now() - it->second.injected_interval));
  // The disk keeps its index bit while a neighbouring key is its cell.
  const auto next = cells_.erase(it);
  const bool more = (next != cells_.end() && next->first.first == disk) ||
                    (next != cells_.begin() &&
                     std::prev(next)->first.first == disk);
  if (!more) corrupt_disks_.Clear(disk);
  --active_cells_;
  ++metrics_.repaired;
}

int64_t LatentErrorMap::DropDiskRebuilt(DiskId disk) {
  constexpr int64_t kFirstRow = std::numeric_limits<int64_t>::min();
  const auto lo = cells_.lower_bound(CellKey{disk, kFirstRow});
  const auto hi = cells_.lower_bound(CellKey{disk + 1, kFirstRow});
  int64_t dropped = 0;
  for (auto it = lo; it != hi; ++it, ++dropped) {
    metrics_.time_to_repair_intervals.Add(
        static_cast<double>(now() - it->second.injected_interval));
  }
  if (dropped == 0) return 0;
  cells_.erase(lo, hi);
  corrupt_disks_.Clear(disk);
  active_cells_ -= dropped;
  metrics_.repaired_by_rebuild += dropped;
  return dropped;
}

Status LatentErrorMap::AuditIndex() const {
  int32_t disks = 0;
  DiskId last = -1;
  for (const auto& [key, cell] : cells_) {
    (void)cell;
    const DiskId disk = key.first;
    STAGGER_AUDIT_VERIFY(disk >= 0 && disk < corrupt_disks_.size() &&
                         corrupt_disks_.Test(disk))
        << "; disk " << disk << " carries cells but is not indexed";
    if (disk != last) ++disks;
    last = disk;
  }
  STAGGER_AUDIT_VERIFY(corrupt_disks_.CountSet() == disks)
      << "; " << corrupt_disks_.CountSet() << " disks indexed, " << disks
      << " carry cells";
  STAGGER_AUDIT_VERIFY(static_cast<int64_t>(cells_.size()) == active_cells_)
      << "; " << cells_.size() << " cells mapped, " << active_cells_
      << " counted";
  return Status::OK();
}

}  // namespace stagger
