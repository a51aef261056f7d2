#include "disk/latent_errors.h"

#include "util/check.h"

namespace stagger {

int64_t LatentErrorMap::Inject(DiskId disk, int64_t sub_lo, int64_t sub_hi) {
  STAGGER_CHECK(sub_lo >= 0 && sub_hi >= sub_lo)
      << "latent error range [" << sub_lo << ", " << sub_hi << "] is invalid";
  STAGGER_CHECK(disk >= 0 && disk < corrupt_disks_.size())
      << "latent error on disk " << disk << " outside [0, "
      << corrupt_disks_.size() << ")";
  std::map<int64_t, Cell>& rows = cells_[disk];
  corrupt_disks_.Set(disk);
  int64_t fresh = 0;
  for (int64_t sub = sub_lo; sub <= sub_hi; ++sub) {
    const auto [it, inserted] = rows.emplace(sub, Cell{now(), -1});
    (void)it;
    if (inserted) ++fresh;
  }
  active_cells_ += fresh;
  metrics_.injected += fresh;
  if (inject_listener_) inject_listener_();
  return fresh;
}

bool LatentErrorMap::CellCorrupt(DiskId disk, int64_t subobject) const {
  const auto dit = cells_.find(disk);
  if (dit == cells_.end()) return false;
  return dit->second.count(subobject) > 0;
}

bool LatentErrorMap::MarkDetected(DiskId disk, int64_t subobject) {
  auto dit = cells_.find(disk);
  STAGGER_CHECK(dit != cells_.end()) << "no corrupt cell on disk " << disk;
  auto cit = dit->second.find(subobject);
  STAGGER_CHECK(cit != dit->second.end())
      << "cell (" << disk << ", " << subobject << ") is not corrupt";
  if (cit->second.detected_interval >= 0) return false;
  cit->second.detected_interval = now();
  ++metrics_.detected;
  return true;
}

void LatentErrorMap::Repair(DiskId disk, int64_t subobject) {
  auto dit = cells_.find(disk);
  STAGGER_CHECK(dit != cells_.end()) << "no corrupt cell on disk " << disk;
  auto cit = dit->second.find(subobject);
  STAGGER_CHECK(cit != dit->second.end())
      << "cell (" << disk << ", " << subobject << ") is not corrupt";
  metrics_.time_to_repair_intervals.Add(
      static_cast<double>(now() - cit->second.injected_interval));
  dit->second.erase(cit);
  if (dit->second.empty()) {
    cells_.erase(dit);
    corrupt_disks_.Clear(disk);
  }
  --active_cells_;
  ++metrics_.repaired;
}

int64_t LatentErrorMap::DropDiskRebuilt(DiskId disk) {
  auto dit = cells_.find(disk);
  if (dit == cells_.end()) return 0;
  const int64_t dropped = static_cast<int64_t>(dit->second.size());
  for (const auto& [sub, cell] : dit->second) {
    (void)sub;
    metrics_.time_to_repair_intervals.Add(
        static_cast<double>(now() - cell.injected_interval));
  }
  cells_.erase(dit);
  corrupt_disks_.Clear(disk);
  active_cells_ -= dropped;
  metrics_.repaired_by_rebuild += dropped;
  return dropped;
}

Status LatentErrorMap::AuditIndex() const {
  int64_t cells = 0;
  for (const auto& [disk, rows] : cells_) {
    STAGGER_AUDIT_VERIFY(disk >= 0 && disk < corrupt_disks_.size() &&
                         corrupt_disks_.Test(disk))
        << "; disk " << disk << " carries cells but is not indexed";
    STAGGER_AUDIT_VERIFY(!rows.empty())
        << "; disk " << disk << " has an empty cell map";
    cells += static_cast<int64_t>(rows.size());
  }
  STAGGER_AUDIT_VERIFY(corrupt_disks_.CountSet() ==
                       static_cast<int32_t>(cells_.size()))
      << "; " << corrupt_disks_.CountSet() << " disks indexed, "
      << cells_.size() << " carry cells";
  STAGGER_AUDIT_VERIFY(cells == active_cells_)
      << "; " << cells << " cells mapped, " << active_cells_ << " counted";
  return Status::OK();
}

}  // namespace stagger
