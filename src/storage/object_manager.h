// The Object Manager of the paper's Centralized Scheduler: tracks which
// objects are disk resident, where they are placed, and — when disk
// storage is exhausted — evicts the least frequently accessed object
// that is not in use ("implements a replacement policy that removes the
// least frequently accessed object").

#ifndef STAGGER_STORAGE_OBJECT_MANAGER_H_
#define STAGGER_STORAGE_OBJECT_MANAGER_H_

#include <optional>
#include <vector>

#include "disk/disk_array.h"
#include "storage/catalog.h"
#include "storage/layout.h"
#include "storage/media_object.h"
#include "util/result.h"

namespace stagger {

/// \brief Residency entry for one disk-resident object.
struct Residency {
  StaggeredLayout layout;
  /// Exact number of fragments stored per disk (for storage accounting).
  std::vector<int64_t> fragments_per_disk;
};

/// \brief Disk-residency tracking and LFU replacement for the striped
/// schemes (the VDR baseline keeps its own replica bookkeeping).
class ObjectManager {
 public:
  /// \param catalog            the database; must outlive the manager.
  /// \param disks              the disk farm; must outlive the manager.
  /// \param fragment_cylinders cylinders occupied by one fragment.
  ObjectManager(const Catalog* catalog, DiskArray* disks,
                int64_t fragment_cylinders);

  bool IsResident(ObjectId id) const {
    return entries_[static_cast<size_t>(id)].residency.has_value();
  }

  /// The placement of a resident object.
  /// Precondition: IsResident(id).
  const StaggeredLayout& LayoutOf(ObjectId id) const;

  /// Bumps the access-frequency counter (every request, resident or not).
  void RecordAccess(ObjectId id);
  int64_t AccessCount(ObjectId id) const {
    return entries_[static_cast<size_t>(id)].access_count;
  }

  /// Pins an object while a display or materialization uses it; pinned
  /// objects are never evicted.
  void Pin(ObjectId id);
  void Unpin(ObjectId id);
  int32_t PinCount(ObjectId id) const {
    return entries_[static_cast<size_t>(id)].pins;
  }

  /// Allocates storage for `id` under `layout` without evicting
  /// anything.  Fails with ResourceExhausted when the free space does
  /// not suffice, leaving every disk as it was.
  Status TryMakeResident(ObjectId id, const StaggeredLayout& layout);

  /// Allocates storage for `id` under `layout`, evicting LFU victims as
  /// needed.  Fails with ResourceExhausted when even after evicting all
  /// unpinned objects the space does not suffice.
  Status MakeResident(ObjectId id, const StaggeredLayout& layout);

  /// Frees the object's storage.  Fails if pinned or not resident.
  Status Evict(ObjectId id);

  /// Least-frequently-accessed resident, unpinned object; NotFound when
  /// every resident object is pinned (or none are resident).
  Result<ObjectId> PickVictim() const;

  int32_t ResidentCount() const { return resident_count_; }
  int64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::optional<Residency> residency;
    int64_t access_count = 0;
    int32_t pins = 0;
  };

  /// Attempts the per-disk allocation; rolls back on failure.
  Status TryAllocate(const std::vector<int64_t>& fragments_per_disk);
  void Release(const std::vector<int64_t>& fragments_per_disk);

  const Catalog* catalog_;
  DiskArray* disks_;
  int64_t fragment_cylinders_;
  std::vector<Entry> entries_;
  int32_t resident_count_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace stagger

#endif  // STAGGER_STORAGE_OBJECT_MANAGER_H_
