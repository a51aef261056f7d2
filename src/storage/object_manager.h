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

/// \brief Disk-residency tracking and LFU replacement for the striped
/// schemes (the VDR baseline keeps its own replica bookkeeping).  A
/// resident object keeps only its layout: its storage charge is derived
/// again from the layout's closed form (StaggeredLayout::ForEachCharge)
/// whenever it is checked or freed.
class ObjectManager {
 public:
  /// \param catalog            the database; must outlive the manager.
  /// \param disks              the disk farm; must outlive the manager.
  /// \param fragment_cylinders cylinders occupied by one fragment.
  ObjectManager(const Catalog* catalog, DiskArray* disks,
                int64_t fragment_cylinders);

  bool IsResident(ObjectId id) const {
    return entries_[static_cast<size_t>(id)].layout.has_value();
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
    /// Set while the object is disk resident.
    std::optional<StaggeredLayout> layout;
    int64_t access_count = 0;
    int32_t pins = 0;
  };

  /// Charges the storage of `num_subobjects` rows under `layout`; on
  /// failure frees the charges already made and leaves every disk as it
  /// was.
  Status TryAllocate(const StaggeredLayout& layout, int64_t num_subobjects);
  void Release(const StaggeredLayout& layout, int64_t num_subobjects);

  const Catalog* catalog_;
  DiskArray* disks_;
  int64_t fragment_cylinders_;
  std::vector<Entry> entries_;
  int32_t resident_count_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace stagger

#endif  // STAGGER_STORAGE_OBJECT_MANAGER_H_
