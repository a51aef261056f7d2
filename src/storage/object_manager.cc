#include "storage/object_manager.h"

#include <string>

namespace stagger {

ObjectManager::ObjectManager(const Catalog* catalog, DiskArray* disks,
                             int64_t fragment_cylinders)
    : catalog_(catalog), disks_(disks), fragment_cylinders_(fragment_cylinders),
      entries_(static_cast<size_t>(catalog->size())) {
  STAGGER_CHECK(fragment_cylinders_ >= 1);
}

const StaggeredLayout& ObjectManager::LayoutOf(ObjectId id) const {
  const Entry& e = entries_[static_cast<size_t>(id)];
  STAGGER_CHECK(e.residency.has_value()) << "object " << id << " is not resident";
  return e.residency->layout;
}

void ObjectManager::RecordAccess(ObjectId id) {
  ++entries_[static_cast<size_t>(id)].access_count;
}

void ObjectManager::Pin(ObjectId id) { ++entries_[static_cast<size_t>(id)].pins; }

void ObjectManager::Unpin(ObjectId id) {
  Entry& e = entries_[static_cast<size_t>(id)];
  STAGGER_CHECK(e.pins > 0) << "unbalanced Unpin of object " << id;
  --e.pins;
}

Status ObjectManager::TryAllocate(const std::vector<int64_t>& fragments_per_disk) {
  for (int32_t d = 0; d < disks_->num_disks(); ++d) {
    const int64_t cylinders = fragments_per_disk[static_cast<size_t>(d)] *
                              fragment_cylinders_;
    Status st = disks_->disk(d).AllocateStorage(cylinders);
    if (!st.ok()) {
      // Roll back the disks already charged.
      for (int32_t r = 0; r < d; ++r) {
        disks_->disk(r).FreeStorage(fragments_per_disk[static_cast<size_t>(r)] *
                                    fragment_cylinders_);
      }
      return st;
    }
  }
  return Status::OK();
}

void ObjectManager::Release(const std::vector<int64_t>& fragments_per_disk) {
  for (int32_t d = 0; d < disks_->num_disks(); ++d) {
    disks_->disk(d).FreeStorage(fragments_per_disk[static_cast<size_t>(d)] *
                                fragment_cylinders_);
  }
}

Status ObjectManager::TryMakeResident(ObjectId id,
                                      const StaggeredLayout& layout) {
  if (!catalog_->Contains(id)) {
    return Status::NotFound("object " + std::to_string(id) + " not in catalog");
  }
  Entry& e = entries_[static_cast<size_t>(id)];
  if (e.residency.has_value()) {
    return Status::AlreadyExists("object " + std::to_string(id) +
                                 " is already resident");
  }
  const MediaObject& obj = catalog_->Get(id);
  std::vector<int64_t> per_disk = layout.FragmentsPerDisk(obj.num_subobjects);
  STAGGER_RETURN_NOT_OK(TryAllocate(per_disk));
  e.residency = Residency{layout, std::move(per_disk)};
  ++resident_count_;
  return Status::OK();
}

Status ObjectManager::MakeResident(ObjectId id, const StaggeredLayout& layout) {
  // Evict LFU victims until the allocation fits.
  while (true) {
    Status st = TryMakeResident(id, layout);
    if (!st.IsResourceExhausted()) return st;
    Result<ObjectId> victim = PickVictim();
    if (!victim.ok()) {
      return Status::ResourceExhausted(
          "cannot make object " + std::to_string(id) +
          " resident: no evictable victims remain (" + st.message() + ")");
    }
    STAGGER_RETURN_NOT_OK(Evict(*victim));
  }
}

Status ObjectManager::Evict(ObjectId id) {
  Entry& e = entries_[static_cast<size_t>(id)];
  if (!e.residency.has_value()) {
    return Status::FailedPrecondition("object " + std::to_string(id) +
                                      " is not resident");
  }
  if (e.pins > 0) {
    return Status::FailedPrecondition("object " + std::to_string(id) +
                                      " is pinned by active users");
  }
  Release(e.residency->fragments_per_disk);
  e.residency.reset();
  --resident_count_;
  ++evictions_;
  return Status::OK();
}

Result<ObjectId> ObjectManager::PickVictim() const {
  ObjectId best = kInvalidObject;
  int64_t best_count = 0;
  for (ObjectId id = 0; id < catalog_->size(); ++id) {
    const Entry& e = entries_[static_cast<size_t>(id)];
    if (!e.residency.has_value() || e.pins > 0) continue;
    if (best == kInvalidObject || e.access_count < best_count) {
      best = id;
      best_count = e.access_count;
    }
  }
  if (best == kInvalidObject) {
    return Status::NotFound("no evictable resident object");
  }
  return best;
}

}  // namespace stagger
