#include "storage/object_manager.h"

#include <string>
#include <vector>

namespace stagger {

ObjectManager::ObjectManager(const Catalog* catalog, DiskArray* disks,
                             int64_t fragment_cylinders)
    : catalog_(catalog), disks_(disks), fragment_cylinders_(fragment_cylinders),
      entries_(static_cast<size_t>(catalog->size())) {
  STAGGER_CHECK(fragment_cylinders_ >= 1);
}

const StaggeredLayout& ObjectManager::LayoutOf(ObjectId id) const {
  const Entry& e = entries_[static_cast<size_t>(id)];
  STAGGER_CHECK(e.layout.has_value()) << "object " << id << " is not resident";
  return *e.layout;
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

Status ObjectManager::TryAllocate(const StaggeredLayout& layout,
                                  int64_t num_subobjects) {
  Status failed;
  const int64_t done = layout.ForEachCharge(
      num_subobjects, [&](int32_t disk, int64_t fragments) {
        failed = disks_->disk(disk).AllocateStorage(fragments *
                                                    fragment_cylinders_);
        return failed.ok();
      });
  if (failed.ok()) return failed;
  // Roll back the first `done` charges, replayed in the same order.
  int64_t left = done;
  layout.ForEachCharge(num_subobjects, [&](int32_t disk, int64_t fragments) {
    if (left-- == 0) return false;
    disks_->disk(disk).FreeStorage(fragments * fragment_cylinders_);
    return true;
  });
  return failed;
}

void ObjectManager::Release(const StaggeredLayout& layout,
                            int64_t num_subobjects) {
  layout.ForEachCharge(num_subobjects, [&](int32_t disk, int64_t fragments) {
    disks_->disk(disk).FreeStorage(fragments * fragment_cylinders_);
    return true;
  });
}

Status ObjectManager::TryMakeResident(ObjectId id,
                                      const StaggeredLayout& layout) {
  if (!catalog_->Contains(id)) {
    return Status::NotFound("object " + std::to_string(id) + " not in catalog");
  }
  Entry& e = entries_[static_cast<size_t>(id)];
  if (e.layout.has_value()) {
    return Status::AlreadyExists("object " + std::to_string(id) +
                                 " is already resident");
  }
  const int64_t num_subobjects = catalog_->Get(id).num_subobjects;
#ifdef STAGGER_AUDIT
  // The closed-form charge, summed disk by disk, must equal the
  // row-by-row count.
  std::vector<int64_t> charge(static_cast<size_t>(layout.num_disks()), 0);
  layout.ForEachCharge(num_subobjects, [&](int32_t disk, int64_t fragments) {
    charge[static_cast<size_t>(disk)] += fragments;
    return true;
  });
  STAGGER_AUDIT_VERIFY(charge == layout.FragmentsPerDisk(num_subobjects))
      << "; object " << id << "'s storage charge disagrees with "
      << "FragmentsPerDisk";
#endif
  STAGGER_RETURN_NOT_OK(TryAllocate(layout, num_subobjects));
  e.layout = layout;
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
  if (!e.layout.has_value()) {
    return Status::FailedPrecondition("object " + std::to_string(id) +
                                      " is not resident");
  }
  if (e.pins > 0) {
    return Status::FailedPrecondition("object " + std::to_string(id) +
                                      " is pinned by active users");
  }
  Release(*e.layout, catalog_->Get(id).num_subobjects);
  e.layout.reset();
  --resident_count_;
  ++evictions_;
  return Status::OK();
}

Result<ObjectId> ObjectManager::PickVictim() const {
  ObjectId best = kInvalidObject;
  int64_t best_count = 0;
  for (ObjectId id = 0; id < catalog_->size(); ++id) {
    const Entry& e = entries_[static_cast<size_t>(id)];
    if (!e.layout.has_value() || e.pins > 0) continue;
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
