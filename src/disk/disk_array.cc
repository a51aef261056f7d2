#include "disk/disk_array.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace stagger {

Result<DiskArray> DiskArray::Create(int32_t num_disks, const DiskParameters& params,
                                    int32_t num_spares) {
  if (num_disks < 1) {
    return Status::InvalidArgument("disk array needs at least one disk");
  }
  if (num_spares < 0) {
    return Status::InvalidArgument("spare count must be >= 0");
  }
  STAGGER_RETURN_NOT_OK(params.Validate());
  std::vector<Disk> drives;
  drives.reserve(static_cast<size_t>(num_disks + num_spares));
  for (int32_t i = 0; i < num_disks + num_spares; ++i) {
    drives.emplace_back(params);
  }
  return DiskArray(std::move(drives), params, num_disks, num_spares);
}

DiskArray::DiskArray(std::vector<Disk> drives, DiskParameters params,
                     int32_t num_slots, int32_t num_spares)
    : drives_(std::move(drives)), params_(params), num_slots_(num_slots),
      num_spares_(num_spares), clock_(std::make_unique<IntervalClock>()),
      latent_errors_(std::make_unique<LatentErrorMap>(num_slots)) {
  latent_errors_->AttachClock(clock_.get());
  for (int32_t s = 0; s < num_spares; ++s) free_spares_.push_back(num_slots + s);
  busy_drives_.Resize(static_cast<int32_t>(drives_.size()));
  unavailable_slots_.Resize(num_slots);
}

STAGGER_HOT_PATH void DiskArray::ReserveRotated(const Bitmap& vdisks,
                                                int32_t rot) {
  STAGGER_DCHECK(vdisks.size() == num_slots_ && rot >= 0 && rot < num_slots_);
#ifndef NDEBUG
  vdisks.ForEachSet([&](int32_t v) {
    const int32_t slot = v + rot >= num_slots_ ? v + rot - num_slots_ : v + rot;
    STAGGER_DCHECK(!busy_drives_.Test(slot))
        << "slot " << slot << " reserved twice in one interval";
    STAGGER_DCHECK(drives_[static_cast<size_t>(slot)].available())
        << "slot " << slot << " reserved while failed or stalled";
  });
#endif
  busy_drives_.OrRotated(vdisks, rot);
}

STAGGER_HOT_PATH int32_t DiskArray::IdleAvailableCount() const {
  int32_t idle = 0;
  for (int32_t w = 0; w < unavailable_slots_.num_words(); ++w) {
    idle += std::popcount(IdleAvailableWord(w));
  }
  return idle;
}

STAGGER_HOT_PATH int32_t DiskArray::FirstIdleAvailableSlot(
    const Bitmap& exclude) const {
  STAGGER_DCHECK(exclude.size() == num_slots_);
  for (int32_t w = 0; w < unavailable_slots_.num_words(); ++w) {
    const uint64_t free = IdleAvailableWord(w) & ~exclude.word(w);
    if (free == 0) continue;
    const int32_t slot = (w << 6) + std::countr_zero(free);
    STAGGER_DCHECK(IsAvailable(slot) && !SlotBusy(slot) && !exclude.Test(slot))
        << "slot scan returned unusable slot " << slot;
    return slot;
  }
  return -1;
}

void DiskArray::NoteAvailabilityChange(DiskId slot, bool was) {
  const bool now = disk(slot).available();
  if (was == now) return;
  if (now) {
    unavailable_slots_.Clear(slot);
    --unavailable_count_;
  } else {
    unavailable_slots_.Set(slot);
    ++unavailable_count_;
  }
}

void DiskArray::DropDegradedSlot(DiskId slot) {
  auto it = std::lower_bound(degraded_slots_.begin(), degraded_slots_.end(), slot);
  if (it != degraded_slots_.end() && *it == slot) degraded_slots_.erase(it);
}

void DiskArray::FailDisk(DiskId id) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  if (disk(slot).health() == DiskHealth::kDegraded) DropDegradedSlot(slot);
  disk(slot).Fail();
  NoteAvailabilityChange(slot, was);
  NotifyHealthChange();
}

void DiskArray::StallDisk(DiskId id) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  disk(slot).Stall();
  NoteAvailabilityChange(slot, was);
  NotifyHealthChange();
}

void DiskArray::DegradeDisk(DiskId id, int32_t percent) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  disk(slot).Degrade(percent);
  auto it = std::lower_bound(degraded_slots_.begin(), degraded_slots_.end(), slot);
  STAGGER_CHECK(it == degraded_slots_.end() || *it != slot);
  degraded_slots_.insert(it, slot);
  NoteAvailabilityChange(slot, was);
  NotifyHealthChange();
}

void DiskArray::RecoverDisk(DiskId id) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  if (disk(slot).health() == DiskHealth::kDegraded) DropDegradedSlot(slot);
  disk(slot).Recover();
  NoteAvailabilityChange(slot, was);
  NotifyHealthChange();
}

Result<int32_t> DiskArray::AcquireSpare() {
  if (free_spares_.empty()) {
    return Status::ResourceExhausted("no free hot-spare drive");
  }
  const int32_t drive = free_spares_.back();
  free_spares_.pop_back();
  claimed_spares_.push_back(drive);
  return drive;
}

void DiskArray::ReturnSpare(int32_t drive) {
  auto it = std::find(claimed_spares_.begin(), claimed_spares_.end(), drive);
  STAGGER_CHECK(it != claimed_spares_.end())
      << "drive " << drive << " is not a claimed spare";
  claimed_spares_.erase(it);
  free_spares_.push_back(drive);
}

void DiskArray::PromoteSpare(DiskId slot, int32_t drive) {
  STAGGER_CHECK(slot >= 0 && slot < num_slots_) << "bad slot " << slot;
  auto it = std::find(claimed_spares_.begin(), claimed_spares_.end(), drive);
  STAGGER_CHECK(it != claimed_spares_.end())
      << "drive " << drive << " is not a claimed spare";
  Disk& old = drives_[static_cast<size_t>(slot)];
  STAGGER_CHECK(old.health() == DiskHealth::kFailed)
      << "slot " << slot << " promoted while its drive is not failed";
  Disk& fresh = drives_[static_cast<size_t>(drive)];
  // Carry the slot's storage accounting over so later frees balance.
  const int64_t used = old.used_cylinders();
  STAGGER_CHECK_OK(fresh.AllocateStorage(used));
  old.FreeStorage(used);
  claimed_spares_.erase(it);
  // Swap the spare into the slot's index: the drive and its busy bit (a
  // rebuild write may have reserved it this interval).  The dead drive
  // stays retired at the spare's index: it is reachable by no slot and
  // never returns to the spare pool.
  std::swap(old, fresh);
  const bool slot_busy = busy_drives_.Test(slot);
  if (busy_drives_.Test(drive) != slot_busy) {
    busy_drives_.Set(slot_busy ? drive : slot);
    busy_drives_.Clear(slot_busy ? slot : drive);
  }
  // The slot flips from failed to healthy: its new drive is fresh.
  NoteAvailabilityChange(slot, /*was=*/false);
  // The rebuilt content was reconstructed from verified survivors onto
  // fresh media, so whatever latent errors the dead drive carried are
  // gone with it.
  latent_errors_->DropDiskRebuilt(slot);
  NotifyHealthChange();
}

bool DiskArray::SetHealthListener(std::function<void()> fn) {
  if (fn && health_listener_) return false;
  health_listener_ = fn;
  latent_errors_->SetInjectListener(std::move(fn));
  return true;
}

STAGGER_HOT_PATH void DiskArray::EndInterval() {
  // Count the busy slots; the spares' bits are masked out.  Idle words
  // are common (a light load leaves most of the array idle) and skip the
  // count.
  int64_t busy = 0;
  for (int32_t w = 0; w < unavailable_slots_.num_words(); ++w) {
    const uint64_t word = busy_drives_.word(w) & SlotMask(w);
    if (word != 0) busy += std::popcount(word);
  }
  busy_slot_intervals_ += busy;
  busy_drives_.ClearAll();
  ++clock_->intervals;
  if (!degraded_slots_.empty()) {
    // Advance the stragglers' duty cycles so the availability bitmap is
    // right for the interval that just opened.
    for (const DiskId slot : degraded_slots_) {
      Disk& d = disk(slot);
      const bool was = d.available();
      d.AdvanceDegradedInterval();
      NoteAvailabilityChange(slot, was);
    }
    degraded_disk_intervals_ += static_cast<int64_t>(degraded_slots_.size());
  }
}

void DiskArray::SkipIntervals(int64_t n, int64_t busy) {
  STAGGER_DCHECK(n >= 0 && busy >= 0 && busy <= num_slots_);
  STAGGER_DCHECK(degraded_slots_.empty());
#ifndef NDEBUG
  for (int32_t w = 0; w < busy_drives_.num_words(); ++w) {
    STAGGER_DCHECK(busy_drives_.word(w) == 0)
        << "intervals skipped with reservations open";
  }
#endif
  busy_slot_intervals_ += n * busy;
  clock_->intervals += n;
}

int64_t DiskArray::TotalCylinders() const {
  int64_t total = 0;
  for (int32_t d = 0; d < num_slots_; ++d) total += disk(d).total_cylinders();
  return total;
}

int64_t DiskArray::FreeCylinders() const {
  int64_t free = 0;
  for (int32_t d = 0; d < num_slots_; ++d) free += disk(d).free_cylinders();
  return free;
}

double DiskArray::MeanUtilization() const {
  const int64_t slot_intervals = int64_t{num_slots_} * clock_->intervals;
  return slot_intervals == 0 ? 0.0
                             : static_cast<double>(busy_slot_intervals_) /
                                   static_cast<double>(slot_intervals);
}

int64_t DiskArray::MaxUsedCylinders() const {
  int64_t best = 0;
  for (int32_t d = 0; d < num_slots_; ++d) {
    best = std::max(best, disk(d).used_cylinders());
  }
  return best;
}

int64_t DiskArray::MinUsedCylinders() const {
  int64_t best = num_slots_ == 0 ? 0 : disk(0).used_cylinders();
  for (int32_t d = 0; d < num_slots_; ++d) {
    best = std::min(best, disk(d).used_cylinders());
  }
  return best;
}

}  // namespace stagger
