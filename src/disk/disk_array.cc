#include "disk/disk_array.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace stagger {

namespace {

/// Exchanges bits i and j of the word array `words`.
void SwapBits(uint64_t* words, uint32_t i, uint32_t j) {
  const uint64_t differ =
      ((words[i >> 6] >> (i & 63)) ^ (words[j >> 6] >> (j & 63))) & 1;
  words[i >> 6] ^= differ << (i & 63);
  words[j >> 6] ^= differ << (j & 63);
}

}  // namespace

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
  for (Disk& d : drives_) d.AttachClock(clock_.get());
  busy_drives_.Resize(static_cast<int32_t>(drives_.size()));
  busy_planes_.assign(
      kCountPlanes * static_cast<size_t>(busy_drives_.num_words()), 0);
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
}

void DiskArray::StallDisk(DiskId id) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  disk(slot).Stall();
  NoteAvailabilityChange(slot, was);
}

void DiskArray::DegradeDisk(DiskId id, int32_t percent) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  disk(slot).Degrade(percent);
  auto it = std::lower_bound(degraded_slots_.begin(), degraded_slots_.end(), slot);
  STAGGER_CHECK(it == degraded_slots_.end() || *it != slot);
  degraded_slots_.insert(it, slot);
  NoteAvailabilityChange(slot, was);
}

void DiskArray::RecoverDisk(DiskId id) {
  const DiskId slot = Wrap(id);
  const bool was = disk(slot).available();
  if (disk(slot).health() == DiskHealth::kDegraded) DropDegradedSlot(slot);
  disk(slot).Recover();
  NoteAvailabilityChange(slot, was);
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
  // Swap the spare into the slot's index: the drive, its busy bit (a
  // rebuild write may have reserved it this interval) and its count in
  // every plane.  The dead drive stays retired at the spare's index: it
  // is reachable by no slot and never returns to the spare pool.
  std::swap(old, fresh);
  const bool slot_busy = busy_drives_.Test(slot);
  if (busy_drives_.Test(drive) != slot_busy) {
    busy_drives_.Set(slot_busy ? drive : slot);
    busy_drives_.Clear(slot_busy ? slot : drive);
  }
  const size_t words = static_cast<size_t>(busy_drives_.num_words());
  for (size_t b = 0; b < kCountPlanes; ++b) {
    SwapBits(&busy_planes_[b * words], static_cast<uint32_t>(slot),
             static_cast<uint32_t>(drive));
  }
  // The slot flips from failed to healthy: its new drive is fresh.
  NoteAvailabilityChange(slot, /*was=*/false);
  // The rebuilt content was reconstructed from verified survivors onto
  // fresh media, so whatever latent errors the dead drive carried are
  // gone with it.
  latent_errors_->DropDiskRebuilt(slot);
}

int64_t DiskArray::BusyIntervals(size_t drive) const {
  const size_t words = static_cast<size_t>(busy_drives_.num_words());
  const size_t w = drive >> 6;
  const uint32_t bit = static_cast<uint32_t>(drive) & 63;
  uint64_t count = 0;
  for (size_t b = 0; b < kCountPlanes; ++b) {
    count |= ((busy_planes_[b * words + w] >> bit) & 1) << b;
  }
  return static_cast<int64_t>(count);
}

STAGGER_HOT_PATH void DiskArray::EndInterval() {
  // Add this interval's busy word into the bit-sliced counters, 64
  // drives per step: each plane takes the carry XOR, and the carry out
  // is the bits that were already set.  The chain stops at the first
  // plane no drive of the word carries into; a drive carries into plane
  // b once per 2^b of its busy intervals, so a word costs a few planes
  // and an idle word none.
  const size_t words = static_cast<size_t>(busy_drives_.num_words());
  for (size_t w = 0; w < words; ++w) {
    uint64_t carry = busy_drives_.word(static_cast<int32_t>(w));
    for (size_t i = w; carry != 0; i += words) {
      STAGGER_DCHECK(i < busy_planes_.size()) << "busy counter overflow";
      const uint64_t plane = busy_planes_[i];
      busy_planes_[i] = plane ^ carry;
      carry &= plane;
    }
  }
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
  double sum = 0.0;
  for (int32_t d = 0; d < num_slots_; ++d) sum += SlotUtilization(d);
  return sum / static_cast<double>(num_slots_);
}

double DiskArray::MaxUtilization() const {
  double best = 0.0;
  for (int32_t d = 0; d < num_slots_; ++d) {
    best = std::max(best, SlotUtilization(d));
  }
  return best;
}

double DiskArray::MinUtilization() const {
  double best = 1.0;
  for (int32_t d = 0; d < num_slots_; ++d) {
    best = std::min(best, SlotUtilization(d));
  }
  return best;
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
