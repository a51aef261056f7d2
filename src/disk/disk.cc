#include "disk/disk.h"

#include <string>

#include "util/check.h"

namespace stagger {

Status Disk::AllocateStorage(int64_t cylinders) {
  STAGGER_CHECK(cylinders >= 0);
  if (cylinders > free_cylinders_) {
    return Status::ResourceExhausted(
        "drive has " + std::to_string(free_cylinders_) +
        " free cylinders, need " + std::to_string(cylinders));
  }
  free_cylinders_ -= cylinders;
  return Status::OK();
}

void Disk::FreeStorage(int64_t cylinders) {
  STAGGER_CHECK(cylinders >= 0);
  free_cylinders_ += cylinders;
  STAGGER_CHECK(free_cylinders_ <= total_cylinders_)
      << "drive freed more storage than allocated";
}

void Disk::Fail() {
  if (available()) down_since_ = now_intervals();
  health_ = DiskHealth::kFailed;
  degraded_percent_ = 0;
  degraded_credit_ = 0;
  degraded_serving_ = false;
}

void Disk::Stall() {
  if (health_ == DiskHealth::kHealthy) {
    down_since_ = now_intervals();
    health_ = DiskHealth::kStalled;
  }
}

void Disk::Degrade(int32_t percent) {
  STAGGER_CHECK(health_ == DiskHealth::kHealthy)
      << "drive degraded while not healthy";
  STAGGER_CHECK(percent >= 1 && percent <= 99)
      << "drive degrade percent " << percent
      << " outside [1, 99]";
  health_ = DiskHealth::kDegraded;
  degraded_percent_ = percent;
  degraded_credit_ = 0;
  degraded_serving_ = false;
  down_since_ = now_intervals();
}

void Disk::AdvanceDegradedInterval() {
  STAGGER_CHECK(health_ == DiskHealth::kDegraded);
  const bool was = degraded_serving_;
  degraded_credit_ += degraded_percent_;
  degraded_serving_ = degraded_credit_ >= 100;
  if (degraded_serving_) degraded_credit_ -= 100;
  if (was && !degraded_serving_) {
    down_since_ = now_intervals();
  } else if (!was && degraded_serving_) {
    down_accumulated_ += now_intervals() - down_since_;
  }
}

void Disk::Recover() {
  if (!available()) down_accumulated_ += now_intervals() - down_since_;
  health_ = DiskHealth::kHealthy;
  degraded_percent_ = 0;
  degraded_credit_ = 0;
  degraded_serving_ = false;
}

}  // namespace stagger
