#include "disk/disk.h"

#include <string>

#include "util/check.h"

namespace stagger {

Status Disk::StorageShortfall(int64_t cylinders) const {
  return Status::ResourceExhausted(
      "drive has " + std::to_string(free_cylinders_) +
      " free cylinders, need " + std::to_string(cylinders));
}

void Disk::Fail() {
  health_ = DiskHealth::kFailed;
  degraded_percent_ = 0;
  degraded_credit_ = 0;
  degraded_serving_ = false;
}

void Disk::Stall() {
  if (health_ == DiskHealth::kHealthy) health_ = DiskHealth::kStalled;
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
}

void Disk::AdvanceDegradedInterval() {
  STAGGER_CHECK(health_ == DiskHealth::kDegraded);
  degraded_credit_ += degraded_percent_;
  degraded_serving_ = degraded_credit_ >= 100;
  if (degraded_serving_) degraded_credit_ -= 100;
}

void Disk::Recover() {
  health_ = DiskHealth::kHealthy;
  degraded_percent_ = 0;
  degraded_credit_ = 0;
  degraded_serving_ = false;
}

}  // namespace stagger
