#include "storage/layout.h"

#include <algorithm>
#include <utility>

namespace stagger {

Result<StaggeredLayout> StaggeredLayout::Create(
    int32_t num_disks, int32_t start_disk, int32_t stride, int32_t degree,
    bool parity, std::shared_ptr<const StrideWalk> walk) {
  if (num_disks < 1) {
    return Status::InvalidArgument("layout: need at least one disk");
  }
  if (start_disk < 0 || start_disk >= num_disks) {
    return Status::InvalidArgument("layout: start disk out of range");
  }
  if (stride < 1 || stride > num_disks) {
    return Status::InvalidArgument("layout: stride must be in [1, D]");
  }
  if (degree < 1 || degree > num_disks) {
    return Status::InvalidArgument("layout: degree must be in [1, D]");
  }
  if (parity && degree + 1 > num_disks) {
    // The parity disk is the (M+1)-th consecutive disk of the stripe;
    // it is disjoint from the data disks only while M + 1 <= D.
    return Status::InvalidArgument(
        "layout: parity requires degree + 1 <= D so the parity disk is "
        "disjoint from its stripe");
  }
  if (walk == nullptr) {
    walk = MakeStrideWalk(num_disks, stride);
  } else if (walk->num_disks_ != num_disks || walk->stride_ != stride) {
    return Status::InvalidArgument(
        "layout: the stride walk belongs to another (D, k)");
  }
  return StaggeredLayout(num_disks, start_disk, stride, degree, parity,
                         std::move(walk));
}

std::shared_ptr<const StrideWalk> StaggeredLayout::MakeStrideWalk(
    int32_t num_disks, int32_t stride) {
  STAGGER_CHECK(num_disks >= 1 && stride >= 1 && stride <= num_disks);
  const int32_t g = std::gcd(num_disks, stride);
  const int32_t period = num_disks / g;
  auto walk = std::make_shared<StrideWalk>();
  walk->num_disks_ = num_disks;
  walk->stride_ = stride;
  walk->starts_.resize(2 * static_cast<size_t>(period));
  walk->row_of_.resize(static_cast<size_t>(period));
  int32_t disk = 0;
  for (int32_t r = 0; r < period; ++r) {
    walk->starts_[static_cast<size_t>(r)] = disk;
    walk->starts_[static_cast<size_t>(r + period)] = disk;
    walk->row_of_[static_cast<size_t>(disk / g)] = r;
    disk += stride;
    if (disk >= num_disks) disk -= num_disks;
  }
  return walk;
}

StaggeredLayout::StaggeredLayout(int32_t num_disks, int32_t start_disk,
                                 int32_t stride, int32_t degree, bool parity,
                                 std::shared_ptr<const StrideWalk> walk)
    : num_disks_(num_disks), start_disk_(start_disk), stride_(stride),
      degree_(degree), parity_(parity),
      period_(num_disks / std::gcd(num_disks, stride)),
      walk_(std::move(walk)) {
  if (period_ > 1) {
    // ceil(2^64 / P) == floor((2^64 - 1) / P) + 1 for every P >= 2.
    period_magic_ =
        ~uint64_t{0} / static_cast<uint64_t>(period_) + uint64_t{1};
  }
  const int32_t g = num_disks / period_;
  start_residue_ = start_disk % g;
  row_first_ = walk_->starts_.data() +
               walk_->row_of_[static_cast<size_t>(start_disk / g)];
}

int32_t StaggeredLayout::UniqueDisksUsed(int64_t num_subobjects) const {
  std::vector<char> used(static_cast<size_t>(num_disks_), 0);
  for (int64_t i = 0; i < num_subobjects; ++i) {
    const Stripe stripe = StripeOf(i);
    for (int32_t j = 0; j < stripe.width(); ++j) {
      used[static_cast<size_t>(stripe.Slot(j))] = 1;
    }
    // Once every disk is touched further subobjects change nothing; the
    // walk revisits after at most D/gcd(D,k) steps.
    if (i >= num_disks_) break;
  }
  return static_cast<int32_t>(std::count(used.begin(), used.end(), 1));
}

std::vector<int64_t> StaggeredLayout::FragmentsPerDisk(int64_t num_subobjects) const {
  std::vector<int64_t> counts(static_cast<size_t>(num_disks_), 0);
  // The start-disk walk has period P = D / gcd(D, k); count full periods
  // in closed form and walk only the remainder.
  const int64_t g = std::gcd(static_cast<int64_t>(num_disks_),
                             static_cast<int64_t>(stride_));
  const int64_t period = num_disks_ / g;
  const int64_t full = num_subobjects / period;
  const int64_t rest = num_subobjects % period;

  auto add_subobject = [&](int64_t i, int64_t times) {
    const Stripe stripe = StripeOf(i);
    for (int32_t j = 0; j < stripe.width(); ++j) {
      counts[static_cast<size_t>(stripe.Slot(j))] += times;
    }
  };
  if (full > 0) {
    for (int64_t i = 0; i < period; ++i) add_subobject(i, full);
  }
  for (int64_t i = 0; i < rest; ++i) add_subobject(i, 1);
  return counts;
}

bool StaggeredLayout::IsSkewFree(int64_t num_subobjects) const {
  std::vector<int64_t> counts = FragmentsPerDisk(num_subobjects);
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  // A perfectly balanced object differs by at most one fragment across
  // disks (exact equality is impossible unless D divides the total).
  return *hi - *lo <= 1;
}

}  // namespace stagger
