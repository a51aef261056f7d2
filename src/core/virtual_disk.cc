#include "core/virtual_disk.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "util/hot_path.h"

namespace stagger {

int64_t ExtendedGcd(int64_t a, int64_t b, int64_t* x, int64_t* y) {
  if (b == 0) {
    *x = 1;
    *y = 0;
    return a;
  }
  int64_t x1, y1;
  const int64_t g = ExtendedGcd(b, a % b, &x1, &y1);
  *x = y1;
  *y = x1 - (a / b) * y1;
  return g;
}

Result<int64_t> ModInverse(int64_t a, int64_t m) {
  if (m < 1) return Status::InvalidArgument("ModInverse: modulus must be >= 1");
  if (m == 1) return int64_t{0};
  int64_t x, y;
  const int64_t g = ExtendedGcd(PositiveMod(a, m), m, &x, &y);
  if (g != 1) {
    return Status::NotFound("ModInverse: " + std::to_string(a) + " not invertible mod " +
                            std::to_string(m));
  }
  return PositiveMod(x, m);
}

Result<VirtualDiskFrame> VirtualDiskFrame::Create(int32_t num_disks, int32_t stride) {
  if (num_disks < 1) {
    return Status::InvalidArgument("VirtualDiskFrame: need at least one disk");
  }
  if (stride < 1 || stride > num_disks) {
    return Status::InvalidArgument("VirtualDiskFrame: stride must be in [1, D]");
  }
  const int32_t g = static_cast<int32_t>(
      std::gcd(static_cast<int64_t>(num_disks), static_cast<int64_t>(stride)));
  // (k/g) is invertible modulo (D/g) by construction.
  STAGGER_ASSIGN_OR_RETURN(int64_t inv, ModInverse(stride / g, num_disks / g));
  return VirtualDiskFrame(num_disks, stride, g, inv);
}

std::optional<int64_t> VirtualDiskFrame::AlignmentDelay(int32_t v, int32_t p,
                                                        int64_t t) const {
  // Solve k * delta == p - PhysicalOf(v, t)  (mod D), delta >= 0 minimal.
  const int64_t c = PositiveMod(p - PhysicalOf(v, t), num_disks_);
  if (c % gcd_ != 0) return std::nullopt;
  const int64_t m = period();
  return PositiveMod((c / gcd_) * stride_inverse_, m);
}

STAGGER_HOT_PATH std::optional<std::pair<int32_t, int64_t>>
VirtualDiskFrame::FindEarliestFreeVdisk(const VdiskOccupancy& occupied,
                                        const Bitmap& taken, int64_t t,
                                        int32_t target, int64_t max_delay,
                                        bool skip_zero) const {
  // Delays beyond the period revisit the same virtual disks.
  const int32_t p = period();
  const int64_t limit = std::min<int64_t>(max_delay, p - 1);
  const int64_t first = skip_zero ? 1 : 0;
  if (limit < first) return std::nullopt;
  // The delay-delta candidate sits at orbit offset i0 - delta in the
  // residue block of the delta = 0 candidate, so delays [first, limit]
  // form the ring range that starts at i0 - limit, and the smallest free
  // delay is that range's last free offset.
  const auto [base, i0] = OrbitBlockAndOffset(VirtualOf(target, t));
  int32_t start = i0 - static_cast<int32_t>(limit);
  if (start < 0) start += p;
  const int32_t i = occupied.by_orbit().LastClearInRing(
      taken, base, p, start, static_cast<int32_t>(limit - first) + 1);
  if (i < 0) return std::nullopt;
  int32_t offset = start + i;
  if (offset >= p) offset -= p;
  return std::make_pair(VdiskAtOrbit(base + offset), limit - i);
}

STAGGER_HOT_PATH std::optional<std::pair<int32_t, int64_t>>
VirtualDiskFrame::FindLatestFreeVdisk(const VdiskOccupancy& occupied,
                                      int64_t t, int32_t target, int64_t tau,
                                      int64_t max_resume) const {
  if (max_resume < tau) return std::nullopt;
  // A candidate at delay delta resumes at tau + delta, boosted by whole
  // periods up to max_resume; the boosted value is max_resume - c with
  // c = (max_resume - tau - delta) mod P, so scanning c upward visits
  // resumes in strictly decreasing order.  Only c <= max_resume - tau is
  // feasible: past it delta wraps to max_resume - tau - c + P and the
  // smallest alignment already overshoots max_resume.
  const int32_t p = period();
  const int64_t slack = max_resume - tau;
  const int32_t len = static_cast<int32_t>(std::min<int64_t>(p - 1, slack)) + 1;
  // delta falls by one per step of c, so v advances by +k: +1 in orbit
  // order from the c = 0 candidate.
  const int64_t delta0 = slack < p ? slack : slack % p;
  const auto [base, i0] = OrbitBlockAndOffset(VirtualOf(target, t + delta0));
  const Bitmap& orbit = occupied.by_orbit();
  const int32_t c = orbit.FirstClearInRing(orbit, base, p, i0, len);
  if (c < 0) return std::nullopt;
  int32_t offset = i0 + c;
  if (offset >= p) offset -= p;
  return std::make_pair(VdiskAtOrbit(base + offset), max_resume - c);
}

}  // namespace stagger
