#include "core/admission.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <utility>

#include "util/check.h"
#include "util/hot_path.h"

namespace stagger {

namespace {

// A paused stream's first re-admission attempt comes this many
// intervals after the pause; each failed attempt doubles the wait, up
// to the cap.
constexpr int32_t kRetryBackoffIntervals = 1;
constexpr int32_t kMaxRetryBackoffIntervals = 64;

// The low `n` bits, n in [0, 64].
uint64_t LowBits(int64_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

// Bit i of the result: `op` over bits i, i + step, ..., i + step*(w-1)
// of `x`, in O(log w) shifts; step * (w - 1) < 64.
template <typename Op>
uint64_t FoldDown(uint64_t x, int64_t step, int64_t w, Op op) {
  for (int64_t covered = 1; covered < w;) {
    const int64_t more = std::min(covered, w - covered);
    x = op(x, x >> (step * more));
    covered += more;
  }
  return x;
}

}  // namespace

PlanWait WaitOverHorizon(const VdiskOccupancy& occupied, int64_t t, int32_t v0,
                         int32_t degree, int64_t lookahead) {
  const int32_t d = occupied.frame().num_disks();
  const int64_t k = occupied.frame().stride();
  const int64_t m = degree;
  const int64_t word = std::min(64, d);
  // The plans of steps [0, s_last] read the lanes' candidates
  // v0 + j - k*e, j in [0, M), e in [0, s_last + L]: the window that
  // ends at v0 + M - 1.
  const auto window = [&](int64_t s_last) {
    const int64_t len = k * (s_last + lookahead) + m;
    int64_t first = v0 + m - len;
    if (first < 0) first += d;
    return PlanWait{t + s_last + 1, static_cast<int32_t>(first),
                    static_cast<int32_t>(len)};
  };
  const int64_t h = (word - m) / k - lookahead;
  const int64_t n = k * (h + lookahead) + m;
  // Bit i of `free` is virtual disk lo + i; lane j's candidate at step
  // s, delay delta is bit k*(h - s - delta + L) + j with L = lookahead.
  int32_t lo = v0 - static_cast<int32_t>(n - m);
  if (lo < 0) lo += d;
  const uint64_t free =
      ~occupied.by_vdisk().WindowBits(lo, static_cast<int32_t>(n)) &
      LowBits(n);
  // Bit i of `any`: a free candidate among bits i, i + k, ..., i + kL;
  // bit k*(h - s) of `all`: every lane has one at step s.
  const uint64_t any = FoldDown(free, k, lookahead + 1, std::bit_or<>());
  const uint64_t all = FoldDown(any, 1, m, std::bit_and<>());
  // Steps [1, h] are bits k*(h - 1), ..., k, 0: the highest is the first.
  uint64_t every_kth = 1;
  for (int64_t span = k; span < 64; span *= 2) every_kth |= every_kth << span;
  uint64_t steps = all & every_kth & LowBits(k * (h - 1) + 1);
  // Lanes r, r + k, r + 2k, ... (one orbit block's neighbours, `lanes`
  // of them) pick distinct disks: at the step of bit b their candidates
  // are bits b + r + k*u, u in [0, L + lanes - 1], of which `lanes` must
  // be free (Hall's condition).  That holds where b lies in [p' - r -
  // k*(L + lanes - 1), p - r] for `lanes` consecutive free bits p < ...
  // < p' of the run's bits.  A run of one lane is `all`'s test.
  for (int64_t r = 0; r < std::min(k, m) && steps != 0; ++r) {
    const int64_t lanes = (m - r + k - 1) / k;
    if (lanes == 1) break;
    // The run's free bits from p on, and from p' on.
    uint64_t from_p = free & (every_kth << r);
    uint64_t from_last = from_p;
    for (int64_t i = 1; i < lanes; ++i) from_last &= from_last - 1;
    uint64_t distinct = 0;
    for (; from_last != 0; from_p &= from_p - 1, from_last &= from_last - 1) {
      const int64_t lo = std::max<int64_t>(
          0, std::countr_zero(from_last) - r - k * (lookahead + lanes - 1));
      distinct |= LowBits(std::countr_zero(from_p) - r + 1) & ~LowBits(lo);
    }
    steps &= distinct;
  }
  if (steps != 0) return window(h - (63 - std::countl_zero(steps)) / k - 1);
  return window(h);
}

AdmissionQueue::AdmissionQueue(const VirtualDiskFrame& frame,
                               const VdiskOccupancy& occupied,
                               const DiskArray& disks, AdmissionPolicy policy,
                               int64_t fragmented_lookahead,
                               DegradedPolicy degraded_policy,
                               int64_t max_pause_intervals)
    : frame_(frame), occupied_(occupied), disks_(disks), policy_(policy),
      fragmented_lookahead_(fragmented_lookahead),
      degraded_policy_(degraded_policy),
      max_pause_intervals_(max_pause_intervals),
      waiters_(kWaiterSlots) {
  scratch_taken_.Resize(frame.num_disks());
}

void AdmissionQueue::PushPaused(Entry entry, int64_t t) {
  entry.paused_at_interval = t;
  entry.retry_at_interval = t + kRetryBackoffIntervals;
  entry.backoff = kRetryBackoffIntervals;
  entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(paused_),
                  entry);
  ++paused_;
}

bool AdmissionQueue::Erase(RequestId id) {
  // Called between passes, or from a give-up's listener, after the pass
  // erased its done entries and went back to the head.
  auto it = std::ranges::find(entries_, id, &Entry::id);
  if (it == entries_.end()) return false;
  if (it->paused()) --paused_;
  entries_.erase(it);
  return true;
}

STAGGER_HOT_PATH const AdmissionQueue::Entry* AdmissionQueue::Next(
    std::optional<AdmitPlan>* plan) {
  // A plan depends on the entry only through its (start disk, degree,
  // parity), and a failed one leaves its key's waiter, which skips the
  // key's entries, paused remainders included, while its wait holds.
  // No entry from the cursor on is done: the pass steps past each one it
  // admits, and erases them all before it goes back to the head.  The
  // entries do not move within one call, and no virtual disk is freed.
  const int64_t frees = occupied_.frees();
  for (auto it = entries_.begin() + static_cast<std::ptrdiff_t>(cursor_);
       it != entries_.end(); ++it) {
    Entry& e = *it;
    if (e.paused()) {
      if (t_ < e.retry_at_interval) continue;
      if (max_pause_intervals_ > 0 &&
          t_ - e.paused_at_interval > max_pause_intervals_) {
        // Give up: the viewer's display is interrupted for good.  The
        // scheduler tells the owner, who may submit or cancel entries,
        // so the pass goes on from the head, where every entry left
        // before this one waits out its backoff.
        given_up_ = e;
        e.done = true;
        --paused_;
        std::erase_if(entries_, [](const Entry& x) { return x.done; });
        cursor_ = 0;
        plan->reset();
        return &given_up_;
      }
    }
    const DisplayRequest& req = e.req;
    const int32_t shape = req.degree * 2 + (req.parity ? 1 : 0);
    const uint32_t hash = static_cast<uint32_t>(req.start_disk) * 0x9E3779B1u ^
                          static_cast<uint32_t>(shape) * 0x85EBCA77u;
    static_assert(kWaiterSlots == 256);
    Waiter& waiter = waiters_[hash >> 24];
    const bool known_to_fail = waiter.start_disk == req.start_disk &&
                               waiter.shape == shape &&
                               StillFails(&waiter, frees);
#ifndef STAGGER_AUDIT
    if (known_to_fail && !e.paused()) continue;
#endif
    const Stripe stripe = Stripe::At(frame_.num_disks(), req.start_disk,
                                     req.degree, req.parity);
    if (known_to_fail) {
#ifdef STAGGER_AUDIT
      STAGGER_CHECK(!PlanAdmission(stripe).has_value())
          << "request " << e.id << " skipped by its key's waiter would start"
          << " at interval " << t_;
#endif
    } else if (!e.paused() || !FirstRowUnreadable(stripe, e.first_row)) {
      // (An unreadable first row fails the attempt without a plan, and
      // leaves no waiter.)
      std::optional<AdmitPlan> planned = PlanAdmission(stripe);
      if (planned.has_value()) {
        *plan = std::move(planned);
        if (e.paused()) --paused_;
        e.done = true;
        cursor_ = static_cast<size_t>(it - entries_.begin()) + 1;
        return &e;
      }
      int32_t v0 = stripe.first - rotation_;
      if (v0 < 0) v0 += frame_.num_disks();
      const PlanWait wait = WaitAfterFailedPlan(
          occupied_, t_, v0, req.degree,
          policy_ == AdmissionPolicy::kFragmented ? fragmented_lookahead_ : 0);
      waiter = Waiter{wait.wake, frees, req.start_disk, shape, wait.first,
                      wait.len};
    }
    // A failed attempt grows the backoff, so max_pause_intervals can
    // give up a remainder that only a repair would let through.
    if (e.paused()) {
      e.backoff = std::min(e.backoff * 2, kMaxRetryBackoffIntervals);
      e.retry_at_interval = t_ + e.backoff;
    }
  }
  std::erase_if(entries_, [](const Entry& x) { return x.done; });
  return nullptr;
}

STAGGER_HOT_PATH std::optional<AdmitPlan> AdmissionQueue::PlanContiguous(
    const Stripe& stripe) const {
  // The request starts only when the virtual disks *currently over* its
  // first fragments are all idle (alignment delay zero): one modular
  // window test over the occupancy bitmap.  The virtual disk over
  // physical disk p is p - rotation (mod D).
  int32_t v0 = stripe.first - rotation_;
  if (v0 < 0) v0 += frame_.num_disks();
  const int32_t m = stripe.degree;
  if (!occupied_.WindowClear(v0, m)) return std::nullopt;
  if (degraded_policy_ != DegradedPolicy::kNone &&
      disks_.UnavailableCount() > 0) {
    // The stream reads its first stripe immediately — refuse to start a
    // display whose first reads land on unavailable disks (it would
    // pause on its very first interval).  Under kReconstruct a single
    // lost fragment is tolerable when the stripe's parity disk can
    // stand in for it.
    int32_t down = 0;
    for (int32_t j = 0; j < m; ++j) {
      if (!disks_.IsAvailable(stripe.Slot(j))) ++down;
    }
    if (down > 0) {
      const bool reconstructable =
          degraded_policy_ == DegradedPolicy::kReconstruct &&
          stripe.parity >= 0 && down == 1 &&
          disks_.IsAvailable(stripe.parity);
      if (!reconstructable) return std::nullopt;
    }
  }
  // One lane: the M fragments read together from M adjacent disks.
  std::optional<AdmitPlan> plan(std::in_place);
  plan->lanes.Assign(1);
  plan->lanes[0].vdisk = v0;
  plan->lanes[0].width = m;
  return plan;
}

STAGGER_HOT_PATH std::optional<AdmitPlan> AdmissionQueue::PlanFragmented(
    const Stripe& stripe) {
  const int32_t m = stripe.degree;
  const bool check_health = degraded_policy_ != DegradedPolicy::kNone &&
                            disks_.UnavailableCount() > 0;
  std::optional<AdmitPlan> plan(std::in_place);
  LaneArray& lanes = plan->lanes;
  lanes.Assign(m);
  int64_t delta_max = 0;

  // scratch_taken_ carries the virtual disks tentatively picked for
  // earlier lanes of this attempt, in orbit order (the search's view);
  // set bits are recorded so teardown is O(m), not O(D).
  STAGGER_DCHECK(scratch_taken_bits_.empty());
  bool ok = true;
  for (int32_t j = 0; j < m; ++j) {
    const int32_t target = stripe.Slot(j);
    // A lane with alignment delay zero reads `target` this interval;
    // skip such candidates while the disk is down (later-aligned lanes
    // are still fine — health at their read time is unknowable).
    const bool target_down = check_health && !disks_.IsAvailable(target);
    const auto found = frame_.FindEarliestFreeVdisk(
        occupied_, scratch_taken_, t_, target, fragmented_lookahead_,
        target_down);
    if (!found.has_value()) {
      ok = false;
      break;
    }
    const int32_t taken_pos = frame_.OrbitPos(found->first);
    scratch_taken_.Set(taken_pos);
    // stagger-lint: allow(hot-path-alloc) -- scratch_taken_bits_ keeps its capacity across admissions (clear(), never shrink), so this amortizes to zero allocations in steady state
    scratch_taken_bits_.push_back(taken_pos);
    lanes[static_cast<size_t>(j)].vdisk = found->first;
    lanes[static_cast<size_t>(j)].next_read_tau = found->second;
    delta_max = std::max(delta_max, found->second);
  }
  for (int32_t pos : scratch_taken_bits_) scratch_taken_.Clear(pos);
  scratch_taken_bits_.clear();
  if (!ok) return std::nullopt;

  // A lane aligned before delta_max reads ahead into buffer, which
  // makes the stream fragmented (Algorithm 1).
  plan->delta_max = delta_max;
  for (int32_t j = 0; j < m; ++j) {
    plan->fragmented |= lanes[static_cast<size_t>(j)].next_read_tau < delta_max;
  }
  return plan;
}

bool AdmissionQueue::FirstRowUnreadable(const Stripe& stripe,
                                        int64_t row) const {
  const LatentErrorMap& latent = disks_.latent_errors();
  if (degraded_policy_ != DegradedPolicy::kPause || !latent.active()) {
    return false;
  }
  for (int32_t j = 0; j < stripe.degree; ++j) {
    if (latent.IsCorrupt(stripe.Slot(j), row)) return true;
  }
  return false;
}

}  // namespace stagger
