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

PlanWait WaitAfterFailedPlan(const VdiskOccupancy& occupied, int64_t t,
                             int32_t v0, int32_t degree, int64_t lookahead) {
  const int32_t d = occupied.frame().num_disks();
  const int64_t k = occupied.frame().stride();
  const int64_t m = degree;
  const int64_t word = std::min(64, d);
  if (lookahead >= 64 || k * (lookahead + 1) + m > word) {
    return PlanWait{t + 1, 0, d};  // not even H = 1 fits
  }
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
                               VdiskOccupancy& occupied,
                               const DiskArray& disks, AdmissionPolicy policy,
                               int64_t fragmented_lookahead,
                               DegradedPolicy degraded_policy,
                               int64_t max_pause_intervals)
    : frame_(frame), occupied_(occupied), disks_(disks), policy_(policy),
      fragmented_lookahead_(fragmented_lookahead),
      degraded_policy_(degraded_policy),
      max_pause_intervals_(max_pause_intervals) {
  chains_.fill(-1);
  wheel_.fill(-1);
  scratch_taken_.Resize(frame.num_disks());
}

AdmissionQueue::~AdmissionQueue() {
  for (int32_t w = 0; w < static_cast<int32_t>(waits_.size()); ++w) Unwatch(w);
}

void AdmissionQueue::Push(Entry entry) {
  // A new key's entry joins the next pass; one of a waiting key waits
  // with it, since its plan must fail too.
  entry.order = next_order_++;
  const DisplayRequest& r = entry.req;
  const int64_t key = int64_t{r.start_disk} << 32 | r.degree * 2 | r.parity;
  int32_t w = *Chain(key);
  while (w >= 0 && W(w).key != key) w = W(w).next;
  if (w < 0) w = NewWait(key);
  if (Append(w, entry) == W(w).head) End(w);
}

void AdmissionQueue::PushPaused(Entry entry, int64_t t) {
  entry.paused_at_interval = t;
  entry.retry_at_interval = t + kRetryBackoffIntervals;
  entry.backoff = kRetryBackoffIntervals;
  entry.order = next_order_++ - (int64_t{1} << 62);  // ahead of the rest
  const int32_t w = NewWait(-1);
  Append(w, entry);
  OnWheel(w, entry.retry_at_interval);
  ++paused_;
}

bool AdmissionQueue::Erase(RequestId id) {
  // Called between passes, or from a give-up's listener.
  for (int32_t e = 0; e < static_cast<int32_t>(pool_.size()); ++e) {
    if (E(e).wait < 0 || E(e).id != id) continue;
    Take(e);
    return true;
  }
  return false;
}

int32_t AdmissionQueue::Append(int32_t w, const Entry& entry) {
  if (free_entry_ < 0) {
    free_entry_ = static_cast<int32_t>(pool_.size());
    pool_.emplace_back();
  }
  const int32_t e = std::exchange(free_entry_, E(free_entry_).next);
  E(e) = entry;
  E(e).wait = w;
  E(e).next = -1;
  (W(w).tail >= 0 ? E(W(w).tail).next : W(w).head) = e;
  W(w).tail = e;
  ++size_;
  return e;
}

int32_t AdmissionQueue::NewWait(int64_t key) {
  if (free_ < 0) {
    free_ = static_cast<int32_t>(waits_.size());
    waits_.emplace_back();
  }
  const int32_t w = std::exchange(free_, W(free_).next);
  W(w).key = key;
  W(w).next = std::exchange(*Chain(key), w);
  return w;
}

void AdmissionQueue::Unwatch(int32_t w) {
  if (W(w).watch.len >= 0) occupied_.Remove(W(w).watch);
  W(w).watch.len = -1;
}

void AdmissionQueue::Arm(int32_t w, const Stripe& stripe) {
  int32_t v0 = stripe.first - rotation_;
  if (v0 < 0) v0 += frame_.num_disks();
  const PlanWait wait = WaitAfterFailedPlan(
      occupied_, t_, v0, stripe.degree,
      policy_ == AdmissionPolicy::kFragmented ? fragmented_lookahead_ : 0);
  // A wait that ends with this pass needs no watch (the frees a pass
  // sees, a give-up listener's, come before its first fresh plan), nor
  // the wheel: the pass fails keys in queue order, so next_pass_ stays
  // sorted.
  if (wait.wake == t_ + 1) {
    next_pass_.emplace_back(E(W(w).head).order, w);
    return;
  }
  OnWheel(w, wait.wake);
  occupied_.Add(W(w).watch = {this, w, wait.first, wait.len});
}

void AdmissionQueue::OnWheel(int32_t w, int64_t at) {
  Unwheel(w);
  Wait& wait = W(w);
  wait.wheel_at = at;
  wait.wheel_prev = -1;
  wait.wheel_next = std::exchange(Slot(at), w);
  if (wait.wheel_next >= 0) W(wait.wheel_next).wheel_prev = w;
}

void AdmissionQueue::Unwheel(int32_t w) {
  Wait& wait = W(w);
  if (wait.wheel_at < 0) return;
  (wait.wheel_prev >= 0 ? W(wait.wheel_prev).wheel_next
                        : Slot(wait.wheel_at)) = wait.wheel_next;
  if (wait.wheel_next >= 0) W(wait.wheel_next).wheel_prev = wait.wheel_prev;
  wait.wheel_at = -1;
}

void AdmissionQueue::End(int32_t w) {
  Unwatch(w);
  Unwheel(w);
  const std::pair<int64_t, int32_t> turn{E(W(w).head).order, w};
  woken_.insert(std::upper_bound(woken_.begin() + next_woken_, woken_.end(),
                                 turn),
                turn);
}

void AdmissionQueue::Take(int32_t e) {
  const int32_t w = E(e).wait;
  Wait& wait = W(w);
  if (E(e).paused()) --paused_;
  --size_;
  int32_t prev = -1;
  for (int32_t i = wait.head; i != e; i = E(i).next) prev = i;
  (prev >= 0 ? E(prev).next : wait.head) = E(e).next;
  if (wait.tail == e) wait.tail = prev;
  E(e).wait = -1;
  E(e).next = std::exchange(free_entry_, e);
  if (wait.head >= 0) {
    if (prev < 0 && wait.wheel_at < 0) End(w);  // the next takes its turn
    return;
  }
  // The record goes off its key's chain to the free list.
  Unwatch(w);
  Unwheel(w);
  int32_t* link = Chain(wait.key);
  while (*link != w) link = &W(*link).next;
  *link = wait.next;
  wait.next = std::exchange(free_, w);
}

void AdmissionQueue::BeginPass(int64_t t) {
  t_ = t;
  rotation_ = frame_.RotationAt(t);
  // The keys the last pass failed for one interval join this one.
  woken_.insert(woken_.end(), next_pass_.begin(), next_pass_.end());
  std::inplace_merge(woken_.begin(), woken_.end() - std::ssize(next_pass_),
                     woken_.end());
  next_pass_.clear();
  // Every queued entry has a Wait, and a pass runs at every interval
  // while one does, so each slot is emptied at its interval.
  while (Slot(t) >= 0) End(Slot(t));
}

STAGGER_HOT_PATH const AdmissionQueue::Entry* AdmissionQueue::Next(
    std::optional<AdmitPlan>* plan) {
  // A plan depends on the entry only through its key, so the pass takes
  // the first entry of each ended Wait in queue order: a paused
  // remainder, or a key's first entry, after which the key's next entry
  // takes its turn if it started, and the key waits with all its
  // entries if it failed.  (A paused remainder plans on its own.)  No
  // virtual disk is freed within one call.
  while (next_woken_ < static_cast<std::ptrdiff_t>(woken_.size())) {
    const auto [order, w] = woken_[static_cast<size_t>(next_woken_++)];
    Wait& wait = W(w);
    if (wait.wheel_at >= 0 || wait.head < 0 || E(wait.head).order != order) {
      continue;  // stale
    }
    Entry& e = E(wait.head);
    const Stripe stripe = StripeOf(e.req);
    // Give up on a remainder paused too long: the viewer's display is
    // interrupted for good.  The scheduler tells the owner, who may
    // submit or cancel entries; the pass goes on with those and with the
    // keys their frees woke, ahead of this one's position included.
    const bool give_up = e.paused() && max_pause_intervals_ > 0 &&
                         t_ - e.paused_at_interval > max_pause_intervals_;
    plan->reset();
    // (An unreadable first row fails the attempt without a plan.)
    if (!give_up && (!e.paused() || !FirstRowUnreadable(stripe, e.first_row))) {
      *plan = PlanAdmission(stripe);
      if (!plan->has_value() && !e.paused()) Arm(w, stripe);
    }
    if (give_up || plan->has_value()) {
      decided_ = e;
      Take(wait.head);
      return &decided_;
    }
    // A failed attempt grows the backoff, so max_pause_intervals can
    // give up a remainder that only a repair would let through.
    if (e.paused()) {
      e.backoff = std::min(e.backoff * 2, kMaxRetryBackoffIntervals);
      e.retry_at_interval = t_ + e.backoff;
      OnWheel(w, e.retry_at_interval);
    }
  }
  woken_.clear();
  next_woken_ = 0;
#ifdef STAGGER_AUDIT
  for (const Entry& e : pool_) {
    STAGGER_CHECK(e.wait < 0 || e.paused() ||
                  !PlanAdmission(StripeOf(e.req)).has_value())
        << "request " << e.id << " left waiting would start at interval "
        << t_;
  }
#endif
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
