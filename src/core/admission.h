// Admission of displays (Section 3.2.1): the queue of displays waiting
// to start and the plans that start them.
//
// Admission policies:
//  * kContiguous — a request starts when the M adjacent virtual disks
//    currently over its first subobject's disks are all idle (the simple
//    striping rule; worst-case latency (R-1) * S(C_i)).
//  * kFragmented — additionally admits over non-adjacent idle virtual
//    disks within an alignment lookahead, buffering early reads
//    (Algorithm 1).  With `coalesce` set, fragmented streams migrate
//    lanes onto later-aligned free disks as they appear, draining
//    buffers (Algorithm 2; core/interval_scheduler.h).
//
// One queue holds every display awaiting admission: the remainders of
// paused streams, in the order they paused, then the fresh requests and
// sought remainders in FIFO order.  Each tick makes one pass over it, so
// a paused remainder whose backoff expired starts ahead of the fresh
// requests (resumed displays have priority), and an entry that cannot
// start blocks none behind it (the paper's Figure 3: "idle time
// intervals would be used to service the new request").
//
// Nearly every plan fails, and a failed plan fails again until the
// frame's rotation brings free virtual disks under the stripe or a disk
// it looked at is freed.  So a failed plan leaves a waiter for its key
// (start disk, degree, parity): the interval at which it can next
// succeed on the occupancy it saw (WaitAfterFailedPlan) and the window
// of virtual disks it reads until then.  Entries with the key are
// skipped until that interval, or until a disk of the window is freed
// (VdiskOccupancy::FreedSince).  Audit builds plan every skipped entry
// and check that it fails.

#ifndef STAGGER_CORE_ADMISSION_H_
#define STAGGER_CORE_ADMISSION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/stream.h"
#include "core/virtual_disk.h"
#include "disk/disk_array.h"
#include "storage/layout.h"
#include "util/bitmap.h"
#include "util/hot_path.h"
#include "util/units.h"

namespace stagger {

/// Admission policy (Section 3.2.1).
enum class AdmissionPolicy {
  kContiguous,   ///< adjacent, aligned virtual disks only
  kFragmented,   ///< + Algorithm 1 (buffered, non-adjacent admission)
};

/// \brief How the scheduler reacts when a lane's read lands on a failed
/// or stalled disk (fault subsystem, src/fault/).
enum class DegradedPolicy {
  /// Ignore disk health entirely (the paper's all-healthy assumption);
  /// a read on an unavailable disk is a fatal contract violation.
  kNone,
  /// Pause the affected stream and re-admit it with bounded exponential
  /// backoff: retries come 1, 3, 7, ... intervals after the pause (the
  /// wait doubles after each failed one, up to 64).  A retry more than
  /// `max_pause_intervals` after the pause gives the display up as
  /// interrupted instead, so the give-up comes at the first retry past
  /// that deadline, up to 63 intervals after it.
  kPause,
  /// First try to remap the lost fragment's bandwidth onto a surviving
  /// disk with slack this interval — the subobject's own stripe disks
  /// first, then any idle disk (modeling reconstruction from a
  /// stripe-level replica) — and fall back to pause-and-retry when no
  /// slack exists.
  kRemapOrPause,
  /// For parity-carrying streams, read the stripe's parity fragment in
  /// the same interval and reconstruct the lost fragment in buffer —
  /// one extra read charged against the parity disk's slack.  Streams
  /// without parity, or intervals where the parity disk has no slack,
  /// fall through the kRemapOrPause ladder.
  kReconstruct,
};

/// \brief One display request handed to the scheduler.
struct DisplayRequest {
  ObjectId object = kInvalidObject;
  /// Physical disk of the first fragment to read (layout of X_{s.0} when
  /// starting from subobject s).
  int32_t start_disk = 0;
  int32_t degree = 0;
  int64_t num_subobjects = 0;
  /// True when the object's layout stores a per-subobject parity
  /// fragment on the disk after the stripe (kReconstruct eligibility).
  bool parity = false;
};

/// \brief How long a failed plan must keep failing.  On the occupancy it
/// saw, no plan for the key succeeds before interval `wake`, and until
/// then the plans read only the virtual disks of the window [first,
/// first + len) (mod D, vdisk order; len = D is every disk).  Taking a
/// disk only removes candidates, so the wait holds until `wake` or until
/// a disk of the window is freed.
struct PlanWait {
  int64_t wake = 0;
  int32_t first = 0;
  int32_t len = 0;
};

/// WaitAfterFailedPlan when one step's window fits the word (H >= 1).
PlanWait WaitOverHorizon(const VdiskOccupancy& occupied, int64_t t, int32_t v0,
                         int32_t degree, int64_t lookahead);

/// The wait of a plan, for a stripe of `degree` fragments whose first
/// fragment lies under virtual disk `v0` at interval `t`, that failed at
/// `t` against `occupied`.  `lookahead` is the largest alignment delay a
/// lane may take: the configured one under kFragmented, 0 under
/// kContiguous.
///
/// Each interval moves every candidate virtual disk by -k, so the
/// candidates of the next H intervals lie in one window of k(H + L) + M
/// virtual disks, L the lookahead; H is the largest horizon that fits
/// the window in one 64-bit word of the occupancy.  The wake is the
/// first step s in [1, H] at which every lane has a free candidate and
/// each run of lanes k apart (one orbit block's neighbours) has as many
/// free candidates as lanes, or t + H + 1 when none does; these are
/// necessary conditions of a plan, whatever the disks' health.  When not
/// even H = 1 fits, the wait covers interval t alone, and any free ends
/// it.
inline PlanWait WaitAfterFailedPlan(const VdiskOccupancy& occupied, int64_t t,
                                    int32_t v0, int32_t degree,
                                    int64_t lookahead) {
  const int32_t d = occupied.frame().num_disks();
  if (lookahead >= 64 || occupied.frame().stride() * (lookahead + 1) + degree >
                             std::min(64, d)) {
    return PlanWait{t + 1, 0, d};
  }
  return WaitOverHorizon(occupied, t, v0, degree, lookahead);
}

/// The lanes a request would take if admitted now.
struct AdmitPlan {
  LaneArray lanes;
  int64_t delta_max = 0;
  bool fragmented = false;
};

/// \brief The displays awaiting admission and Algorithm 1's planning.
/// It reads the scheduler's occupancy and the array's health and changes
/// neither: the scheduler carries out each decision of Next.
class AdmissionQueue {
 public:
  /// A display awaiting admission: a fresh request, or the undelivered
  /// remainder of a sought or paused stream.
  struct Entry {
    RequestId id;
    DisplayRequest req;
    SimTime arrival;  ///< the original request's arrival
    /// Layout row of the first read (Stream::first_row).
    int64_t first_row = 0;
    /// Interval of the pause that parked a paused stream's remainder, or
    /// -1 for any other entry.
    int64_t paused_at_interval = -1;
    int64_t retry_at_interval = 0;  ///< next re-admission attempt (paused)
    int32_t backoff = 0;            ///< current backoff, intervals (paused)
    /// True when this entry continues a display admitted before (a
    /// paused or sought stream's remainder); suppresses the
    /// displays_admitted increment.
    bool resumed = false;
    /// True when the display had delivered subobjects before; suppresses
    /// the duplicate OnStarted / startup-latency sample.
    bool started = false;
    /// Set when the pass admits or gives up the entry, which it erases
    /// at its end or before it reports the give-up.
    bool done = false;

    bool paused() const { return paused_at_interval >= 0; }
  };

  /// `occupied` (the scheduler's) and `disks` must outlive the queue;
  /// the other parameters are the SchedulerConfig fields of their names.
  AdmissionQueue(const VirtualDiskFrame& frame, const VdiskOccupancy& occupied,
                 const DiskArray& disks, AdmissionPolicy policy,
                 int64_t fragmented_lookahead, DegradedPolicy degraded_policy,
                 int64_t max_pause_intervals);

  /// Queues a fresh request or a sought remainder at the tail.
  void Push(const Entry& entry) { entries_.push_back(entry); }
  /// Queues the remainder of a stream paused in interval `t` behind the
  /// remainders paused before it; its first retry comes at t + 1.
  void PushPaused(Entry entry, int64_t t);
  /// Removes waiting entry `id`; false when no entry has it.
  bool Erase(RequestId id);

  bool empty() const { return entries_.empty(); }
  /// Entries that are not paused remainders.
  size_t queued() const { return entries_.size() - paused_; }
  size_t paused() const { return paused_; }

  /// Starts interval `t`'s pass.
  void BeginPass(int64_t t) {
    t_ = t;
    rotation_ = frame_.RotationAt(t);
    cursor_ = 0;
  }
  /// Runs the pass to its next decision: the entry to admit with
  /// `*plan` (valid until the queue next changes), or, with `*plan`
  /// empty, a copy of a paused display given up for good and already
  /// off the queue.  Null when the pass ended; entries queued meanwhile
  /// are reached in it.
  const Entry* Next(std::optional<AdmitPlan>* plan);

 private:
  friend class InvariantAuditor;

  /// A request key whose plan failed, and its PlanWait.
  struct Waiter {
    int64_t wake = 0;
    int64_t frees = 0;  ///< occupied_.frees() when last known to fail
    int32_t start_disk = -1;
    int32_t shape = 0;  ///< degree * 2 + parity
    int32_t first = 0;  ///< the PlanWait window
    int32_t len = 0;
  };
  /// Direct-mapped: a collision only evicts a key, which is then
  /// planned again.
  static constexpr size_t kWaiterSlots = 256;

  /// True while `w`'s wait holds at interval t_ with `frees` frees so
  /// far; refreshes its free count, so the next entry with its key checks
  /// no older free.
  bool StillFails(Waiter* w, int64_t frees) {
    if (t_ >= w->wake) return false;
    if (w->frees != frees) {
      if (occupied_.FreedSince(w->frees, w->first, w->len)) return false;
      w->frees = frees;
    }
    return true;
  }

  /// Plans `stripe` under the configured policy without changing any
  /// state; nullopt when it cannot start now.  The outcome depends only
  /// on the stripe, the occupancy, the interval and disk health.
  STAGGER_HOT_PATH std::optional<AdmitPlan> PlanAdmission(
      const Stripe& stripe) {
    std::optional<AdmitPlan> plan = PlanContiguous(stripe);
    if (!plan.has_value() && policy_ == AdmissionPolicy::kFragmented) {
      plan = PlanFragmented(stripe);
    }
    return plan;
  }
  std::optional<AdmitPlan> PlanContiguous(const Stripe& stripe) const;
  std::optional<AdmitPlan> PlanFragmented(const Stripe& stripe);
  /// True under kPause when a disk of `stripe`, a paused remainder's
  /// first, holds a corrupt cell at layout row `row`: re-admitted now,
  /// it would pause again on that read, so the attempt fails like a
  /// refused admission.
  bool FirstRowUnreadable(const Stripe& stripe, int64_t row) const;

  VirtualDiskFrame frame_;
  const VdiskOccupancy& occupied_;
  const DiskArray& disks_;
  AdmissionPolicy policy_;
  int64_t fragmented_lookahead_;
  DegradedPolicy degraded_policy_;
  int64_t max_pause_intervals_;

  /// The paused remainders (the first paused_ entries), then the rest.
  std::vector<Entry> entries_;
  size_t paused_ = 0;
  /// The display Next gave up last.
  Entry given_up_;
  /// The pass's interval, the frame's rotation then, and its next entry.
  int64_t t_ = 0;
  int32_t rotation_ = 0;
  size_t cursor_ = 0;
  /// The waiters of the keys whose plans failed.
  std::vector<Waiter> waiters_;
  /// Virtual disks tentatively taken by earlier lanes of one fragmented
  /// plan, in orbit order; the orbit positions listed in
  /// scratch_taken_bits_ are cleared after each attempt.
  Bitmap scratch_taken_;
  std::vector<int32_t> scratch_taken_bits_;
};

}  // namespace stagger

#endif  // STAGGER_CORE_ADMISSION_H_
