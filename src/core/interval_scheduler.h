// The Centralized Scheduler / Disk Manager of the paper, for the striped
// schemes (simple striping is the stride = M special case).
//
// Time is divided into fixed intervals of length S(C_i).  In each
// interval an active display reads one fragment of its current
// subobject from each of M_X disks; the whole disk set shifts k to the
// right every interval.  Because every stream shifts by the same k, we
// track occupancy in *virtual-disk* space (see virtual_disk.h), where
// stream ownership is time-invariant.
//
// Admission policies:
//  * kContiguous — a request starts when the M adjacent virtual disks
//    currently over its first subobject's disks are all idle (the simple
//    striping rule; worst-case latency (R-1) * S(C_i)).
//  * kFragmented — additionally admits over non-adjacent idle virtual
//    disks within an alignment lookahead, buffering early reads
//    (Algorithm 1).  With `coalesce` set, fragmented streams migrate
//    lanes onto later-aligned free disks as they appear, draining
//    buffers (Algorithm 2).  A stream whose lanes have all drained reads
//    in lockstep from then on and joins the steady streams that the
//    tick reserves in one word pass without visiting them.
//
// Quiet runs.  While nothing is queued or paused, every stream is steady,
// no fragment is buffered, the array is healthy, and neither an idle
// hook nor a read observer is installed, a tick only advances the
// interval count and the array's busy count, both closed forms until
// the calendar's next event.  The scheduler then lets its ticker sleep
// until that event (see PeriodicTicker::SleepUntil); Submit, Cancel,
// Seek, SetIdleBandwidthHook and every health change of the array wake
// it at the next interval.

#ifndef STAGGER_CORE_INTERVAL_SCHEDULER_H_
#define STAGGER_CORE_INTERVAL_SCHEDULER_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/display_listener.h"
#include "core/stream.h"
#include "core/virtual_disk.h"
#include "disk/disk_array.h"
#include "sim/simulator.h"
#include "storage/layout.h"
#include "util/bitmap.h"
#include "util/hot_path.h"
#include "util/result.h"
#include "util/stats.h"

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
  /// backoff (first retry after 1 interval, doubling to 64); a stream
  /// paused longer than `max_pause_intervals` is cancelled as an
  /// interrupted display.
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

/// \brief Counters and distributions reported by the scheduler.
struct SchedulerMetrics {
  int64_t displays_requested = 0;
  int64_t displays_admitted = 0;
  int64_t displays_completed = 0;
  int64_t displays_cancelled = 0;
  int64_t fragmented_admissions = 0;
  int64_t coalesce_migrations = 0;
  /// Output intervals where a lane had not yet read the due fragment.
  /// Zero by construction; a non-zero value indicates a scheduler bug.
  int64_t hiccups = 0;
  // --- degraded-mode counters (DegradedPolicy) -------------------------
  /// Fragment reads remapped onto a surviving disk with slack.
  int64_t degraded_reads = 0;
  /// Fragment reads rebuilt in buffer from the stripe's survivors plus
  /// parity (kReconstruct only).
  int64_t reconstructed_reads = 0;
  /// Streams paused because a read hit an unavailable disk with no slack.
  int64_t streams_paused = 0;
  /// Paused streams successfully re-admitted.
  int64_t streams_resumed = 0;
  /// Paused streams cancelled after exceeding `max_pause_intervals`
  /// (also counted in displays_cancelled).
  int64_t displays_interrupted = 0;
  /// Reads that hit a latent-error cell and were caught by the display
  /// path's checksum (any policy except kNone); the fragment was then
  /// served via the degraded ladder instead.
  int64_t corrupt_reads_detected = 0;
  /// Corrupt fragments shipped to a viewer.  Only possible under
  /// DegradedPolicy::kNone, where nothing verifies reads; fault-aware
  /// configurations must keep this at zero.
  int64_t corrupt_frames_delivered = 0;
  /// Seconds from pause to successful re-admission.
  StreamingStats resume_latency_sec;
  /// Seconds from request arrival to first delivered subobject.
  StreamingStats startup_latency_sec;
  /// Pending-queue length sampled every interval (time-weighted).
  TimeWeighted queue_length;
  /// Fragment buffers in use (time-weighted) and their peak.
  TimeWeighted buffered_fragments;
  int64_t peak_buffered_fragments = 0;
};

/// \brief Configuration of the interval scheduler.
struct SchedulerConfig {
  int32_t stride = 1;                  ///< k
  SimTime interval = SimTime::Millis(605);  ///< S(C_i)
  AdmissionPolicy policy = AdmissionPolicy::kContiguous;
  /// Enable Algorithm 2 lane migration (only meaningful with kFragmented).
  bool coalesce = false;
  /// Max alignment delay (intervals) accepted for a fragmented lane.
  int64_t fragmented_lookahead = 16;
  /// Reaction to reads landing on failed/stalled disks (src/fault/).
  DegradedPolicy degraded_policy = DegradedPolicy::kRemapOrPause;
  /// A stream paused longer than this is cancelled as an interrupted
  /// display; <= 0 means never (retry forever).
  int64_t max_pause_intervals = 4096;
  /// Optional observer invoked for every fragment read:
  /// (interval, object, subobject, fragment, physical disk).  Used by
  /// ScheduleTracer to render Figure 3-style schedules.
  std::function<void(int64_t, ObjectId, int64_t, int32_t, int32_t)>
      read_observer;
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

/// \brief Interval-synchronous scheduler for staggered striping.
class IntervalScheduler {
 public:
  /// \param sim    simulation kernel; must outlive the scheduler.
  /// \param disks  disk farm (utilization stats); must outlive it.
  /// \param config scheduler parameters; validated here.
  /// \param listener hears every display's lifecycle events; may be
  ///        null.  Must outlive the scheduler.
  static Result<std::unique_ptr<IntervalScheduler>> Create(
      Simulator* sim, DiskArray* disks, const SchedulerConfig& config,
      DisplayListener* listener = nullptr);

  ~IntervalScheduler();
  IntervalScheduler(const IntervalScheduler&) = delete;
  IntervalScheduler& operator=(const IntervalScheduler&) = delete;

  /// Enqueues a display request; admission follows the configured
  /// policy.  Returns a handle usable with Cancel().
  Result<RequestId> Submit(DisplayRequest request);

  /// Cancels a queued, active or paused request.  Active streams release
  /// their disks immediately; no lifecycle event fires for it.  NotFound
  /// once the handle is dead: completed, cancelled, sought away or given
  /// up.
  Status Cancel(RequestId id);

  /// Repositions an *active* display (rewind / fast-forward without
  /// scan, Section 3.2.5): the stream is torn down and re-queued reading
  /// `new_num_subobjects` stripes from layout row `target_row` (>= 0) of
  /// its object, whose first fragment lies where the stream's own
  /// stride walk puts it: start_disk + (target_row - first_row) * k
  /// (mod D).  Returns the new handle, which the display's later
  /// lifecycle events carry.
  Result<RequestId> Seek(RequestId id, int64_t target_row,
                         int64_t new_num_subobjects);

  const SchedulerMetrics& metrics() const { return metrics_; }
  const VirtualDiskFrame& frame() const { return frame_; }
  const SchedulerConfig& config() const { return config_; }
  int64_t current_interval() const { return interval_index_; }
  size_t pending_requests() const { return queue_.size(); }
  size_t active_streams() const { return active_.size(); }
  /// Streams parked by the degraded-mode policy, awaiting re-admission.
  size_t paused_streams() const { return paused_.size(); }
  int32_t idle_virtual_disks() const;

  /// Interval-start wall time of interval index `t`.
  SimTime IntervalStart(int64_t t) const {
    return epoch_ + config_.interval * t;
  }

  /// Installs a hook invoked once per interval after display reads are
  /// scheduled but before the interval closes, with the interval index.
  /// Leftover disk slack at that point is genuinely idle bandwidth; the
  /// rebuild subsystem (src/rebuild/) consumes it for spare rebuilding.
  void SetIdleBandwidthHook(std::function<void(int64_t)> hook) {
    idle_hook_ = std::move(hook);
    Wake();
  }

 private:
  friend class InvariantAuditor;

  /// A display awaiting admission: a fresh request, or the undelivered
  /// remainder of a paused or sought stream.
  struct Pending {
    RequestId id;
    DisplayRequest req;
    SimTime arrival;  ///< the original request's arrival
    /// Layout row of the first read (Stream::first_row).
    int64_t first_row = 0;
    /// True when this entry continues a display admitted before (a
    /// paused or sought stream's remainder); suppresses the
    /// displays_admitted increment.
    bool resumed = false;
    /// True when the display had delivered subobjects before; suppresses
    /// the duplicate OnStarted / startup-latency sample.
    bool started = false;
    /// Set by TryAdmissions on the entries it admits, which it erases
    /// after its pass.
    bool admitted = false;
  };

  /// A stream parked by the degraded-mode policy: its lanes are torn
  /// down and the undelivered remainder waits for re-admission.
  struct PausedStream : Pending {
    SimTime paused_at;
    int64_t paused_at_interval = 0;
    int64_t retry_at_interval = 0;  ///< next re-admission attempt
    int64_t backoff = 1;            ///< current backoff (intervals)
  };

  /// A calendar entry: a steady stream's first read (and delivery) or
  /// last read falls on interval `tick`.  `admission` names the
  /// admission that scheduled it; once the slot holds another, the entry
  /// is stale and dropped.
  struct CalendarEvent {
    int64_t tick;
    StreamId id;
    int64_t admission;
    int32_t slot;

    /// Heap order: the earliest tick, then the smallest id, on top.
    static bool Later(const CalendarEvent& a, const CalendarEvent& b) {
      return a.tick != b.tick ? a.tick > b.tick : a.id > b.id;
    }
  };

  /// A stream the tick visits.
  struct DueStream {
    StreamId id;
    int32_t slot;
  };

  /// This interval's faulty slots F: the unavailable ones while the
  /// policy reacts to them, and those whose drive carries a corrupt
  /// cell.  A read on F goes down the degraded ladder when its slot is
  /// down or its cell is corrupt; a clean cell on a corrupt drive reads
  /// as on a healthy one.
  struct FaultySlots {
    const Bitmap* unavailable = nullptr;    ///< null when not counted
    const LatentErrorMap* latent = nullptr;  ///< null when no cell is corrupt

    bool any() const { return unavailable != nullptr || latent != nullptr; }
    /// Word `w` of F.
    uint64_t Word(int32_t w) const {
      return (unavailable != nullptr ? unavailable->word(w) : 0) |
             (latent != nullptr ? latent->corrupt_disks().word(w) : 0);
    }
    bool Test(int32_t slot) const {
      return (unavailable != nullptr && unavailable->Test(slot)) ||
             (latent != nullptr && latent->corrupt_disks().Test(slot));
    }
    /// True when no slot of the window [first, first + width) is faulty.
    bool WindowClear(int32_t first, int32_t width) const {
      return (unavailable == nullptr ||
              unavailable->WindowClear(first, width)) &&
             (latent == nullptr ||
              latent->corrupt_disks().WindowClear(first, width));
    }
    /// True when the read of layout row `cell` from `slot` goes down the
    /// degraded ladder: the slot is down or the cell corrupt.
    bool NeedsLadder(int32_t slot, int64_t cell) const {
      return (unavailable != nullptr && unavailable->Test(slot)) ||
             (latent != nullptr && latent->IsCorrupt(slot, cell));
    }
  };

  IntervalScheduler(Simulator* sim, DiskArray* disks, SchedulerConfig config,
                    VirtualDiskFrame frame, DisplayListener* listener);

  /// The lanes a request would take if admitted now.
  struct AdmitPlan {
    LaneArray lanes;
    int64_t delta_max = 0;
    bool fragmented = false;
  };

  /// A request key whose admission failed in pass `pass` of
  /// TryAdmissions (a pass ends at each successful admission).
  struct FailedAdmission {
    int64_t pass = 0;
    int32_t start_disk = 0;
    int32_t shape = 0;  ///< degree * 2 + parity
  };
  /// Direct-mapped: a collision only evicts a key, which is then
  /// planned again.
  static constexpr size_t kFailedAdmissionSlots = 256;

  void Tick(int64_t tick_index);
  /// True when the coming ticks, until the calendar's next event, would
  /// change nothing but the interval count and the array's busy count.
  bool Quiet() const;
  /// Accounts `n` quiet intervals the ticker slept through.
  void SkipQuietIntervals(int64_t n);
  /// Ends the ticker's sleep, if any, at the next interval.
  void Wake();
  void TryAdmissions();
  /// Attempts to admit `p` at the current interval; true on success.
  bool TryAdmit(const Pending& p);
  /// Plans `req` for the current interval under the configured policy
  /// without changing the scheduler's state; nullopt when it cannot
  /// start now.  The outcome depends only on the request's start disk,
  /// degree and parity, the occupancy, the interval and disk health.
  std::optional<AdmitPlan> PlanAdmission(const DisplayRequest& req);
  std::optional<AdmitPlan> PlanContiguous(const DisplayRequest& req) const;
  std::optional<AdmitPlan> PlanFragmented(const DisplayRequest& req);
  void AdmitStream(const Pending& p, AdmitPlan&& plan);
  /// The undelivered tail of active stream `s` as queue entry `id`:
  /// `num_subobjects` rows from layout row `first_row` on `start_disk`,
  /// continuing the same display.
  Pending Remainder(const Stream& s, RequestId id, int32_t start_disk,
                    int64_t first_row, int64_t num_subobjects) const;
  /// This interval's faulty slots.
  FaultySlots Faults() const;
  /// Reserves this interval's reads and advances the streams that have
  /// something due, in ascending id.  Steady streams' reads are reserved
  /// in one word pass; on a faulty array that pass leaves out the reads
  /// that need the degraded ladder, and the tick visits their streams,
  /// whose lane walks send those reads down the ladder.
  void AdvanceStreams();
  /// Reads lane `lane` of stream `s`, whose first fragment is fragment
  /// `fragment` of the stripe on physical disk `first`, one fragment at
  /// a time: the path of a run touching a slot of `faulty`, and of every
  /// run under a read observer.  The run is reserved already when
  /// `clean`, and so are a steady stream's reads the ladder need not
  /// serve.  Returns the fragments read: fewer than the lane's width
  /// when the stream must pause.
  int32_t ReadLaneByFragment(const Stream& s, const FragmentLane& lane,
                             int32_t fragment, int32_t first, bool clean,
                             const FaultySlots& faulty);
  /// Pops this tick's calendar events into scratch_events_, in ascending
  /// id.  Steady streams whose reads start now join reading_.
  void PopCalendarEvents();
  /// Fills scratch_due_, in ascending id, with scratch_events_ and every
  /// non-steady stream (every stream when `observe`).
  void CollectDueStreams(bool observe);
  /// Reserves reading_ rotated by `rot` except its reads that need the
  /// degraded ladder (their slots are in `faulty`), and adds the steady
  /// streams of those reads to scratch_events_, so the tick visits them
  /// (none when `observe`: every stream is then visited).  Leaves the
  /// rotated reading_ in claimed_.
  void ReserveSteadyReads(int32_t rot, const FaultySlots& faulty,
                          bool observe);
  /// Gives back the reservations ReserveSteadyReads made for steady
  /// stream `s`'s reads of its row `row` after fragment `failed`: the
  /// stream pauses there and never issues them.
  void GiveBackReads(const Stream& s, int64_t row, int32_t failed,
                     int32_t rot, const FaultySlots& faulty);
  /// Sets the virtual disks of `s`'s unreleased lanes in reading_.
  void MarkReading(const Stream& s);
  /// Queues a calendar event of steady stream `s` (in `slot`) at `tick`.
  void PushEvent(const Stream& s, int32_t slot, int64_t tick);
  /// Algorithm 2 for stream `s`, held in `slot`: at most one lane
  /// migration.
  void TryCoalesce(Stream* s, int32_t slot);
  /// Moves non-steady stream `s` (in `slot`), whose lanes now read in
  /// lockstep with its output, onto the steady path.
  void MakeSteady(Stream* s, int32_t slot);
  /// Gives back the first `count` virtual disks of `lane`, a lane of
  /// `s`; the lane keeps the rest of its run, or is released when
  /// `count` covers its whole width.
  void ReleaseLane(const Stream& s, FragmentLane* lane, int32_t count);
  void FinishStream(StreamId id, bool completed);
  void UpdateIntervalStats();
  // --- stream storage ---------------------------------------------------
  /// Slot of `id` in slots_, or -1.  Binary search over active_.
  int32_t SlotOf(StreamId id) const;
  /// Pointer into slots_, or nullptr when `id` is not active.  Valid
  /// until the next admission (slots_ may reallocate).
  Stream* FindStream(StreamId id);
  /// Pops a free slot, growing slots_ when the free list is empty.
  int32_t AllocSlot();
  // --- degraded mode ---------------------------------------------------
  /// Re-admits paused streams whose backoff expired; cancels those past
  /// `max_pause_intervals`.  Runs before fresh admissions so resumed
  /// displays have priority.
  void RetryPaused();
  /// Tears down an active stream and parks its undelivered remainder.
  void PauseStream(StreamId id);
  /// True under kPause when a disk of remainder `p`'s first stripe holds
  /// a corrupt cell at its first row: re-admitted now, it would pause
  /// again on that read, so the attempt fails like a refused admission.
  bool FirstRowUnreadable(const Pending& p) const;
  /// Reads stream `s`'s fragment of its row `row` (layout row
  /// s.first_row + row) due on physical disk `physical` on a faulty
  /// array: the disk itself when it is up and the cell clean, else the
  /// degraded ladder (parity reconstruction, then a substitute disk).
  /// Reserves the disk read and returns it, or returns -1 when the
  /// stream must pause.
  int32_t DegradedRead(const Stream& s, int64_t row, int32_t physical);
  /// Physical disk with slack to absorb a read of a fragment of
  /// `stripe` this interval, or -1.  Consults claimed_ (disks some
  /// active lane is due to read this interval, whether or not already
  /// reserved).
  int32_t FindDegradedSubstitute(const Stripe& stripe) const;
  /// Stripe of row `row` of stream `s`: Stripe::At from the row's first
  /// slot, start + row * k (mod D), the stride walk of the frame.
  Stripe RowStripe(const Stream& s, int64_t row) const;

  Simulator* sim_;
  DiskArray* disks_;
  SchedulerConfig config_;
  DisplayListener* listener_;
  VirtualDiskFrame frame_;
  SimTime epoch_;
  int64_t interval_index_ = 0;

  static constexpr int32_t kNoSlot = -1;

  /// Slot of each virtual disk's owner (kNoSlot when free) plus the same
  /// set as a two-view bitmap.  The bitmap answers the hot-path queries
  /// (window test at contiguous admission in vdisk order, the Algorithm
  /// 1-2 searches in orbit order) in O(M/64) and O(lookahead/64) words;
  /// the owner array backs O(1) release, the faulty tick's owner lookup
  /// and the audit's cross-checks.
  std::vector<int32_t> vdisk_slot_;
  VdiskOccupancy vdisk_occupied_;
  /// Stream storage: stable slots plus a free list, so steady-state
  /// admission/retirement never allocates.  active_ maps stream id ->
  /// slot, sorted by id; unsteady_ is the same map restricted to the
  /// streams admitted non-steady, the ones the tick visits every
  /// interval.
  std::vector<Stream> slots_;
  /// Per slot: vdisk_frees_ at its stream's last coalescing search that
  /// found no better disk while every lane was reading, or -1.  Kept
  /// beside slots_ rather than in Stream, whose size the admission and
  /// teardown costs follow.
  std::vector<int64_t> coalesce_misses_;
  std::vector<int32_t> free_slots_;
  std::vector<std::pair<StreamId, int32_t>> active_;
  std::vector<std::pair<StreamId, int32_t>> unsteady_;
  /// Virtual disks of steady streams' lanes, from their first read to
  /// their release.  Every such lane reads every interval, so each tick
  /// reserves them all at once: reading_ rotated by the frame rotation,
  /// one word pass into the busy bitmap, masked by the faulty slots on a
  /// faulty tick.
  Bitmap reading_;
  /// Steady streams' first- and last-read events: a binary min-heap on
  /// (tick, id), at most two live entries per steady stream.  Popping a
  /// tick's entries yields its events in ascending id.
  std::vector<CalendarEvent> calendar_;
  int64_t next_admission_ = 0;
  /// Virtual-disk frees so far (lane releases and migrations): a
  /// coalescing search that failed can succeed only after one.
  int64_t vdisk_frees_ = 0;
  /// TryAdmissions' pass number and the keys that failed in it.
  int64_t admission_pass_ = 0;
  std::vector<FailedAdmission> failed_admissions_;
  std::deque<Pending> queue_;
  std::deque<PausedStream> paused_;
  /// Next request handle.  An admitted request's stream takes the
  /// handle as its id, so a live handle is found in active_, queue_ or
  /// paused_ without a table of its own.
  RequestId next_request_id_ = 1;

  /// Sum over active streams of TotalBufferedFragments(), maintained
  /// incrementally (+width per lane read, -degree per delivery,
  /// -contribution at retirement) so per-interval stats cost O(1).
  int64_t buffered_fragments_ = 0;

  // Scratch reused across ticks (no per-tick allocation).
  /// Virtual disks tentatively taken by earlier lanes of one fragmented
  /// admission, in orbit order; the orbit positions listed in
  /// scratch_taken_bits_ are cleared after each attempt.
  Bitmap scratch_taken_;
  std::vector<int32_t> scratch_taken_bits_;
  /// Claimed-disk set, slot-indexed: bit set == some active lane is due
  /// to read the disk this interval, or a degraded read took it.
  /// Rebuilt only on ticks with a down disk or a corrupt cell — the only
  /// ticks that read it — from the rotated reading_ (the masked
  /// reservation's source) plus, unless the policy ignores faults, the
  /// due lanes of the non-steady streams.  Degraded substitutes scan it
  /// word-wise together with the array's unavailable and busy sets.
  Bitmap claimed_;
  /// The tick's visit list, and its calendar events (with, on a faulty
  /// tick, the steady streams that have a read for the degraded ladder)
  /// before they are merged into it.
  std::vector<DueStream> scratch_due_;
  std::vector<DueStream> scratch_events_;
  std::vector<StreamId> scratch_finished_;
  std::vector<StreamId> scratch_to_pause_;

  SchedulerMetrics metrics_;
  std::function<void(int64_t)> idle_hook_;
  /// True while this scheduler holds the array's health listener, which
  /// it needs to sleep.
  bool holds_health_listener_ = false;
  std::unique_ptr<PeriodicTicker> ticker_;
};

}  // namespace stagger

#endif  // STAGGER_CORE_INTERVAL_SCHEDULER_H_
