// The Centralized Scheduler / Disk Manager of the paper, for the striped
// schemes (simple striping is the stride = M special case).
//
// Time is divided into fixed intervals of length S(C_i).  In each
// interval an active display reads one fragment of its current
// subobject from each of M_X disks; the whole disk set shifts k to the
// right every interval.  Because every stream shifts by the same k, we
// track occupancy in *virtual-disk* space (see virtual_disk.h), where
// stream ownership is time-invariant.  Which waiting display starts
// when is core/admission.h's; the scheduler carries out its decisions.
//
// Steady streams.  A stream whose lanes all read every interval, each at
// a fixed offset, has cursors that are a closed form of the interval
// (Stream::SteadyReads): every contiguous admission, every Algorithm-1
// admission aligned at delta_max, and every fragmented stream once its
// lanes all read with output running and, under Algorithm 2, its last
// coalescing search missed.  The tick reserves all steady reads in one
// rotated word pass and visits a steady stream only at its calendar
// events (its first read, and its earliest lane's last read) and, under
// Algorithm 2, when a virtual disk freed since its search lies in the
// window that search read, so a lane could migrate — exactly the visits
// where the walk of every stream in ascending id would change anything.
//
// Quiet runs.  While nothing is queued or paused, every stream is steady,
// no fragment is buffered, the array is healthy, and no idle hook is
// installed, a tick only advances the interval count and the array's
// busy count, both closed forms until the calendar's next event.  The
// scheduler then lets its ticker sleep until that event (see
// PeriodicTicker::SleepUntil); Submit, Cancel, Seek,
// SetIdleBandwidthHook and every health change of the array wake it at
// the next interval.  A read listener hears the reads slept through in
// closed form, from reading_ (ReportSteadyReads).

#ifndef STAGGER_CORE_INTERVAL_SCHEDULER_H_
#define STAGGER_CORE_INTERVAL_SCHEDULER_H_

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/admission.h"
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
  /// Paused streams given up at a retry more than `max_pause_intervals`
  /// after the pause (also counted in displays_cancelled).
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
  /// A paused stream is given up as an interrupted display at its first
  /// retry more than this many intervals after the pause (retries come
  /// 1, 3, 7, ... intervals after it, then every 64); <= 0 means never
  /// (retry forever).
  int64_t max_pause_intervals = 4096;
  /// Hears every fragment read (ScheduleTracer renders Figure 3-style
  /// schedules from them); may be null.  Must outlive the scheduler.
  ReadListener* read_listener = nullptr;
};

/// An active stream's id and its slot in the scheduler's stream storage:
/// the entries of its id-sorted stream lists and of a tick's visits.
/// Trivially copyable, so erasing from a list is one memmove.
struct StreamSlot {
  StreamId id;
  int32_t slot;

  friend bool operator==(const StreamSlot&, const StreamSlot&) = default;
};

/// \brief Interval-synchronous scheduler for staggered striping.
class IntervalScheduler : private FreeWatcher {
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
  size_t pending_requests() const { return admission_.queued(); }
  size_t active_streams() const { return active_.size(); }
  /// Streams parked by the degraded-mode policy, awaiting re-admission.
  size_t paused_streams() const { return admission_.paused(); }
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

  /// A calendar entry: a steady stream's first read (and delivery) or
  /// its earliest lane's last read falls on interval `tick`.  `epoch`
  /// names the steady period that scheduled it; once the slot holds
  /// another admission or period, or a stream no longer steady, the
  /// entry is stale and dropped.
  struct CalendarEvent {
    int64_t tick;
    StreamId id;
    int64_t epoch;
    int32_t slot;

    /// Heap order: the earliest tick, then the smallest id, on top.
    static bool Later(const CalendarEvent& a, const CalendarEvent& b) {
      return a.tick != b.tick ? a.tick > b.tick : a.id > b.id;
    }
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

  void Tick(int64_t tick_index);
  /// True when the coming ticks, until the calendar's next event, would
  /// change nothing but the interval count and the array's busy count.
  bool Quiet() const;
  /// Accounts `n` quiet intervals the ticker slept through.
  void SkipQuietIntervals(int64_t n);
  /// Ends the ticker's sleep, if any, at the next interval.
  void Wake();
  /// Carries out this interval's admission pass: starts the streams it
  /// admits, paused remainders first, and gives up the paused displays
  /// past `max_pause_intervals`.
  void Admit();
  void AdmitStream(const AdmissionQueue::Entry& p, AdmitPlan&& plan);
  /// The undelivered tail of active stream `s` as queue entry `id`:
  /// `num_subobjects` rows from layout row `first_row`, continuing the
  /// same display.
  AdmissionQueue::Entry Remainder(const Stream& s, RequestId id,
                                  int64_t first_row,
                                  int64_t num_subobjects) const;
  /// This interval's faulty slots.
  FaultySlots Faults() const;
  /// Reserves this interval's reads and advances the streams that have
  /// something due, in ascending id.  Steady streams' reads are reserved
  /// in one word pass; on a faulty array that pass leaves out the reads
  /// that need the degraded ladder, and the tick visits their streams,
  /// whose lane walks send those reads down the ladder.  A steady stream
  /// in stale_ is visited where the walk reaches its id.
  void AdvanceStreams();
  /// Reads lane `lane` of stream `s`, whose first fragment is fragment
  /// `fragment` of the stripe on physical disk `first`, one fragment at
  /// a time: the path of a run touching a slot of `faulty`.  A steady
  /// stream's reads the ladder need not serve are reserved already.
  /// Reports each read, at the disk actually read, to the read
  /// listener.  Returns the fragments read: fewer than the lane's width
  /// when the stream must pause.
  int32_t ReadLaneByFragment(const Stream& s, const FragmentLane& lane,
                             int32_t fragment, int32_t first,
                             const FaultySlots& faulty);
  /// Tells the read listener that `s` read `count` fragments of its row
  /// `row` in interval `t`, from fragment `fragment` on disk `disk` on.
  void ReportReads(const Stream& s, int64_t t, int64_t row, int32_t fragment,
                   int32_t disk, int32_t count) const;
  /// Tells the read listener the reads of intervals [t, t + n) by the
  /// steady lanes in reading_, at their closed-form rows, except those
  /// of the streams in scratch_due_, whose visits reported their own.
  void ReportSteadyReads(int64_t t, int64_t n) const;
  /// Pops this tick's calendar events into scratch_events_, in ascending
  /// id.  Steady streams whose reads start now join reading_.
  void PopCalendarEvents();
  /// Fills scratch_due_, in ascending id, with scratch_events_ and every
  /// non-steady stream.
  void CollectDueStreams();
  /// Reserves reading_ rotated by `rot` except its reads that need the
  /// degraded ladder (their slots are in `faulty`), and adds the steady
  /// streams of those reads to scratch_events_, so the tick visits them.
  /// Leaves the rotated reading_ in claimed_.
  void ReserveSteadyReads(int32_t rot, const FaultySlots& faulty);
  /// Gives back the reservations ReserveSteadyReads made for steady
  /// stream `s`'s reads after fragment `failed`, each lane's of its own
  /// row: the stream pauses there and never issues them.
  void GiveBackReads(const Stream& s, int32_t failed, int32_t rot,
                     const FaultySlots& faulty);
  /// Gives back ReserveSteadyReads' reservation of a steady read of
  /// layout row `cell` from physical disk `disk`, which it made unless
  /// the read goes down the degraded ladder.
  void GiveBackRead(int32_t disk, int64_t cell, const FaultySlots& faulty);
  /// Sets the virtual disks of `s`'s unreleased lanes in reading_.
  void MarkReading(const Stream& s);
  /// Queues a calendar event of steady stream `s` (in `slot`) at `tick`.
  void PushEvent(const Stream& s, int32_t slot, int64_t tick);
  /// True while calendar entry `e` belongs to its slot's current steady
  /// period.
  bool LiveEvent(const CalendarEvent& e) const;
  /// Stores steady stream `s`'s closed-form cursors as of the end of the
  /// previous interval, the state a visit advances.
  void SyncSteadyCursors(Stream* s);
  /// One Algorithm-2 move: lane `lane` resumes on virtual disk `vdisk`
  /// at stream-local interval `resume`.
  struct CoalesceMove {
    int32_t lane;
    int32_t vdisk;
    int64_t resume;
  };
  /// A coalescing search that missed with every unfinished lane reading.
  /// While the lanes keep reading it asks the same question each
  /// interval, so it misses again until a virtual disk of its window
  /// [first, first + len) (mod D, vdisk order) is freed, or the stream
  /// releases a lane, which ends the stream's watch of the window.
  struct CoalesceMiss {
    int32_t first = 0;
    int32_t len = -1;  ///< -1: no miss to watch
  };
  /// Algorithm 2's search for stream `s` at this interval, on its stored
  /// cursors: the lane with the largest lead and the free virtual disk
  /// with the latest safe resume, when that shrinks the lane's buffer.
  /// Fills `*miss` when it searched and missed with every unfinished lane
  /// reading.
  std::optional<CoalesceMove> FindCoalesceMove(const Stream& s,
                                               CoalesceMiss* miss) const;
  /// True while the coalescing miss of the stream in `slot` holds: no
  /// disk of its watched window was freed since.
  bool MissWatched(int32_t slot) const {
    return coalesce_misses_[static_cast<size_t>(slot)].len >= 0;
  }
  /// A free ended the watch of the stream in `slot`: a steady one waits
  /// in stale_ for its search.
  void Woken(int32_t slot) override;
  /// Algorithm 2 for stream `s`, held in `slot`: at most one lane
  /// migration.  A steady stream's migrating lane gives back its read
  /// of this interval (physical disk = virtual + `rot`).  True when a
  /// lane migrated.
  bool TryCoalesce(Stream* s, int32_t slot, int32_t rot,
                   const FaultySlots& faulty);
  /// Audit builds: the coalescing search of steady stream `s`, skipped
  /// because no virtual disk of its window was freed since its last
  /// miss, misses.
  void CheckSkippedSearch(Stream* s);
  /// Moves non-steady stream `s` (in `slot`), whose lanes all read at
  /// fixed offsets from here on, onto the steady path.
  void EnterSteady(Stream* s, int32_t slot);
  /// Takes steady stream `s` (in `slot`), one of whose lanes migrated or
  /// finished this interval, off the steady path.
  void LeaveSteady(Stream* s, int32_t slot);
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
  /// Tears down an active stream and parks its undelivered remainder.
  void PauseStream(StreamId id);
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
  /// streams not steady, the ones the tick visits every interval.
  std::vector<Stream> slots_;
  /// Per slot: its stream's watched coalescing miss.  Kept beside
  /// slots_ rather than in Stream, whose size the admission and teardown
  /// costs follow.
  std::vector<CoalesceMiss> coalesce_misses_;
  std::vector<int32_t> free_slots_;
  std::vector<StreamSlot> active_;
  std::vector<StreamSlot> unsteady_;
  /// Virtual disks of steady streams' lanes, from their first read until
  /// the stream leaves the steady path.  Every such lane reads every
  /// interval, so each tick reserves them all at once: reading_ rotated
  /// by the frame rotation, one word pass into the busy bitmap, masked by
  /// the faulty slots on a faulty tick.
  Bitmap reading_;
  /// Steady streams' first-read and earliest-last-read events: a binary
  /// min-heap on (tick, id), at most two live entries per steady stream.
  /// Popping a tick's entries yields its events in ascending id.
  std::vector<CalendarEvent> calendar_;
  /// Next Stream::epoch.
  int64_t next_epoch_ = 0;
  /// The displays awaiting admission.
  AdmissionQueue admission_;
  /// Next request handle.  An admitted request's stream takes the
  /// handle as its id, so a live handle is found in active_ or
  /// admission_ without a table of its own.
  RequestId next_request_id_ = 1;

  /// Sum over active streams of TotalBufferedFragments(), maintained
  /// incrementally (+width per lane read, -degree per delivery,
  /// -contribution at retirement) so per-interval stats cost O(1).
  int64_t buffered_fragments_ = 0;

  // Scratch reused across ticks (no per-tick allocation).
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
  std::vector<StreamSlot> scratch_due_;
  std::vector<StreamSlot> scratch_events_;
  std::vector<StreamId> scratch_finished_;
  std::vector<StreamId> scratch_to_pause_;

  SchedulerMetrics metrics_;
  std::function<void(int64_t)> idle_hook_;
  /// True while this scheduler holds the array's health listener, which
  /// it needs to sleep.
  bool holds_health_listener_ = false;
  std::unique_ptr<PeriodicTicker> ticker_;

  // Last, so the members above keep their offsets: the tick's timings
  // move with member offsets alone (docs/performance.md §20).
  /// The steady streams under Algorithm 2 whose coalescing miss a free
  /// ended, sorted by id: the walk visits those above its position, the
  /// others the next tick.
  std::vector<StreamSlot> stale_;
};

}  // namespace stagger

#endif  // STAGGER_CORE_INTERVAL_SCHEDULER_H_
